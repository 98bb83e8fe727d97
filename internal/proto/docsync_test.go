package proto

import (
	"os"
	"strings"
	"testing"
)

// routes are the contract's route constants, in their unversioned
// spelling.
var routes = []string{
	PrefixVOD, PrefixLive, PrefixGroup, PrefixFetch,
	PathAssets, PathChannels, PathGroups,
	PathRegister, PathHeartbeat, PathReportFailure, PathDeregister, PathNodes,
	PathCatalog, PathCatalogPublish, PathCatalogUnpublish, PathCatalogRollback,
	PrefixPublish, PrefixUnpublish,
	PathMetrics, PathStatus,
}

// TestREADMEDocumentsContract keeps README.md's endpoint tables in sync
// with this package: every route the contract defines must appear in
// the README in its /v1 form and in no other, and the headers and query
// parameters must be named. Changing a constant here without
// regenerating the tables fails this test.
func TestREADMEDocumentsContract(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	want := []string{ExcludeHeader, CatalogVersionHeader, "?" + ParamStart + "=", "?" + ParamBandwidth + "="}
	for _, route := range routes {
		want = append(want, Versioned(route))
	}
	for _, w := range want {
		if !strings.Contains(doc, w) {
			t.Errorf("README.md does not document %q; regenerate the endpoint tables from internal/proto", w)
		}
	}
	// No route is advertised without its prefix: nothing serves that form.
	for _, route := range routes {
		for off := 0; ; {
			i := strings.Index(doc[off:], route)
			if i < 0 {
				break
			}
			i += off
			if !strings.HasSuffix(doc[:i], VersionPrefix) {
				line := strings.Count(doc[:i], "\n") + 1
				t.Errorf("README.md:%d names %q without %s, a form nothing serves", line, route, VersionPrefix)
			}
			off = i + 1
		}
	}
}

// TestDESIGNDocumentsContract pins DESIGN.md's API-contract section.
func TestDESIGNDocumentsContract(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(design)
	for _, want := range []string{"API contract", "internal/proto", "internal/client", VersionPrefix} {
		if !strings.Contains(doc, want) {
			t.Errorf("DESIGN.md is missing %q in its API contract section", want)
		}
	}
}
