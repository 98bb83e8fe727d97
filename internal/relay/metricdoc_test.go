package relay

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/streaming"
)

// TestREADMEDocumentsMetrics keeps README.md's metric tables in sync
// with what the roles register: every lod_* family a standalone server,
// an edge and a registry with one node serve at GET /v1/metrics appears
// in exactly one README table row, and every lod_* name in a table row
// is such a family.
func TestREADMEDocumentsMetrics(t *testing.T) {
	g := NewRegistry(nil)
	defer g.Close()
	mustRegister(t, g, NodeInfo{ID: "e1", URL: "http://edge1:8081"})
	families := map[string]bool{}
	for _, h := range []http.Handler{
		streaming.NewServer(nil).Handler(),
		NewEdge("http://origin:8080", nil).Handler(),
		g.Handler(),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, proto.Versioned(proto.PathMetrics), nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "lod_") {
				families[f[2]] = true
			}
		}
	}
	if len(families) == 0 {
		t.Fatal("no lod_* families scraped")
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`lod_[a-z0-9_]+`)
	rows := map[string]int{}
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		seen := map[string]bool{}
		for _, n := range name.FindAllString(line, -1) {
			if !seen[n] {
				seen[n] = true
				rows[n]++
			}
		}
	}
	for f := range families {
		if rows[f] != 1 {
			t.Errorf("README.md documents %s in %d table rows, want exactly 1", f, rows[f])
		}
	}
	for n := range rows {
		if !families[n] {
			t.Errorf("README.md's tables name %s, which no role registers", n)
		}
	}
}
