package relay

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/streaming"
)

// syncCat is shorthand for building and applying a catalog version.
func syncCat(e *Edge, version uint64, assets []proto.CatalogAsset, groups []proto.CatalogGroup) []string {
	return e.SyncCatalog(proto.Catalog{Version: version, Assets: assets, Groups: groups})
}

// TestEdgeSyncCatalogInvalidatesStaleMirrors: an unpublished or
// republished asset must drop out of the edge's mirror so the next open
// re-fetches fresh bytes, while untouched mirrors stay resident.
func TestEdgeSyncCatalogInvalidatesStaleMirrors(t *testing.T) {
	_, originTS, _ := newOriginWithAsset(t, "lec-a")
	data := encodeTestLecture(t, 2*time.Second, false)
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)

	// Baseline catalog, then mirror lec-a through the pull path.
	syncCat(edge, 1, []proto.CatalogAsset{{Name: "lec-a", Rev: 1}, {Name: "lec-b", Rev: 1}}, nil)
	if err := edge.MirrorAsset("lec-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := edgeSrv.Asset("lec-a"); !ok {
		t.Fatal("lec-a not mirrored")
	}

	// lec-b changes, lec-a does not: the resident mirror survives.
	if inv := syncCat(edge, 2, []proto.CatalogAsset{{Name: "lec-a", Rev: 1}, {Name: "lec-b", Rev: 2}}, nil); len(inv) != 0 {
		t.Fatalf("invalidated %v, want nothing (lec-b was never mirrored)", inv)
	}
	if _, ok := edgeSrv.Asset("lec-a"); !ok {
		t.Fatal("untouched mirror dropped")
	}

	// lec-a is republished (Rev bump): the stale copy must go.
	if inv := syncCat(edge, 3, []proto.CatalogAsset{{Name: "lec-a", Rev: 3}, {Name: "lec-b", Rev: 2}}, nil); len(inv) != 1 || inv[0] != "lec-a" {
		t.Fatalf("invalidated %v, want [lec-a]", inv)
	}
	if _, ok := edgeSrv.Asset("lec-a"); ok {
		t.Fatal("stale mirror still resident after republish")
	}

	// Re-mirror, then unpublish entirely: dropped again.
	if err := edge.MirrorAsset("lec-a"); err != nil {
		t.Fatal(err)
	}
	if inv := syncCat(edge, 4, []proto.CatalogAsset{{Name: "lec-b", Rev: 2}}, nil); len(inv) != 1 || inv[0] != "lec-a" {
		t.Fatalf("invalidated %v, want [lec-a]", inv)
	}

	// Stale catalogs (a lagging replica) must not undo a newer sync.
	if inv := syncCat(edge, 2, []proto.CatalogAsset{{Name: "lec-a", Rev: 1}}, nil); inv != nil {
		t.Fatalf("stale catalog invalidated %v", inv)
	}
	if got := edge.CatalogVersion(); got != 4 {
		t.Fatalf("catalog version = %d, want 4", got)
	}

	// Direct registrations the catalog never tracked are never touched.
	if _, err := edgeSrv.RegisterAsset("local-only", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	syncCat(edge, 5, nil, nil)
	if _, ok := edgeSrv.Asset("local-only"); !ok {
		t.Fatal("direct registration dropped by catalog sync")
	}
}

// TestEdgeSyncCatalogDropsRemovedGroups: when a group definition leaves
// the catalog (or is re-cut), the edge forgets the local group and
// drops its mirrored variants — unless another live entry still wants
// them.
func TestEdgeSyncCatalogDropsRemovedGroups(t *testing.T) {
	origin, originTS, _ := newOriginWithAsset(t, "grp-1-lean")
	data := encodeTestLecture(t, 2*time.Second, false)
	rich, err := origin.RegisterAsset("grp-1-rich", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	lean, _ := origin.Asset("grp-1-lean")
	g, err := origin.CreateRateGroup("grp-1")
	if err != nil {
		t.Fatal(err)
	}
	g.AddVariant(lean)
	g.AddVariant(rich)

	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)

	syncCat(edge, 1, nil, []proto.CatalogGroup{{Name: "grp-1", Variants: []string{"grp-1-lean", "grp-1-rich"}, Rev: 1}})
	if err := edge.MirrorGroup("grp-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := edgeSrv.RateGroup("grp-1"); !ok {
		t.Fatal("group not mirrored")
	}

	// The group leaves the catalog, but grp-1-lean is republished as a
	// standalone asset: the group and the rich variant go, lean stays.
	inv := syncCat(edge, 2, []proto.CatalogAsset{{Name: "grp-1-lean", Rev: 1}}, nil)
	if len(inv) != 1 || inv[0] != "grp-1-rich" {
		t.Fatalf("invalidated %v, want [grp-1-rich]", inv)
	}
	if _, ok := edgeSrv.RateGroup("grp-1"); ok {
		t.Fatal("removed group still mirrored")
	}
	if _, ok := edgeSrv.Asset("grp-1-lean"); !ok {
		t.Fatal("variant still wanted by the catalog was dropped")
	}
	if _, ok := edgeSrv.Asset("grp-1-rich"); ok {
		t.Fatal("orphaned variant still resident")
	}
}

// TestEdgeSyncCatalogDropsGroupOfRepublishedVariant: a variant
// republished under an unchanged group entry loses its mirror, and the
// local group that lists it goes with it — otherwise every demand that
// selects the variant answers 404. The next demand re-mirrors the group.
func TestEdgeSyncCatalogDropsGroupOfRepublishedVariant(t *testing.T) {
	origin, originTS, _ := newOriginWithAsset(t, "grp-1-lean")
	data := encodeTestLecture(t, 2*time.Second, false)
	rich, err := origin.RegisterAsset("grp-1-rich", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	lean, _ := origin.Asset("grp-1-lean")
	g, err := origin.CreateRateGroup("grp-1")
	if err != nil {
		t.Fatal(err)
	}
	g.AddVariant(lean)
	g.AddVariant(rich)
	want, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}

	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(edge.Handler())
	t.Cleanup(edgeTS.Close)
	// The variants' rates tie, so Select takes the last one: grp-1-rich.
	url := edgeTS.URL + "/v1/group/grp-1?bw=5000000"

	group := []proto.CatalogGroup{{Name: "grp-1", Variants: []string{"grp-1-lean", "grp-1-rich"}, Rev: 1}}
	syncCat(edge, 1, []proto.CatalogAsset{{Name: "grp-1-lean", Rev: 1}, {Name: "grp-1-rich", Rev: 1}}, group)
	getBody(t, url, want)

	before := edge.inst.invalidations.Value()
	inv := syncCat(edge, 2, []proto.CatalogAsset{{Name: "grp-1-lean", Rev: 1}, {Name: "grp-1-rich", Rev: 2}}, group)
	if len(inv) != 1 || inv[0] != "grp-1-rich" {
		t.Fatalf("invalidated %v, want [grp-1-rich]", inv)
	}
	getBody(t, url, want)
	getBody(t, url, want)
	if got := edge.inst.invalidations.Value() - before; got != 2 {
		t.Fatalf("invalidations = %d, want 2 (the variant and its group)", got)
	}
}
