package relay

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
	if _, err := origin.CreateRateGroup("grp-1", lean, rich); err != nil {
		t.Fatal(err)
	}

	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)

	syncCat(edge, 1, nil, []proto.CatalogGroup{{Name: "grp-1", Variants: []string{"grp-1-lean", "grp-1-rich"}, Rev: 1}})
	if err := edge.mirrorGroup(context.Background(), "grp-1"); err != nil {
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
	if _, err := origin.CreateRateGroup("grp-1", lean, rich); err != nil {
		t.Fatal(err)
	}
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

// gateFetch wraps an origin handler so its first /v1/fetch/ response
// stops at its first write — after the origin has looked the asset up —
// closing reached and waiting until release is closed.
func gateFetch(h http.Handler) (gated http.Handler, reached, release chan struct{}) {
	reached, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, proto.Versioned(proto.PrefixFetch)) {
			w = gatedWriter{w, &once, reached, release}
		}
		h.ServeHTTP(w, r)
	}), reached, release
}

type gatedWriter struct {
	http.ResponseWriter
	once             *sync.Once
	reached, release chan struct{}
}

func (g gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.reached); <-g.release })
	return g.ResponseWriter.Write(p)
}

// pullAcross runs pull on an edge over origin that has synced initial,
// holding the origin's first /v1/fetch/ answer at its first write while
// change alters the origin and returns the catalog the edge then syncs.
// Once the pull lands the edge syncs that catalog again under the next
// version, as its next heartbeat would.
func pullAcross(t *testing.T, origin *streaming.Server, initial proto.Catalog,
	pull func(*Edge) error, change func() proto.Catalog) (*Edge, *httptest.Server) {
	t.Helper()
	gated, reached, release := gateFetch(origin.Handler())
	originTS := httptest.NewServer(gated)
	t.Cleanup(originTS.Close)
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(edge.Handler())
	t.Cleanup(edgeTS.Close)

	edge.SyncCatalog(initial)
	pulled := make(chan error, 1)
	go func() { pulled <- pull(edge) }()
	<-reached
	next := change()
	edge.SyncCatalog(next)
	close(release)
	if err := <-pulled; err != nil {
		t.Fatal(err)
	}
	next.Version++
	edge.SyncCatalog(next)
	return edge, edgeTS
}

func mirrorLec(e *Edge) error { return e.MirrorAsset("lec") }

// TestEdgePullAcrossRepublish: lec is republished while the edge's pull
// of the old bytes is in flight, and the edge syncs the new Rev before
// the pull lands. The landed copy is of a revision the edge has synced
// past, so it must not be served: the edge serves the new container.
func TestEdgePullAcrossRepublish(t *testing.T) {
	origin, _, _ := newOriginWithAsset(t, "lec")
	data := encodeTestLecture(t, 2*time.Second, false)
	want, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	initial := proto.Catalog{Version: 1, Assets: []proto.CatalogAsset{{Name: "lec", Rev: 1}}}
	_, edgeTS := pullAcross(t, origin, initial, mirrorLec, func() proto.Catalog {
		origin.RemoveAsset("lec")
		if _, err := origin.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
			t.Error(err)
		}
		return proto.Catalog{Version: 2, Assets: []proto.CatalogAsset{{Name: "lec", Rev: 2}}}
	})
	getBody(t, edgeTS.URL+"/v1/vod/lec", want)
}

// TestEdgePullAcrossUnpublish: lec is unpublished while the edge's pull
// is in flight, and the edge syncs a catalog without it before the pull
// lands. The edge must not keep the landed copy.
func TestEdgePullAcrossUnpublish(t *testing.T) {
	origin, _, _ := newOriginWithAsset(t, "lec")
	initial := proto.Catalog{Version: 1, Assets: []proto.CatalogAsset{{Name: "lec", Rev: 1}}}
	edge, _ := pullAcross(t, origin, initial, mirrorLec, func() proto.Catalog {
		origin.RemoveAsset("lec")
		return proto.Catalog{Version: 2}
	})
	if _, ok := edge.Server.Asset("lec"); ok {
		t.Fatal("edge still holds an asset the catalog unpublished")
	}
}

// TestEdgePullAcrossFirstListing: lec is announced in the catalog while
// the edge pulls it — the origin has the bytes before the registry lists
// them. A sync drops only what its last catalog listed, so the landed
// copy stays, whichever of the sync and the landing comes first.
func TestEdgePullAcrossFirstListing(t *testing.T) {
	origin, _, _ := newOriginWithAsset(t, "lec")
	edge, _ := pullAcross(t, origin, proto.Catalog{Version: 1}, mirrorLec, func() proto.Catalog {
		return proto.Catalog{Version: 2, Assets: []proto.CatalogAsset{{Name: "lec", Rev: 2}}}
	})
	if _, ok := edge.Server.Asset("lec"); !ok {
		t.Fatal("edge dropped a pull of a name its catalog had not listed yet")
	}
}

// TestEdgeGroupPullAcrossRecut: grp-1 is re-cut in the catalog while the
// edge mirrors its variants. The group the pull registers has the
// variant list of a revision the edge has synced past, so it must go;
// the next demand mirrors the group afresh.
func TestEdgeGroupPullAcrossRecut(t *testing.T) {
	origin, _, _ := newOriginWithAsset(t, "grp-1-lean")
	rich, err := origin.RegisterAsset("grp-1-rich", asf.NewReader(bytes.NewReader(encodeTestLecture(t, 2*time.Second, false))))
	if err != nil {
		t.Fatal(err)
	}
	lean, _ := origin.Asset("grp-1-lean")
	if _, err := origin.CreateRateGroup("grp-1", lean, rich); err != nil {
		t.Fatal(err)
	}
	assets := []proto.CatalogAsset{{Name: "grp-1-lean", Rev: 1}, {Name: "grp-1-rich", Rev: 1}}
	initial := proto.Catalog{Version: 1, Assets: assets,
		Groups: []proto.CatalogGroup{{Name: "grp-1", Variants: []string{"grp-1-lean", "grp-1-rich"}, Rev: 1}}}
	edge, _ := pullAcross(t, origin, initial, func(e *Edge) error { return e.mirrorGroup(context.Background(), "grp-1") }, func() proto.Catalog {
		return proto.Catalog{Version: 2, Assets: assets,
			Groups: []proto.CatalogGroup{{Name: "grp-1", Variants: []string{"grp-1-lean"}, Rev: 2}}}
	})
	if _, ok := edge.Server.RateGroup("grp-1"); ok {
		t.Fatal("edge still holds a group mirrored from a catalog entry it synced past")
	}
}

// TestEdgeGroupPullAcrossVariantRepublish: both variants of grp-1 are
// republished while the edge mirrors the group. The variant whose pull
// landed old bytes is dropped, so the group pull must not register the
// group without it: the next demand mirrors the whole group, every
// variant at its new bytes.
func TestEdgeGroupPullAcrossVariantRepublish(t *testing.T) {
	origin, _, _ := newOriginWithAsset(t, "grp-1-lean")
	rich, err := origin.RegisterAsset("grp-1-rich", asf.NewReader(bytes.NewReader(encodeTestLecture(t, 2*time.Second, false))))
	if err != nil {
		t.Fatal(err)
	}
	lean, _ := origin.Asset("grp-1-lean")
	if _, err := origin.CreateRateGroup("grp-1", lean, rich); err != nil {
		t.Fatal(err)
	}
	fresh := map[string][]byte{
		"grp-1-lean": encodeTestLecture(t, 3*time.Second, false),
		"grp-1-rich": encodeTestLecture(t, 4*time.Second, false),
	}
	group := []proto.CatalogGroup{{Name: "grp-1", Variants: []string{"grp-1-lean", "grp-1-rich"}, Rev: 1}}
	initial := proto.Catalog{Version: 1, Groups: group,
		Assets: []proto.CatalogAsset{{Name: "grp-1-lean", Rev: 1}, {Name: "grp-1-rich", Rev: 1}}}
	edge, edgeTS := pullAcross(t, origin, initial, func(e *Edge) error {
		_ = e.mirrorGroup(context.Background(), "grp-1") // fails when a variant's pull is dropped
		return nil
	}, func() proto.Catalog {
		for name, data := range fresh {
			origin.RemoveAsset(name)
			if _, err := origin.RegisterAsset(name, asf.NewReader(bytes.NewReader(data))); err != nil {
				t.Error(err)
			}
		}
		return proto.Catalog{Version: 2, Groups: group,
			Assets: []proto.CatalogAsset{{Name: "grp-1-lean", Rev: 2}, {Name: "grp-1-rich", Rev: 2}}}
	})
	if err := edge.mirrorGroup(context.Background(), "grp-1"); err != nil {
		t.Fatal(err)
	}
	mirrored, ok := edge.Server.RateGroup("grp-1")
	if !ok {
		t.Fatal("group not mirrored")
	}
	if got := len(mirrored.Variants()); got != 2 {
		t.Fatalf("mirrored group has %d variants, want 2", got)
	}
	for name, data := range fresh {
		want, err := check.StoredBody(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		getBody(t, edgeTS.URL+"/v1/vod/"+name, want)
	}
}
