package relay

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/proto"
	"repro/internal/relay/membership"
	"repro/internal/vclock"
)

// openStore opens a catalog store rooted in dir, failing the test on error.
func openStore(t *testing.T, dir string) *catalog.Store {
	t.Helper()
	st, err := catalog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRegistryRestoresNodesFromSnapshot: a restarted registry must serve
// redirects from its persisted node table before any edge re-heartbeats
// — that window is exactly what the durable control plane buys.
func TestRegistryRestoresNodesFromSnapshot(t *testing.T) {
	dir := t.TempDir()

	g1 := NewRegistryWithStore(nil, openStore(t, dir))
	if err := g1.Register(NodeInfo{ID: "e1", URL: "http://edge1:8081"}); err != nil {
		t.Fatal(err)
	}
	if err := g1.Register(NodeInfo{ID: "e2", URL: "http://edge2:8081"}); err != nil {
		t.Fatal(err)
	}
	g1.Close()

	g2 := NewRegistryWithStore(nil, openStore(t, dir))
	defer g2.Close()
	if got := len(g2.Nodes()); got != 2 {
		t.Fatalf("restored %d nodes, want 2", got)
	}

	// Redirects flow before any heartbeat, and each one is counted as
	// served on snapshot faith.
	if _, err := g2.PickFor("/vod/lec-1"); err != nil {
		t.Fatalf("pick from restored registry: %v", err)
	}
	snap := g2.Metrics().Snapshot()
	if got := snap.Get("lod_registry_snapshot_redirects_total"); got != 1 {
		t.Fatalf("snapshot redirects = %v, want 1", got)
	}

	// Once a node heartbeats it has spoken for itself: picks landing on
	// it stop counting as snapshot-served.
	for _, id := range []string{"e1", "e2"} {
		if err := g2.Heartbeat(id, NodeStats{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := g2.PickFor("/vod/lec-1"); err != nil {
			t.Fatal(err)
		}
	}
	snap = g2.Metrics().Snapshot()
	if got := snap.Get("lod_registry_snapshot_redirects_total"); got != 1 {
		t.Fatalf("snapshot redirects after heartbeats = %v, want still 1", got)
	}
}

// TestRegistryRestoredDrainingStaysDraining: a drain is the node's own
// deliberate exit; neither a registry restart nor a stray heartbeat may
// put the node back into rotation — only an explicit re-registration.
func TestRegistryRestoredDrainingStaysDraining(t *testing.T) {
	dir := t.TempDir()

	g1 := NewRegistryWithStore(nil, openStore(t, dir))
	if err := g1.Register(NodeInfo{ID: "e1", URL: "http://edge1:8081"}); err != nil {
		t.Fatal(err)
	}
	if !g1.Deregister("e1") {
		t.Fatal("deregister reported no-op")
	}
	g1.Close()

	g2 := NewRegistryWithStore(nil, openStore(t, dir))
	defer g2.Close()
	nodes := g2.Nodes()
	if len(nodes) != 1 || nodes[0].Health != proto.HealthDraining {
		t.Fatalf("restored nodes = %+v, want e1 draining", nodes)
	}
	if _, err := g2.PickFor(""); err == nil {
		t.Fatal("restored draining node was picked")
	}
	// A heartbeat racing the restart must not undo the drain either.
	if err := g2.Heartbeat("e1", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.PickFor(""); err == nil {
		t.Fatal("draining node picked after heartbeat")
	}
	// Re-registration is the deliberate comeback.
	if err := g2.Register(NodeInfo{ID: "e1", URL: "http://edge1:8081"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.PickFor(""); err != nil {
		t.Fatalf("pick after re-registration: %v", err)
	}
}

// TestRegistryPruneRemovesFromStore: a node unseen for four TTLs falls
// out of the live table AND the durable record — otherwise a restart
// would resurrect corpses the running registry already forgot.
func TestRegistryPruneRemovesFromStore(t *testing.T) {
	dir := t.TempDir()
	clk := vclock.NewVirtual()

	g1 := NewRegistryWithStore(clk, openStore(t, dir))
	if err := g1.Register(NodeInfo{ID: "stale", URL: "http://stale:8081"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Duration(membership.PruneAfterTTLs)*DefaultNodeTTL + time.Second)
	// Registering a fresh node triggers the prune sweep.
	if err := g1.Register(NodeInfo{ID: "fresh", URL: "http://fresh:8081"}); err != nil {
		t.Fatal(err)
	}
	if nodes := g1.Nodes(); len(nodes) != 1 || nodes[0].ID != "fresh" {
		t.Fatalf("nodes after prune = %+v, want only fresh", nodes)
	}
	g1.Close()

	g2 := NewRegistryWithStore(clk, openStore(t, dir))
	defer g2.Close()
	if nodes := g2.Nodes(); len(nodes) != 1 || nodes[0].ID != "fresh" {
		t.Fatalf("restored nodes = %+v, want only fresh (stale pruned from store)", nodes)
	}
}

// TestRegistryReadsNeverWrite: the listing, its route and a metrics
// scrape leave a node past the prune cut out of view but write nothing
// to the store — a scrape must never wait on a disk write. The next
// heartbeat prunes it, table and store.
func TestRegistryReadsNeverWrite(t *testing.T) {
	clk := vclock.NewVirtual()
	g := NewRegistryWithStore(clk, openStore(t, t.TempDir()))
	defer g.Close()
	mustRegister(t, g, NodeInfo{ID: "stale", URL: "http://stale:8081"}, NodeInfo{ID: "live", URL: "http://live:8081"})
	clk.Advance(time.Duration(membership.PruneAfterTTLs-1) * DefaultNodeTTL)
	if err := g.Heartbeat("live", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(DefaultNodeTTL + time.Second) // stale is now past the prune cut
	ver := g.CatalogVersion()

	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + proto.Versioned(proto.PathNodes))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	status := g.Metrics().Status()
	if got := status[`lod_registry_heartbeat_age_seconds{node="stale"}`]; got != -1 {
		t.Fatalf("age gauge of a node past the prune cut = %v, want -1", got)
	}
	if nodes := g.Nodes(); len(nodes) != 1 || nodes[0].ID != "live" {
		t.Fatalf("nodes = %+v, want only live: stale is past the prune cut", nodes)
	}
	if got := g.CatalogVersion(); got != ver {
		t.Fatalf("reads moved the store from version %d to %d", ver, got)
	}

	if err := g.Heartbeat("live", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	if g.CatalogVersion() == ver {
		t.Fatal("the heartbeat after the prune cut wrote no prune to the store")
	}
}

// TestRegistryCatalogHTTPRoundTrip drives the catalog over the wire:
// publish, list, version header movement, unpublish, and the 404 for
// content the catalog never knew.
func TestRegistryCatalogHTTPRoundTrip(t *testing.T) {
	g := NewRegistry(nil)
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	v1, err := PublishCatalog(context.Background(), nil, ts.URL, proto.PublishMsg{Asset: &proto.CatalogAsset{Name: "lec-1"}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := PublishCatalog(context.Background(), nil, ts.URL, proto.PublishMsg{
		Group: &proto.CatalogGroup{Name: "grp-1", Variants: []string{"grp-1-lean", "grp-1-rich"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("catalog version did not advance: %d then %d", v1, v2)
	}

	cat, err := GetCatalog(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Version != v2 || len(cat.Assets) != 1 || len(cat.Groups) != 1 {
		t.Fatalf("catalog = %+v", cat)
	}
	if cat.Assets[0].Name != "lec-1" || cat.Assets[0].Rev != v1 {
		t.Fatalf("asset entry = %+v, want lec-1 rev %d", cat.Assets[0], v1)
	}

	// Every heartbeat answer carries the current catalog version — the
	// change-propagation signal edges key their re-fetch on.
	if err := RegisterWith(context.Background(), nil, ts.URL, NodeInfo{ID: "e1", URL: "http://edge1:8081"}); err != nil {
		t.Fatal(err)
	}
	ver, err := Heartbeat(context.Background(), nil, ts.URL, "e1", NodeStats{})
	if err != nil {
		t.Fatal(err)
	}
	// Registration persisted a node record, so the version kept moving;
	// it can only be at or past the last publish.
	if ver < v2 {
		t.Fatalf("heartbeat catalog version = %d, want >= %d", ver, v2)
	}

	if _, err := UnpublishCatalog(context.Background(), nil, ts.URL, proto.UnpublishMsg{Asset: "lec-1"}); err != nil {
		t.Fatal(err)
	}
	cat, err = GetCatalog(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Assets) != 0 {
		t.Fatalf("assets after unpublish = %+v", cat.Assets)
	}
	// Unknown names answer 404 — and recognizably so, since unpublish
	// tooling treats "already gone" as skippable (IsNotFound).
	if _, err := UnpublishCatalog(context.Background(), nil, ts.URL, proto.UnpublishMsg{Asset: "never-there"}); err == nil {
		t.Fatal("unpublishing unknown asset succeeded")
	} else if !IsNotFound(err) {
		t.Fatalf("unknown unpublish = %v, want a recognizable 404", err)
	} else if msg := err.Error(); !strings.Contains(msg, ts.URL) || !strings.Contains(msg, "status 404") {
		t.Fatalf("unknown unpublish = %q, want it to name the URL and the status", msg)
	}
}

// TestRegistryListingsServeCachedBytes: the catalog listing is served
// from the bytes the store persisted — zero marshal work per request.
func TestRegistryListingsServeCachedBytes(t *testing.T) {
	g := NewRegistry(nil)
	defer g.Close()
	if _, err := g.PublishAsset("lec-1"); err != nil {
		t.Fatal(err)
	}
	g.CatalogJSON()
	if avg := testing.AllocsPerRun(100, func() { g.CatalogJSON() }); avg != 0 {
		t.Fatalf("CatalogJSON allocs/request = %v, want 0", avg)
	}
}

// BenchmarkRegistryCatalogJSON measures the persisted-bytes catalog
// listing; the regression bound is 0 allocs/op.
func BenchmarkRegistryCatalogJSON(b *testing.B) {
	g := NewRegistry(nil)
	defer g.Close()
	for i := 0; i < 32; i++ {
		if _, err := g.PublishAsset(string(rune('a' + i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CatalogJSON()
	}
}

// TestRegistryCatalogRollbackHTTP exercises the rollback endpoint end
// to end: publish, mutate, roll back to the earlier snapshot, and
// confirm the content is restored under a strictly higher catalog
// version. Unknown snapshot versions answer a recognizable 404.
func TestRegistryCatalogRollbackHTTP(t *testing.T) {
	dir := t.TempDir()
	g := NewRegistryWithStore(nil, openStore(t, dir))
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	v1, err := PublishCatalog(context.Background(), nil, ts.URL, proto.PublishMsg{Asset: &proto.CatalogAsset{Name: "lec-1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnpublishCatalog(context.Background(), nil, ts.URL, proto.UnpublishMsg{Asset: "lec-1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := PublishCatalog(context.Background(), nil, ts.URL, proto.PublishMsg{Asset: &proto.CatalogAsset{Name: "lec-2"}}); err != nil {
		t.Fatal(err)
	}

	ver, err := RollbackCatalog(context.Background(), nil, ts.URL, v1)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := GetCatalog(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Version != ver || ver <= v1 {
		t.Fatalf("post-rollback version = %d (catalog %d), want > %d", ver, cat.Version, v1)
	}
	if len(cat.Assets) != 1 || cat.Assets[0].Name != "lec-1" {
		t.Fatalf("post-rollback assets = %+v, want only lec-1", cat.Assets)
	}

	if _, err := RollbackCatalog(context.Background(), nil, ts.URL, 9999); err == nil {
		t.Fatal("rollback to unknown version succeeded")
	} else if !IsNotFound(err) {
		t.Fatalf("unknown-version rollback = %v, want a recognizable 404", err)
	}
}
