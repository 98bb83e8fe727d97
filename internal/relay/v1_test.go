package relay

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/streaming"
	"repro/internal/vclock"
)

// TestRoutesMountedOnceUnderV1 walks every route constant in proto over
// the three roles' handlers. Each route is mounted once, under /v1: the
// unversioned path gets the mux's plain 404 on every role (not a
// proto.Error body — no handler ran), the /v1 path of a route the role
// serves reaches its handler and that of one it does not serve is the
// plain 404 too, and the registry's 307 points at the edge's /v1 path.
func TestRoutesMountedOnceUnderV1(t *testing.T) {
	origin, originTS, _ := newOriginWithAsset(t, "lec")
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)
	g := NewRegistry(nil)
	defer g.Close()
	mustRegister(t, g, NodeInfo{ID: "e1", URL: "http://edge1:8081"})

	serverRoutes := []string{
		proto.PrefixVOD, proto.PrefixLive, proto.PrefixGroup, proto.PrefixFetch,
		proto.PrefixPublish, proto.PrefixUnpublish,
		proto.PathAssets, proto.PathChannels, proto.PathGroups,
		proto.PathMetrics, proto.PathStatus,
	}
	registryRoutes := []string{
		proto.PathRegister, proto.PathHeartbeat, proto.PathReportFailure, proto.PathDeregister,
		proto.PathNodes, proto.PathCatalog,
		proto.PathCatalogPublish, proto.PathCatalogUnpublish, proto.PathCatalogRollback,
		proto.PrefixVOD, proto.PrefixLive, proto.PrefixGroup,
		proto.PathMetrics, proto.PathStatus,
	}
	redirects := []string{proto.PrefixVOD, proto.PrefixLive, proto.PrefixGroup}
	var every []string
	for _, route := range append(serverRoutes, registryRoutes...) {
		if !slices.Contains(every, route) {
			every = append(every, route)
		}
	}
	if len(every) != 20 {
		t.Fatalf("%d distinct routes, want proto's 20", len(every))
	}

	const plain404 = "404 page not found\n"
	for _, role := range []struct {
		name   string
		h      http.Handler
		serves []string
	}{
		{"server", origin.Handler(), serverRoutes},
		{"edge", edge.Handler(), serverRoutes},
		{"registry", g.Handler(), registryRoutes},
	} {
		for _, route := range every {
			path := route
			if strings.HasSuffix(route, "/") {
				path += "lec"
			}
			rec := httptest.NewRecorder()
			role.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusNotFound || rec.Body.String() != plain404 {
				t.Errorf("%s: GET %s = %d %q, want the mux's plain 404", role.name, path, rec.Code, rec.Body.String())
			}

			v1 := proto.Versioned(path)
			rec = httptest.NewRecorder()
			role.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, v1, nil))
			reached := rec.Code != http.StatusNotFound || rec.Body.String() != plain404
			if want := slices.Contains(role.serves, route); reached != want {
				t.Errorf("%s: GET %s = %d %q; reached a handler %v, want %v",
					role.name, v1, rec.Code, rec.Body.String(), reached, want)
			}
			if role.name == "registry" && slices.Contains(redirects, route) {
				if loc := rec.Header().Get("Location"); rec.Code != http.StatusTemporaryRedirect || loc != "http://edge1:8081"+v1 {
					t.Errorf("registry: GET %s = %d to %q, want 307 to the edge's %s", v1, rec.Code, loc, v1)
				}
			}
		}
	}
}

// TestRegistryNoEdgeErrorBody: the 503 refusal carries the typed proto
// error body on the redirect path.
func TestRegistryNoEdgeErrorBody(t *testing.T) {
	g := NewRegistry(nil)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/vod/lec")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	perr := proto.ReadError(resp)
	if perr.Status != http.StatusServiceUnavailable || perr.Message == "" {
		t.Fatalf("error body = %+v", perr)
	}
}

// TestRegistryNodesReportHealthAndAge covers the per-node health view:
// alive within TTL, dead past it (or on a failure report), draining
// after a deregistration, with heartbeat ages on the virtual clock.
func TestRegistryNodesReportHealthAndAge(t *testing.T) {
	clk := vclock.NewVirtual()
	g := NewRegistry(clk)
	mustRegister(t, g,
		NodeInfo{ID: "a", URL: "http://edge-a:8081"},
		NodeInfo{ID: "b", URL: "http://edge-b:8081"},
		NodeInfo{ID: "c", URL: "http://edge-c:8081"})

	clk.Advance(3 * time.Second)
	if err := g.Heartbeat("a", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	g.ReportFailure("b")
	g.Deregister("c")

	byID := map[string]NodeStatus{}
	for _, n := range g.Nodes() {
		byID[n.ID] = n
	}
	if n := byID["a"]; n.Health != proto.HealthAlive || !n.Alive || n.HeartbeatAgeSec != 0 {
		t.Fatalf("a = %+v, want alive with a fresh heartbeat", n)
	}
	if n := byID["b"]; n.Health != proto.HealthDead || n.Alive || !n.Dead || n.HeartbeatAgeSec != 3 {
		t.Fatalf("b = %+v, want dead at age 3s", n)
	}
	if n := byID["c"]; n.Health != proto.HealthDraining || n.Alive {
		t.Fatalf("c = %+v, want draining", n)
	}

	// Past the TTL a silent node reads dead even without a report.
	clk.Advance(DefaultNodeTTL + time.Second)
	for _, n := range g.Nodes() {
		if n.ID == "a" && n.Health != proto.HealthDead {
			t.Fatalf("a past TTL = %+v, want dead", n)
		}
	}
}

// TestRegistryPrunesLongGoneNodes: Deregister marks rather than
// deletes, so pruning is the registry's only removal path — dead and
// drained nodes must fall out of the table after the grace window, or
// a long-lived registry fronting edges on ephemeral addresses would
// grow its node table (and every Nodes scan) without bound.
func TestRegistryPrunesLongGoneNodes(t *testing.T) {
	clk := vclock.NewVirtual()
	g := NewRegistry(clk)
	mustRegister(t, g,
		NodeInfo{ID: "stays", URL: "http://edge-a:8081"},
		NodeInfo{ID: "drained", URL: "http://edge-b:8081"},
		NodeInfo{ID: "crashed", URL: "http://edge-c:8081"})
	g.Deregister("drained")
	g.ReportFailure("crashed")

	// Within the grace window everything is still visible.
	clk.Advance(2 * DefaultNodeTTL)
	if err := g.Heartbeat("stays", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Nodes()); got != 3 {
		t.Fatalf("nodes within grace window = %d, want 3", got)
	}

	// Past pruneAfterTTLs of silence the corpse and the drained node
	// fall out (unseen since t=0, now 5 TTLs ago); the node that kept
	// heartbeating survives — its silence is only 3 TTLs.
	clk.Advance(3*DefaultNodeTTL + time.Second)
	if err := g.Heartbeat("stays", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	if len(nodes) != 1 || nodes[0].ID != "stays" {
		t.Fatalf("nodes after prune = %+v, want only the live one", nodes)
	}
	// A pruned node is unknown again: its next heartbeat 404s and the
	// Heartbeats.Run loop re-registers, exactly like after a registry
	// restart.
	if err := g.Heartbeat("crashed", NodeStats{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat for pruned node = %v, want ErrUnknownNode", err)
	}
	mustRegister(t, g, NodeInfo{ID: "crashed", URL: "http://edge-c:8081"})
	if got := len(g.Nodes()); got != 2 {
		t.Fatalf("nodes after rejoin = %d, want 2", got)
	}
}
