package relay

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/vclock"
)

// TestRegistryServesBothAPIVersions pins the /v1 rollout rule: every
// registry route answers under the /v1 prefix and its legacy alias,
// and redirects preserve whichever form the client spoke — a /v1
// client lands on the edge's /v1 path, a legacy client on the legacy
// path.
func TestRegistryServesBothAPIVersions(t *testing.T) {
	g := NewRegistry(nil)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	mustRegister(t, g, NodeInfo{ID: "e1", URL: "http://edge1:8081"})

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, tc := range []struct{ path, wantLoc string }{
		{"/v1/vod/lec?start=2s", "http://edge1:8081/v1/vod/lec?start=2s"},
		{"/vod/lec?start=2s", "http://edge1:8081/vod/lec?start=2s"},
		{"/v1/live/class", "http://edge1:8081/v1/live/class"},
		{"/v1/group/g", "http://edge1:8081/v1/group/g"},
		{"/v1/vod/week%2F1", "http://edge1:8081/v1/vod/week%2F1"},
	} {
		resp, err := noFollow.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("GET %s status = %d, want 307", tc.path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != tc.wantLoc {
			t.Fatalf("GET %s Location = %q, want %q", tc.path, loc, tc.wantLoc)
		}
	}

	// The node listing answers on both forms with identical content.
	for _, path := range []string{proto.PathNodes, proto.Versioned(proto.PathNodes)} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []NodeStatus
		if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if len(nodes) != 1 || nodes[0].ID != "e1" || nodes[0].Health != proto.HealthAlive {
			t.Fatalf("GET %s nodes = %+v", path, nodes)
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
