package relay

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testutil"
)

func mustRegister(t *testing.T, g *Registry, nodes ...NodeInfo) {
	t.Helper()
	for _, n := range nodes {
		if err := g.Register(n); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryReportFailureKillsNodeImmediately(t *testing.T) {
	g := NewRegistry(nil)
	mustRegister(t, g,
		NodeInfo{ID: "a", URL: "http://edge-a:8081"},
		NodeInfo{ID: "b", URL: "http://edge-b:8081"})

	// Reported by URL host — the only name a redirected client holds.
	if !g.ReportFailure("edge-a:8081") {
		t.Fatal("live node not killed by report")
	}
	if g.ReportFailure("edge-a:8081") {
		t.Fatal("second report of the same corpse claims a fresh kill")
	}
	if g.ReportFailure("ghost") {
		t.Fatal("unknown node reported killed")
	}
	for i := 0; i < 4; i++ {
		n, err := g.PickFor("")
		if err != nil {
			t.Fatal(err)
		}
		if n.ID == "a" {
			t.Fatal("Pick returned a node reported dead")
		}
	}
	for _, n := range g.Nodes() {
		if n.ID == "a" && (n.Alive || !n.Dead) {
			t.Fatalf("reported node status = %+v, want dead", n)
		}
	}

	// A heartbeat revives it: the node is demonstrably back.
	if err := g.Heartbeat("a", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	if err := g.Heartbeat("b", NodeStats{ActiveClients: 50}); err != nil {
		t.Fatal(err)
	}
	n, err := g.PickFor("")
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != "a" {
		t.Fatalf("revived idle node not picked, got %s", n.ID)
	}
}

func TestRegistryDeregisterMarksNodeDraining(t *testing.T) {
	g := NewRegistry(nil)
	mustRegister(t, g, NodeInfo{ID: "a", URL: "http://edge-a:8081"})
	if !g.Deregister("a") {
		t.Fatal("known node not deregistered")
	}
	if g.Deregister("a") {
		t.Fatal("second deregister reported a state change")
	}
	if _, err := g.PickFor(""); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("pick after deregister = %v, want ErrNoNodes", err)
	}
	// The node stays listed so operators can watch the shutdown, with
	// health "draining" and no redirect eligibility.
	nodes := g.Nodes()
	if len(nodes) != 1 || nodes[0].Health != proto.HealthDraining || nodes[0].Alive {
		t.Fatalf("nodes after deregister = %+v, want one draining entry", nodes)
	}
	// A stray heartbeat racing the shutdown must not resurrect it...
	if err := g.Heartbeat("a", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.PickFor(""); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("pick after draining heartbeat = %v, want ErrNoNodes", err)
	}
	// ...but an explicit re-registration (a restarted node) brings it back.
	mustRegister(t, g, NodeInfo{ID: "a", URL: "http://edge-a:8081"})
	if n, err := g.PickFor(""); err != nil || n.ID != "a" {
		t.Fatalf("pick after re-register = %v, %v", n, err)
	}
	if got := g.Nodes()[0].Health; got != proto.HealthAlive {
		t.Fatalf("health after re-register = %q", got)
	}
	// Deregister of an unknown node is a quiet no-op.
	if g.Deregister("ghost") {
		t.Fatal("unknown node deregistered")
	}
}

func TestRegistryPickHonorsExcludes(t *testing.T) {
	g := NewRegistry(nil)
	mustRegister(t, g,
		NodeInfo{ID: "a", URL: "http://edge-a:8081"},
		NodeInfo{ID: "b", URL: "http://edge-b:8081"})
	// Make a strictly the better node; excluding it must still pick b.
	if err := g.Heartbeat("b", NodeStats{ActiveClients: 9}); err != nil {
		t.Fatal(err)
	}
	n, err := g.PickFor("", "edge-a:8081")
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != "b" {
		t.Fatalf("pick with exclude = %s, want b", n.ID)
	}
	// Excluding by node ID works too.
	if n, err = g.PickFor("", "a"); err != nil || n.ID != "b" {
		t.Fatalf("pick excluding by ID = %v %v", n, err)
	}
	// Everything excluded: no nodes, the client's cue to reset.
	if _, err := g.PickFor("", "a", "b"); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("pick with all excluded = %v, want ErrNoNodes", err)
	}
}

func TestRegistryHTTPFailureFeedback(t *testing.T) {
	g := NewRegistry(nil)
	mustRegister(t, g,
		NodeInfo{ID: "a", URL: "http://edge-a:8081"},
		NodeInfo{ID: "b", URL: "http://edge-b:8081"})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// The exclude header steers the redirect away from the named host.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/vod/lec", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(proto.ExcludeHeader, "edge-a:8081")
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.Contains(loc, "edge-b") {
		t.Fatalf("redirect with exclude landed on %q", loc)
	}

	// A posted failure report kills the node for subsequent redirects.
	resp, err = http.Post(ts.URL+proto.Versioned(proto.PathReportFailure), "application/json",
		strings.NewReader(`{"node":"edge-b:8081"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp.StatusCode)
	}
	resp, err = noFollow.Do(req) // still excluding a, and b is now dead
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after killing the last candidate = %d, want 503", resp.StatusCode)
	}

	// Deregister drains the other node: nothing remains.
	if err := Deregister(context.Background(), nil, ts.URL, "a"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/vod/lec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after drain = %d, want 503", resp.StatusCode)
	}

	// Malformed reports are rejected.
	for _, body := range []string{`{"node":""}`, `{`} {
		resp, err := http.Post(ts.URL+"/v1/registry/report-failure", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("report %q status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRejoinAfterRegistryRestartHeartbeatsImmediately guards the churn
// bugfix: when a registry restart forces an edge to re-register, the
// edge must post its stats right away instead of leaving the registry
// to score it idle until the next tick — the join pile-on the immediate
// first heartbeat exists to prevent.
func TestRejoinAfterRegistryRestartHeartbeatsImmediately(t *testing.T) {
	const interval = 400 * time.Millisecond
	var cur atomic.Pointer[Registry]
	cur.Store(NewRegistry(nil))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		h := &Heartbeats{Registry: ts.URL, Info: NodeInfo{ID: "e1", URL: "http://edge1:8081"},
			Snapshot: func() NodeStats { return NodeStats{ActiveClients: 7} }, Interval: interval}
		_ = h.Run(ctx)
	}()

	waitStats := func(g *Registry, timeout time.Duration) time.Duration {
		t.Helper()
		t0 := time.Now()
		testutil.WaitUntil(t, timeout, func() bool {
			nodes := g.Nodes()
			return len(nodes) == 1 && nodes[0].Stats.ActiveClients == 7
		}, "node never reported stats")
		return time.Since(t0)
	}
	waitStats(cur.Load(), 5*time.Second)

	// Registry "restart": fresh instance, empty node table. The edge's
	// next heartbeat 404s, it re-registers, and — the fix — posts stats
	// in the same breath rather than one full interval later.
	fresh := NewRegistry(nil)
	cur.Store(fresh)
	testutil.WaitUntil(t, 5*time.Second, func() bool { return len(fresh.Nodes()) == 1 },
		"node never re-registered")
	if lag := waitStats(fresh, interval); lag > interval/2 {
		t.Fatalf("stats arrived %v after rejoin; an immediate heartbeat should beat %v", lag, interval/2)
	}
}

// TestDeregisterHonorsContext: a registry that accepts the connection
// and never answers must not hold up a draining edge past its context —
// lodserver's SIGTERM path deregisters before it drains.
func TestDeregisterHonorsContext(t *testing.T) {
	stop := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	defer ts.Close()
	defer close(stop)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := Deregister(ctx, nil, ts.URL, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Deregister against a silent registry = %v, want the context's deadline", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Deregister took %v with a 100ms context", took)
	}
}
