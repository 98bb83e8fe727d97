package relay

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/proto"
	"repro/internal/streaming"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

func TestRegistryRegisterValidation(t *testing.T) {
	g := NewRegistry(nil)
	if err := g.Register(NodeInfo{ID: "", URL: "http://a"}); err == nil {
		t.Fatal("empty id accepted")
	}
	for _, bad := range []string{"", "no-scheme", ":8080", "http://"} {
		if err := g.Register(NodeInfo{ID: "n1", URL: bad}); err == nil {
			t.Fatalf("bad URL %q accepted", bad)
		}
	}
	if err := g.Register(NodeInfo{ID: "n1", URL: "http://edge1:8081"}); err != nil {
		t.Fatal(err)
	}
	// Re-registration updates the URL in place.
	if err := g.Register(NodeInfo{ID: "n1", URL: "http://edge1:9999"}); err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	if len(nodes) != 1 || nodes[0].URL != "http://edge1:9999" {
		t.Fatalf("nodes = %+v", nodes)
	}
}

func TestRegistryHeartbeatUnknownNode(t *testing.T) {
	g := NewRegistry(nil)
	if err := g.Heartbeat("ghost", NodeStats{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat unknown = %v", err)
	}
}

func TestRegistryPickLeastLoaded(t *testing.T) {
	g := NewRegistry(nil)
	if _, err := g.PickFor(""); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("pick on empty registry = %v", err)
	}
	for _, n := range []NodeInfo{
		{ID: "a", URL: "http://edge-a"},
		{ID: "b", URL: "http://edge-b"},
	} {
		if err := g.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	// Equal load: ties break on ID, and each pick counts as an
	// assignment, so consecutive picks alternate.
	first, err := g.PickFor("")
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "a" {
		t.Fatalf("first pick = %q, want tie-break on a", first.ID)
	}
	second, err := g.PickFor("")
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "b" {
		t.Fatalf("second pick = %q, want b (a has a pending assignment)", second.ID)
	}

	// A heartbeat resets assignments and reports real load: loaded node b
	// loses to idle node a.
	if err := g.Heartbeat("a", NodeStats{ActiveClients: 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Heartbeat("b", NodeStats{ActiveClients: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := g.PickFor("")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "a" {
		t.Fatalf("pick = %q, want idle node a", got.ID)
	}
}

func TestRegistryCapacityFractionBreaksTies(t *testing.T) {
	g := NewRegistry(nil)
	for _, n := range []NodeInfo{
		{ID: "near-full", URL: "http://edge-a"},
		{ID: "roomy", URL: "http://edge-b"},
	} {
		if err := g.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Heartbeat("near-full", NodeStats{ActiveClients: 1, InFlightBps: 900, CapacityBps: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := g.Heartbeat("roomy", NodeStats{ActiveClients: 1, InFlightBps: 100, CapacityBps: 1000}); err != nil {
		t.Fatal(err)
	}
	got, err := g.PickFor("")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "roomy" {
		t.Fatalf("pick = %q, want the node with admission headroom", got.ID)
	}
}

func TestRegistryPrefersBytesInFlight(t *testing.T) {
	g := NewRegistry(nil)
	for _, n := range []NodeInfo{
		{ID: "busy", URL: "http://edge-a"},
		{ID: "light", URL: "http://edge-b"},
	} {
		if err := g.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	// "busy" serves fewer sessions but far more bandwidth: one rich DSL
	// stream outweighs three modem streams, so bandwidth decides.
	if err := g.Heartbeat("busy", NodeStats{ActiveClients: 1, InFlightBps: 3_000_000}); err != nil {
		t.Fatal(err)
	}
	if err := g.Heartbeat("light", NodeStats{ActiveClients: 3, InFlightBps: 168_000}); err != nil {
		t.Fatal(err)
	}
	got, err := g.PickFor("")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "light" {
		t.Fatalf("pick = %q, want the node with less bandwidth in flight", got.ID)
	}
}

func TestRegistryMetrics(t *testing.T) {
	clk := vclock.NewVirtual()
	g := NewRegistry(clk)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// No live edge: the lost redirect is counted.
	resp, err := http.Get(ts.URL + "/v1/vod/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := g.Register(NodeInfo{ID: "e1", URL: "http://edge-1"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err = noFollow.Get(ts.URL + "/v1/vod/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status := g.Metrics().Status()
	if status["lod_registry_no_edge_total"] != 1 {
		t.Fatalf("no-edge counter = %v", status["lod_registry_no_edge_total"])
	}
	if status["lod_registry_redirects_total"] != 1 {
		t.Fatalf("redirects = %v", status["lod_registry_redirects_total"])
	}
	if status[`lod_registry_node_redirects_total{node="e1"}`] != 1 {
		t.Fatalf("per-node redirects = %v", status)
	}
	if status["lod_registry_nodes_alive"] != 1 {
		t.Fatalf("alive gauge = %v", status["lod_registry_nodes_alive"])
	}
	if got := status[`lod_registry_heartbeat_age_seconds{node="e1"}`]; got != 3 {
		t.Fatalf("heartbeat age = %v, want 3 (virtual seconds)", got)
	}
}

// TestRegistryRegisterScrapeNoDeadlock hammers (re-)registration and
// picks against concurrent metric scrapes. Register must create its
// metric series outside the node lock: scrapes hold the metric
// registry's lock while their gauge functions take the node lock, so
// the reverse order deadlocks (this test then times out).
func TestRegistryRegisterScrapeNoDeadlock(t *testing.T) {
	g := NewRegistry(nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := g.Register(NodeInfo{ID: fmt.Sprintf("n%d", i%8), URL: "http://edge"}); err != nil {
					t.Error(err)
					return
				}
				_, _ = g.PickFor("")
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = g.Metrics().WritePrometheus(io.Discard)
				_ = g.Metrics().Status()
			}
		}()
	}
	wg.Wait()
}

func TestRegistryTTLExpiresSilentNodes(t *testing.T) {
	clk := vclock.NewVirtual()
	g := NewRegistry(clk)
	if err := g.Register(NodeInfo{ID: "a", URL: "http://edge-a"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(DefaultNodeTTL + time.Second)
	if _, err := g.PickFor(""); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("pick after TTL = %v, want ErrNoNodes", err)
	}
	// A heartbeat revives the node.
	if err := g.Heartbeat("a", NodeStats{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.PickFor(""); err != nil {
		t.Fatalf("pick after heartbeat = %v", err)
	}
}

func TestRegistryHTTPRoundTrip(t *testing.T) {
	g := NewRegistry(nil)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Register and heartbeat through the client helpers.
	if err := RegisterWith(context.Background(), nil, ts.URL, NodeInfo{ID: "e1", URL: "http://edge1:8081"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Heartbeat(context.Background(), nil, ts.URL, "e1", NodeStats{ActiveClients: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Heartbeat(context.Background(), nil, ts.URL, "nope", NodeStats{}); err == nil {
		t.Fatal("heartbeat for unregistered node accepted")
	}

	// Node listing reflects the heartbeat.
	resp, err := http.Get(ts.URL + "/v1/registry/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nodes []NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nodes) != 1 || nodes[0].Stats.ActiveClients != 2 || !nodes[0].Alive {
		t.Fatalf("nodes = %+v", nodes)
	}

	// Redirects preserve path and query and do not follow.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err = noFollow.Get(ts.URL + "/v1/vod/lecture1?start=30s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://edge1:8081/v1/vod/lecture1?start=30s" {
		t.Fatalf("Location = %q", loc)
	}

	// Percent-encoded names survive the redirect untouched.
	resp, err = noFollow.Get(ts.URL + "/v1/vod/week%2F1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); loc != "http://edge1:8081/v1/vod/week%2F1" {
		t.Fatalf("escaped Location = %q", loc)
	}

	// GET on the mutation endpoints is rejected.
	for _, path := range []string{proto.PathRegister, proto.PathHeartbeat} {
		resp, err := http.Get(ts.URL + proto.Versioned(path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
	}
}

// TestHeartbeatsSurviveRegistryRestart: an edge whose registry restarts
// (losing its node table) must notice the 404 and re-register, or the
// cluster would route around a healthy edge forever.
func TestHeartbeatsSurviveRegistryRestart(t *testing.T) {
	var cur atomic.Pointer[Registry]
	cur.Store(NewRegistry(nil))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		h := &Heartbeats{Registry: ts.URL, Info: NodeInfo{ID: "e1", URL: "http://edge1:8081"},
			Snapshot: func() NodeStats { return NodeStats{} }, Interval: 2 * time.Millisecond}
		done <- h.Run(ctx)
	}()

	waitRegistered := func(g *Registry) {
		t.Helper()
		testutil.WaitUntil(t, 10*time.Second, func() bool {
			nodes := g.Nodes()
			return len(nodes) == 1 && nodes[0].ID == "e1"
		}, "node never (re)registered")
	}
	waitRegistered(cur.Load())

	// Registry "restart": a fresh instance with an empty node table.
	fresh := NewRegistry(nil)
	cur.Store(fresh)
	waitRegistered(fresh)

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Heartbeats.Run returned %v", err)
	}
}

// TestSnapshotStats reads a node's load off a session its server
// admitted: the bandwidth in flight is the session's declared rate, and
// Load adds its fraction of the capacity admission checks it against.
func TestSnapshotStats(t *testing.T) {
	srv := streaming.NewServer(vclock.NewVirtual()) // pacing parks the session
	srv.CapacityBps = 1_000_000
	data := encodeTestLecture(t, 6*time.Second, false)
	a, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	var rate int64
	for _, st := range a.Header.Streams {
		rate += st.BitsPerSecond
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session status %d", resp.StatusCode)
	}
	st := SnapshotStats(srv)
	if st.ActiveClients != 1 || st.InFlightBps != rate || st.CapacityBps != 1_000_000 {
		t.Fatalf("snapshot = %+v, want one session of %d bits/s against 1000000", st, rate)
	}
	if got, want := st.Load(), float64(rate)/1e6+float64(rate)/1_000_000; got != want {
		t.Fatalf("Load() = %v, want %v", got, want)
	}
	if !strings.Contains(ErrNoNodes.Error(), "relay") {
		t.Fatal("error missing package prefix")
	}
}

// Every control-plane POST reads its JSON body through one bounded
// reader: a body over maxControlBody answers 413 with the proto.Error
// body, on each of the seven endpoints, and changes nothing.
func TestRegistryRefusesOversizeBodies(t *testing.T) {
	g := NewRegistry(nil)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Valid JSON all the way: only its size is wrong.
	body := `{"id":"` + strings.Repeat("x", maxControlBody) + `"}`
	for _, path := range []string{
		proto.PathRegister, proto.PathHeartbeat, proto.PathReportFailure, proto.PathDeregister,
		proto.PathCatalogPublish, proto.PathCatalogUnpublish, proto.PathCatalogRollback,
	} {
		resp, err := http.Post(ts.URL+proto.Versioned(path), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var perr proto.Error
		err = json.NewDecoder(resp.Body).Decode(&perr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d bytes: status %d, want 413", path, len(body), resp.StatusCode)
		}
		if err != nil || perr.Status != http.StatusRequestEntityTooLarge || perr.Message == "" {
			t.Fatalf("POST %s: body %+v (%v), want a proto.Error", path, perr, err)
		}
	}
	if n := len(g.Nodes()); n != 0 {
		t.Fatalf("%d nodes registered by refused requests", n)
	}
}
