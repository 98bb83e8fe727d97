package relay

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testutil"
)

// TestHeartbeatsSurviveRegistryDowntime guards the startup-ordering
// bugfix: an edge whose heartbeat loop starts while the registry is
// down (connection refused) must keep retrying with bounded backoff and
// join once the registry comes up — historically the first registration
// failure was fatal and the edge silently fell out of the cluster
// forever.
func TestHeartbeatsSurviveRegistryDowntime(t *testing.T) {
	g := NewRegistry(nil)
	defer g.Close()
	var up atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			// Sever the connection without an HTTP answer — the closest
			// httptest gets to a dead registry process.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer is not hijackable")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		g.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	hb := &Heartbeats{
		Registry: ts.URL,
		Info:     NodeInfo{ID: "e1", URL: "http://edge1:8081"},
		Snapshot: func() NodeStats { return NodeStats{} },
		Interval: 5 * time.Millisecond,
	}
	go func() { done <- hb.Run(ctx) }()

	// Let the loop hit the dead registry a few times, then revive it.
	time.Sleep(20 * time.Millisecond)
	if n := len(g.Nodes()); n != 0 {
		t.Fatalf("registered %d nodes while registry was down", n)
	}
	up.Store(true)
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return len(g.Nodes()) == 1
	}, "edge never joined after the registry came up")

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestHeartbeatsRejectionIsFatal: a 4xx on registration means the
// registry understood the request and said no — retrying a malformed
// NodeInfo can never succeed, so the loop must return the error instead
// of spinning.
func TestHeartbeatsRejectionIsFatal(t *testing.T) {
	g := NewRegistry(nil)
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	hb := &Heartbeats{
		Registry: ts.URL,
		Info:     NodeInfo{ID: "", URL: "not-a-url"}, // rejected with 400
		Snapshot: func() NodeStats { return NodeStats{} },
		Interval: time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hb.Run(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want the registry's rejection", err)
	}
}

// TestHeartbeatsCancelUnblocksBeat: cancelling the loop's context ends
// an in-flight heartbeat too, so Run returns promptly even while the
// registry sits on the request.
func TestHeartbeatsCancelUnblocksBeat(t *testing.T) {
	g := NewRegistry(nil)
	defer g.Close()
	beating, stop := make(chan struct{}, 1), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != proto.Versioned(proto.PathHeartbeat) {
			g.Handler().ServeHTTP(w, r)
			return
		}
		select {
		case beating <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	defer ts.Close()
	defer close(stop)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	hb := &Heartbeats{
		Registry: ts.URL,
		Info:     NodeInfo{ID: "e1", URL: "http://edge1:8081"},
		Snapshot: func() NodeStats { return NodeStats{} },
		Interval: time.Hour,
	}
	go func() { done <- hb.Run(ctx) }()

	<-beating
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run still blocked in a heartbeat 1s after cancel")
	}
}
