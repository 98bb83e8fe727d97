package streaming

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/testutil"
)

// TestDrainRefusesNewSessionsAndWaits: a draining server answers new
// streaming requests with 503 while letting in-flight sessions finish,
// and Drain returns once the last one has.
func TestDrainRefusesNewSessionsAndWaits(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = true // the session must outlive the drain calls below
	data := encodeTestAsset(t, 2*time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One session in flight, paced over ~2s of presentation, served to
	// the end despite the drain.
	want := storedBody(t, data, 0)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/vod/lec")
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		done <- check.Body(resp.Body, want)
	}()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return srv.Stats().ActiveClients > 0 },
		"session never started")

	// Draining: new sessions are refused on every streaming endpoint.
	srv.SetDraining(true)
	if !srv.Draining() {
		t.Fatal("Draining() = false after SetDraining(true)")
	}
	rejectsBefore := srv.Stats().RejectedJoins
	for _, path := range []string{"/v1/vod/lec", "/v1/live/nope", "/v1/group/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s while draining = %d, want 503", path, resp.StatusCode)
		}
	}
	if got := srv.Stats().RejectedJoins - rejectsBefore; got != 3 {
		t.Fatalf("drain refusals counted = %d, want 3", got)
	}
	// Mirror fetches keep working: draining stops viewers, not the
	// relay tier.
	resp, err := http.Get(ts.URL + "/v1/fetch/lec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fetch while draining = %d, want 200", resp.StatusCode)
	}

	// Drain with the session still running times out and says so.
	shortCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err = srv.Drain(shortCtx)
	cancel()
	if err == nil {
		t.Fatal("Drain returned with a session still active")
	}

	// With a real deadline the session completes and Drain succeeds.
	ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight session broken by drain: %v", err)
	}

	// Un-draining reopens the door.
	srv.SetDraining(false)
	resp, err = http.Get(ts.URL + "/v1/vod/lec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after undrain = %d, want 200", resp.StatusCode)
	}
}
