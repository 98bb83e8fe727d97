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
	"repro/internal/vclock"
)

// TestVODClientDisconnectMidStream verifies that a client cancelling its
// request mid-stream releases the server session cleanly: ActiveClients
// returns to zero and partial-send statistics are recorded.
func TestVODClientDisconnectMidStream(t *testing.T) {
	clk := vclock.NewVirtual()
	srv := NewServer(clk) // pacing on a virtual clock: packets block
	data := encodeTestAsset(t, 5*time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/vod/lec", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the header, then hang up. The server is parked on its pacing
	// wheel for the next paced packet; cancellation must unblock it.
	r := asf.NewReader(resp.Body)
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	testutil.WaitUntil(t, 5*time.Second, func() bool { return srv.Stats().ActiveClients == 0 },
		"ActiveClients never returned to 0 after disconnect")
}

// TestLiveSubscriberDisconnectDuringBroadcast verifies a live client
// leaving mid-broadcast is detached without affecting other clients.
func TestLiveSubscriberDisconnectDuringBroadcast(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("c", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/live/c", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() == 1 },
		"subscriber never attached")
	cancel()
	resp.Body.Close()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() == 0 },
		"subscriber not detached after disconnect")
	// Publishing still works for a fresh client.
	sub, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := ch.Publish(videoPacket(0, true, 8)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.C:
	case <-time.After(5 * time.Second):
		t.Fatal("fresh subscriber missed the packet")
	}
}

// TestRegisterAssetCorruptStream verifies corrupt input is rejected at
// registration, not at serve time.
func TestRegisterAssetCorruptStream(t *testing.T) {
	srv := NewServer(nil)
	data := encodeTestAsset(t, time.Second)
	data[len(data)/2] ^= 0xFF
	if _, err := srv.RegisterAsset("bad", asf.NewReader(bytes.NewReader(data))); err == nil {
		// Flipping one byte might hit padding inside a payload... but the
		// CRC covers every payload byte, so any payload flip must surface.
		// Header/index flips surface as parse errors. Either way err != nil
		// unless the flip landed in truly dead space, which this format
		// does not have.
		t.Fatal("corrupt asset registered successfully")
	}
}

// TestVODUnpacedIgnoresVirtualClock covers the Pacing=false path with a
// virtual clock: the stream completes without anyone advancing time.
func TestVODUnpacedIgnoresVirtualClock(t *testing.T) {
	clk := vclock.NewVirtual()
	srv := NewServer(clk)
	srv.Pacing = false
	data := encodeTestAsset(t, 2*time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := check.Body(resp.Body, storedBody(t, data, 0)); err != nil {
		t.Fatal(err)
	}
}
