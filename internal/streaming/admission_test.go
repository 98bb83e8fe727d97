package streaming

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// TestVODAdmissionControl verifies the paper-style call admission: with
// capacity for two modem sessions, the third concurrent VOD request gets
// 503 and no session leaks its booked bandwidth.
func TestVODAdmissionControl(t *testing.T) {
	clk := vclock.NewVirtual() // pacing stalls sessions so they stay active
	srv := NewServer(clk)
	data := encodeTestAsset(t, 5*time.Second)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	rate := headerRate(asset.Header)
	srv.CapacityBps = 2 * rate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two sessions admitted and parked on the paced clock.
	var resps []*http.Response
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec")
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
		r := asf.NewReader(resp.Body)
		if _, err := r.ReadHeader(); err != nil {
			t.Fatalf("session %d header: %v", i, err)
		}
	}
	// Wait until both sessions are booked.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return srv.Stats().ActiveClients >= 2 },
		"both admitted sessions were never booked")
	// Third is refused.
	resp3, err := ts.Client().Get(ts.URL + "/v1/vod/lec")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third session status %d, want 503", resp3.StatusCode)
	}
	if srv.Stats().RejectedJoins != 1 {
		t.Fatalf("rejected joins = %d", srv.Stats().RejectedJoins)
	}
	// Hang up the admitted sessions; their bandwidth is given back.
	for _, resp := range resps {
		resp.Body.Close()
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool { return srv.Stats().InFlightBps == 0 },
		"bandwidth leaked after sessions hung up")
}

// TestLiveAdmissionControl mirrors the check for live channels.
func TestLiveAdmissionControl(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("c", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.CapacityBps = headerRate(ch.Header()) // room for one
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := ts.Client().Get(ts.URL + "/v1/live/c")
		if err != nil {
			t.Errorf("first join: %v", err)
			return
		}
		defer resp.Body.Close()
		r := asf.NewReader(resp.Body)
		if _, err := r.ReadHeader(); err != nil {
			t.Errorf("live header: %v", err)
			return
		}
		for {
			if _, err := r.ReadPacket(); err != nil {
				return
			}
		}
	}()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() > 0 },
		"first live subscriber never attached")
	// Second join exceeds capacity.
	resp2, err := ts.Client().Get(ts.URL + "/v1/live/c")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second join status %d, want 503", resp2.StatusCode)
	}
	ch.Close()
	wg.Wait()
}

// TestAdmissionContention races n joins for room for k sessions: the
// capacity check and the booking are one step, so exactly k are
// admitted however the joins interleave, every other one is a 503
// counted in lod_admission_rejects_total, and the bandwidth in flight
// goes back to 0 once the admitted sessions leave.
func TestAdmissionContention(t *testing.T) {
	const n, k = 24, 5
	clk := vclock.NewVirtual() // pacing parks the admitted sessions
	srv := NewServer(clk)
	data := encodeTestAsset(t, 5*time.Second)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	rate := headerRate(asset.Header)
	srv.CapacityBps = k * rate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Every join's response stays open until the race is over, so no
	// admitted session leaves room behind for a later one.
	start := make(chan struct{})
	resps := make([]*http.Response, n)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec")
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
		}(i)
	}
	close(start)
	wg.Wait()
	admitted, refused := 0, 0
	for _, resp := range resps {
		if resp == nil {
			t.FailNow() // its join failed
		}
		defer resp.Body.Close()
		switch code := resp.StatusCode; code {
		case http.StatusOK:
			admitted++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Errorf("join status %d", code)
		}
	}
	if admitted != k || refused != n-k {
		t.Fatalf("admitted %d and refused %d of %d joins, want %d and %d", admitted, refused, n, k, n-k)
	}
	if st := srv.Stats(); st.RejectedJoins != n-k || st.InFlightBps != k*rate {
		t.Fatalf("rejects %d, in flight %d bits/s; want %d and %d", st.RejectedJoins, st.InFlightBps, n-k, k*rate)
	}
	for _, resp := range resps { // every admitted session leaves
		resp.Body.Close()
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool { return srv.Stats().InFlightBps == 0 },
		"bandwidth still in flight after every session left")
}
