package streaming

import (
	"bytes"
	"errors"
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

func TestAdmissionReserveRelease(t *testing.T) {
	a := NewAdmission(100_000)
	t1, err := a.Reserve(60_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Reserved() != 60_000 || a.Sessions() != 1 {
		t.Fatalf("reserved=%d sessions=%d", a.Reserved(), a.Sessions())
	}
	// Second reservation exceeds capacity.
	if _, err := a.Reserve(60_000); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity reserve = %v", err)
	}
	if a.Rejected() != 1 {
		t.Fatalf("rejected = %d", a.Rejected())
	}
	// A smaller one fits.
	t2, err := a.Reserve(40_000)
	if err != nil {
		t.Fatal(err)
	}
	a.Release(t1)
	if a.Reserved() != 40_000 {
		t.Fatalf("reserved after release = %d", a.Reserved())
	}
	a.Release(t1) // idempotent
	a.Release(t2)
	if a.Reserved() != 0 || a.Sessions() != 0 {
		t.Fatalf("not empty after releases: %d/%d", a.Reserved(), a.Sessions())
	}
}

func TestAdmissionZeroCapacityAdmitsAll(t *testing.T) {
	var a Admission
	for i := 0; i < 100; i++ {
		if _, err := a.Reserve(1 << 30); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdmissionNegativeBandwidth(t *testing.T) {
	a := NewAdmission(1000)
	if _, err := a.Reserve(-1); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

// TestVODAdmissionControl verifies the paper-style call admission: with
// capacity for two modem sessions, the third concurrent VOD request gets
// 503 and no session leaks its reservation.
func TestVODAdmissionControl(t *testing.T) {
	clk := vclock.NewVirtual() // pacing stalls sessions so they stay active
	srv := NewServer(clk)
	data := encodeTestAsset(t, 5*time.Second)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	rate := headerRate(asset.Header)
	srv.Admission = NewAdmission(2 * rate)
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
	// Wait until both reservations are in place.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return srv.Admission.Sessions() >= 2 },
		"both admitted sessions never reserved bandwidth")
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
	// Hang up the admitted sessions; reservations drain.
	for _, resp := range resps {
		resp.Body.Close()
	}
	testutil.WaitUntil(t, 5*time.Second, func() bool { return srv.Admission.Sessions() == 0 },
		"reservations leaked after sessions hung up")
}

// TestLiveAdmissionControl mirrors the check for live channels.
func TestLiveAdmissionControl(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("c", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.Admission = NewAdmission(headerRate(ch.Header())) // room for one
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
