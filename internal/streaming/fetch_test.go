package streaming

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
)

func TestFetchRoundTripsWholeContainer(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = true // fetch must ignore pacing entirely
	data := encodeTestAsset(t, 4*time.Second)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/fetch/lec")
	if err != nil {
		t.Fatal(err)
	}
	err = check.Body(resp.Body, storedBody(t, data, 0))
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// A 4s asset transferred unpaced arrives in far less than play time.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fetch took %v; looks paced", elapsed)
	}

	// A mirror registering the fetched stream reproduces the asset.
	mirror := NewServer(nil)
	resp, err = http.Get(ts.URL + "/v1/fetch/lec")
	if err != nil {
		t.Fatal(err)
	}
	mirrored, err := mirror.RegisterAsset("lec", asf.NewReader(resp.Body))
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mirrored.Bytes() != asset.Bytes() || len(mirrored.points) != len(asset.points) {
		t.Fatalf("mirror: %d bytes / %d seek points, want %d / %d",
			mirrored.Bytes(), len(mirrored.points), asset.Bytes(), len(asset.points))
	}

	if got := srv.Stats().MirrorFetches; got != 2 {
		t.Fatalf("MirrorFetches = %d, want 2", got)
	}
	resp, err = http.Get(ts.URL + "/v1/fetch/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fetch status = %d", resp.StatusCode)
	}
}

func TestFetchBypassesAdmission(t *testing.T) {
	srv := NewServer(nil)
	srv.CapacityBps = 1 // too small for any client session
	data := encodeTestAsset(t, time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Client sessions are rejected at this capacity...
	resp, err := http.Get(ts.URL + "/v1/vod/lec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("VOD status = %d, want 503", resp.StatusCode)
	}
	// ...but the server-to-server mirror path still works.
	resp, err = http.Get(ts.URL + "/v1/fetch/lec")
	if err != nil {
		t.Fatal(err)
	}
	_, packets, _, err := asf.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(packets) == 0 {
		t.Fatalf("fetch under full admission: %d packets, err %v", len(packets), err)
	}
}
