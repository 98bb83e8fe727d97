package streaming

import (
	"bytes"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/asf"
)

// TestServerServesV1Routes pins the route form on the streaming server:
// streams, listings, metrics and status answer under /v1, and the same
// paths without the prefix are the mux's plain 404 — and start nothing.
func TestServerServesV1Routes(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	data := encodeTestAsset(t, time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	for _, path := range []string{"/v1/vod/lec", "/v1/fetch/lec",
		"/v1/assets", "/v1/channels", "/v1/groups", "/v1/metrics", "/v1/status"} {
		if code, body := get(path); code != 200 || len(body) == 0 {
			t.Fatalf("GET %s = %d (%d bytes), want 200 with a body", path, code, len(body))
		}
	}
	// A missing asset is the handler's 404, with the proto.Error body.
	if code, body := get("/v1/vod/nope"); code != 404 || !bytes.Contains(body, []byte(`"status":404`)) {
		t.Fatalf("missing asset = %d %q, want a proto.Error 404", code, body)
	}
	for _, path := range []string{"/vod/lec", "/fetch/lec", "/assets", "/metrics"} {
		if code, body := get(path); code != 404 || string(body) != "404 page not found\n" {
			t.Fatalf("GET %s = %d %q, want the mux's plain 404", path, code, body)
		}
	}
	if st := srv.Stats(); st.VODSessions != 1 || st.MirrorFetches != 1 {
		t.Fatalf("stats = %+v, want the one /v1 session and the one /v1 fetch", st)
	}
}
