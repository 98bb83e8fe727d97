package streaming

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/proto"
)

// encodeTitledAsset builds a stored container whose header title tells
// readers which publish generation they received.
func encodeTitledAsset(t testing.TB, title string, dur time.Duration) []byte {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: title, Duration: dur, Profile: p, SlideCount: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// post sends body to url and returns the response, closed by cleanup.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeProtoError asserts the body is the proto.Error JSON envelope.
func decodeProtoError(t *testing.T, resp *http.Response) proto.Error {
	t.Helper()
	var pe proto.Error
	if err := json.NewDecoder(resp.Body).Decode(&pe); err != nil {
		t.Fatalf("error body is not proto.Error JSON: %v", err)
	}
	if pe.Status != resp.StatusCode || pe.Message == "" {
		t.Fatalf("error envelope = %+v for status %d", pe, resp.StatusCode)
	}
	return pe
}

// TestPublishUnpublishEndpoints drives the live-publish control
// endpoints over the wire: a POSTed container becomes streamable, a
// malformed one changes nothing, and unpublish turns new opens into
// proto.Error 404s.
func TestPublishUnpublishEndpoints(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	data := encodeTitledAsset(t, "gen-1", time.Second)
	if resp := post(t, ts, "/v1/publish/lec-pub", data); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("publish status = %d, want 204", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec-pub")
	if err != nil {
		t.Fatal(err)
	}
	h, err := asf.NewReader(resp.Body).ReadHeader()
	resp.Body.Close()
	if err != nil || h.Title != "gen-1" {
		t.Fatalf("streamed header = %+v, %v", h, err)
	}

	// A corrupt upload is refused atomically: 400, asset untouched.
	if resp := post(t, ts, "/v1/publish/lec-pub", []byte("not a container")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt publish status = %d, want 400", resp.StatusCode)
	} else {
		decodeProtoError(t, resp)
	}
	if _, ok := srv.Asset("lec-pub"); !ok {
		t.Fatal("asset lost after rejected publish")
	}

	// Wrong method and empty names answer with the proto envelope too.
	getResp, err := ts.Client().Get(ts.URL + "/v1/publish/lec-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET publish status = %d, want 405", getResp.StatusCode)
	}
	decodeProtoError(t, getResp)

	if resp := post(t, ts, "/v1/unpublish/lec-pub", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unpublish status = %d, want 204", resp.StatusCode)
	}
	vodResp, err := ts.Client().Get(ts.URL + "/v1/vod/lec-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer vodResp.Body.Close()
	if vodResp.StatusCode != http.StatusNotFound {
		t.Fatalf("vod after unpublish = %d, want 404", vodResp.StatusCode)
	}
	if pe := decodeProtoError(t, vodResp); !strings.Contains(pe.Message, "lec-pub") {
		t.Fatalf("404 body does not name the asset: %+v", pe)
	}

	// Unpublishing what was never there is a proto 404, not a panic or 204.
	if resp := post(t, ts, "/v1/unpublish/lec-pub", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unpublish status = %d, want 404", resp.StatusCode)
	} else {
		decodeProtoError(t, resp)
	}
}

// TestPublishReplaceUnderTraffic republishes an asset while readers
// stream it. Every session must decode one complete, internally
// consistent generation — old or new, never a splice — because the
// handler holds its own *Asset reference across the swap.
func TestPublishReplaceUnderTraffic(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	gen1 := encodeTitledAsset(t, "gen-1", 2*time.Second)
	gen2 := encodeTitledAsset(t, "gen-2", time.Second)
	if _, err := srv.RegisterAsset("lec-swap", asf.NewReader(bytes.NewReader(gen1))); err != nil {
		t.Fatal(err)
	}
	wantPackets := map[string]int{}
	for title, raw := range map[string][]byte{"gen-1": gen1, "gen-2": gen2} {
		a, err := parseAsset(title, asf.NewReader(bytes.NewReader(raw)))
		if err != nil {
			t.Fatal(err)
		}
		wantPackets[title] = len(a.SharedPackets())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	sawGen := make(chan string, readers)
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec-swap")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			r := asf.NewReader(resp.Body)
			h, err := r.ReadHeader()
			if err != nil {
				errs <- err
				return
			}
			n := 0
			for {
				if _, err := r.ReadPacket(); err == io.EOF {
					break
				} else if err != nil {
					errs <- err
					return
				}
				n++
			}
			if want := wantPackets[h.Title]; n != want {
				errs <- &proto.Error{Status: 0, Message: h.Title + ": spliced stream"}
				return
			}
			sawGen <- h.Title
		}()
	}
	close(start)
	// Swap generations while the readers are in flight.
	if resp := post(t, ts, "/v1/publish/lec-swap", gen2); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replace status = %d, want 204", resp.StatusCode)
	}
	wg.Wait()
	close(errs)
	close(sawGen)
	for err := range errs {
		t.Fatal(err)
	}
	for title := range sawGen {
		if title != "gen-1" && title != "gen-2" {
			t.Fatalf("reader saw unknown generation %q", title)
		}
	}
	// After the dust settles, new opens get gen-2 only.
	resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec-swap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if h, err := asf.NewReader(resp.Body).ReadHeader(); err != nil || h.Title != "gen-2" {
		t.Fatalf("post-swap header = %+v, %v", h, err)
	}
}

// An upload larger than the bound is refused with 413 and a proto.Error
// body wherever the bound falls in it — inside the header, mid-stream, one
// byte short of the end — and the asset it would have replaced stays in
// place. An upload of exactly the bound is accepted.
func TestPublishOversizedBody(t *testing.T) {
	srv := NewServer(nil)
	gen1 := encodeTitledAsset(t, "gen-1", time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(gen1))); err != nil {
		t.Fatal(err)
	}
	gen2 := encodeTitledAsset(t, "gen-2", time.Second)
	publish := func(limit int64) *http.Response {
		rec := httptest.NewRecorder()
		srv.publishUpload(rec, httptest.NewRequest(http.MethodPost, "/v1/publish/lec", bytes.NewReader(gen2)), limit)
		return rec.Result()
	}
	for _, limit := range []int64{10, int64(len(gen2)) / 2, int64(len(gen2)) - 1} {
		resp := publish(limit)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte upload over a %d-byte bound: status %d, want 413", len(gen2), limit, resp.StatusCode)
		}
		decodeProtoError(t, resp)
		if a, _ := srv.Asset("lec"); a.Header.Title != "gen-1" {
			t.Fatalf("refused upload replaced the asset with %q", a.Header.Title)
		}
	}
	if resp := publish(int64(len(gen2))); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("upload of exactly the bound: status %d, want 204", resp.StatusCode)
	}
	if a, _ := srv.Asset("lec"); a.Header.Title != "gen-2" {
		t.Fatalf("accepted upload left %q in place", a.Header.Title)
	}
}
