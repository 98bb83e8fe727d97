package proto

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestStreamPathEscapesNames(t *testing.T) {
	for _, tc := range []struct {
		kind StreamKind
		name string
		want string
	}{
		{StreamVOD, "lec-1", "/vod/lec-1"},
		{StreamLive, "class", "/live/class"},
		{StreamGroup, "grp-0", "/group/grp-0"},
		{StreamFetch, "lec-1", "/fetch/lec-1"},
		{StreamVOD, "week 1/intro", "/vod/week%201%2Fintro"},
		{StreamVOD, "what?now#really", "/vod/what%3Fnow%23really"},
	} {
		if got := StreamPath(tc.kind, tc.name); got != tc.want {
			t.Errorf("StreamPath(%s, %q) = %q, want %q", tc.kind, tc.name, got, tc.want)
		}
		// The name survives a URL round trip: escape here, decode as a
		// request path, extract by kind.
		u, err := url.Parse("http://host" + Versioned(StreamPath(tc.kind, tc.name)))
		if err != nil {
			t.Fatal(err)
		}
		if got := StreamName(u.Path, tc.kind); got != tc.name {
			t.Errorf("round trip of %q through %s = %q", tc.name, tc.kind, got)
		}
	}
}

func TestStreamNameAcceptsBothVersions(t *testing.T) {
	if got := StreamName("/vod/lec", StreamVOD); got != "lec" {
		t.Fatalf("unprefixed name = %q", got)
	}
	if got := StreamName("/v1/vod/lec", StreamVOD); got != "lec" {
		t.Fatalf("versioned name = %q", got)
	}
}

func TestSplitStreamPath(t *testing.T) {
	for _, tc := range []struct {
		path string
		kind StreamKind
		name string
		ok   bool
	}{
		{"/vod/lec", StreamVOD, "lec", true},
		{"/v1/vod/lec", StreamVOD, "lec", true},
		{"/live/class", StreamLive, "class", true},
		{"/v1/group/g", StreamGroup, "g", true},
		{"/fetch/a", StreamFetch, "a", true},
		{"/vod/", "", "", false},
		{"/assets", "", "", false},
		{"/registry/nodes", "", "", false},
	} {
		kind, name, ok := SplitStreamPath(tc.path)
		if ok != tc.ok || (ok && (kind != tc.kind || name != tc.name)) {
			t.Errorf("SplitStreamPath(%q) = %v %q %v, want %v %q %v",
				tc.path, kind, name, ok, tc.kind, tc.name, tc.ok)
		}
	}
}

func TestUnversioned(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"/v1/vod/lec", "/vod/lec"},
		{"/vod/lec", "/vod/lec"},
		{"/v1", "/"},
		{"/v1x/vod/lec", "/v1x/vod/lec"}, // not the version prefix
	} {
		if got := Unversioned(tc.in); got != tc.want {
			t.Errorf("Unversioned(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestHandleMountsV1Only: a route is served at its /v1 path and nowhere
// else — the unversioned path falls through to the mux's own 404.
func TestHandleMountsV1Only(t *testing.T) {
	mux := http.NewServeMux()
	Handle(mux, PrefixVOD, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(StreamName(r.URL.Path, StreamVOD)))
	}))
	for _, tc := range []struct {
		path string
		code int
		body string
	}{
		{"/v1/vod/lec", http.StatusOK, "lec"},
		{"/vod/lec", http.StatusNotFound, "404 page not found\n"},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rec.Code != tc.code || rec.Body.String() != tc.body {
			t.Errorf("GET %s = %d %q, want %d %q", tc.path, rec.Code, rec.Body.String(), tc.code, tc.body)
		}
	}
}

func TestParseStart(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"30s", 30 * time.Second, true},
		{"1500ms", 1500 * time.Millisecond, true},
		{"0s", 0, true},
		{"", 0, false},
		{"bogus", 0, false},
		{"-5s", 0, false},
		{"30", 0, false}, // a bare number is not a Go duration
	} {
		got, err := ParseStart(tc.raw)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseStart(%q) = %v, %v; want %v, ok=%v", tc.raw, got, err, tc.want, tc.ok)
		}
		if err != nil {
			var pe *Error
			if !asError(err, &pe) || pe.Status != http.StatusBadRequest {
				t.Errorf("ParseStart(%q) error is not a 400 *Error: %#v", tc.raw, err)
			}
		}
	}
	// FormatStart produces what ParseStart accepts.
	if got, err := ParseStart(FormatStart(2718 * time.Millisecond)); err != nil || got != 2718*time.Millisecond {
		t.Fatalf("FormatStart round trip = %v, %v", got, err)
	}
}

func TestParseBandwidth(t *testing.T) {
	if got, err := ParseBandwidth("768000"); err != nil || got != 768000 {
		t.Fatalf("ParseBandwidth = %v, %v", got, err)
	}
	for _, raw := range []string{"", "x", "0", "-5"} {
		if _, err := ParseBandwidth(raw); err == nil {
			t.Errorf("ParseBandwidth(%q) accepted", raw)
		}
	}
}

func TestExcludeRoundTrip(t *testing.T) {
	refs := []string{"edge-1.lod", "edge-2.lod:8081"}
	if got := SplitExclude(JoinExclude(refs)); !reflect.DeepEqual(got, refs) {
		t.Fatalf("round trip = %v", got)
	}
	if got := SplitExclude(" a , , b ,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("messy split = %v", got)
	}
	if got := SplitExclude(""); got != nil {
		t.Fatalf("empty split = %v", got)
	}
}

func TestErrorBodyRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, "bad start parameter")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	got := ReadError(rec.Result())
	if got.Status != http.StatusBadRequest || got.Message != "bad start parameter" {
		t.Fatalf("ReadError = %+v", got)
	}

	// A legacy text error still reads as an Error.
	rec = httptest.NewRecorder()
	http.Error(rec, "plain refusal", http.StatusServiceUnavailable)
	got = ReadError(rec.Result())
	if got.Status != http.StatusServiceUnavailable || got.Message != "plain refusal" {
		t.Fatalf("legacy ReadError = %+v", got)
	}

	// WriteErr preserves a *Error's own status.
	rec = httptest.NewRecorder()
	_, perr := ParseStart("bogus")
	WriteErr(rec, perr)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("WriteErr status = %d", rec.Code)
	}
	var decoded Error
	if err := json.NewDecoder(rec.Body).Decode(&decoded); err != nil || !strings.Contains(decoded.Message, "start") {
		t.Fatalf("WriteErr body = %+v, %v", decoded, err)
	}
}

func TestNodeStatsLoad(t *testing.T) {
	if got := (NodeStats{ActiveClients: 3}).Load(); got != 3 {
		t.Fatalf("session-count load = %v", got)
	}
	if got := (NodeStats{ActiveClients: 3, InFlightBps: 2_000_000}).Load(); got != 2 {
		t.Fatalf("bytes-in-flight load = %v", got)
	}
	if got := (NodeStats{InFlightBps: 500_000, CapacityBps: 1_000_000}).Load(); got != 1 { // 0.5 Mbit/s + half the capacity
		t.Fatalf("capacity-fraction load = %v", got)
	}
}

// asError is errors.As without importing errors in the test twice over.
func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}
