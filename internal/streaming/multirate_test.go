package streaming

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
)

// encodeAtProfile encodes the same lecture at the named profile.
func encodeAtProfile(t *testing.T, profileName string) []byte {
	t.Helper()
	p, err := codec.ByName(profileName)
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "multi", Duration: 2 * time.Second, Profile: p, SlideCount: 1, Seed: 4,
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

func setupGroup(t *testing.T) (*Server, *RateGroup) {
	t.Helper()
	srv := NewServer(nil)
	srv.Pacing = false
	var variants []*Asset
	for _, name := range []string{"modem-28k", "isdn-128k", "dsl-768k"} {
		data := encodeAtProfile(t, name)
		a, err := srv.RegisterAsset("lecture-"+name, asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, a)
	}
	g, err := srv.CreateRateGroup("lecture", variants...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, g
}

func TestRateGroupSelect(t *testing.T) {
	_, g := setupGroup(t)
	tests := []struct {
		bw   int64
		want string
	}{
		{10_000, "lecture-modem-28k"},    // below all: smallest
		{50_000, "lecture-modem-28k"},    // fits 28k only
		{200_000, "lecture-isdn-128k"},   // fits 128k
		{10_000_000, "lecture-dsl-768k"}, // fits all: richest
	}
	for _, tt := range tests {
		a, ok := g.Select(tt.bw)
		if !ok {
			t.Fatalf("Select(%d) found nothing", tt.bw)
		}
		if a.Name != tt.want {
			t.Errorf("Select(%d) = %s, want %s", tt.bw, a.Name, tt.want)
		}
	}
	if vs := g.Variants(); len(vs) != 3 {
		t.Fatalf("variants = %d", len(vs))
	}
}

// TestRateGroupRanksRepublishedVariant republishes the leanest variant
// at a rate above the others: the group must rank it by its new header
// and hand out the new copy, never the one it replaced, whose buffers
// the server carves again once no body reads them.
func TestRateGroupRanksRepublishedVariant(t *testing.T) {
	srv, g := setupGroup(t)
	old, _ := srv.Asset("lecture-modem-28k")
	republished, err := srv.PublishAsset("lecture-modem-28k", asf.NewReader(bytes.NewReader(encodeAtProfile(t, "lan-1.5m"))))
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := g.Select(10_000_000); a != republished {
		t.Errorf("Select(10000000) = %s at %d bps, want the republished lecture-modem-28k at %d bps",
			a.Name, headerRate(a.Header), headerRate(republished.Header))
	}
	if a, _ := g.Select(10_000); a.Name != "lecture-isdn-128k" {
		t.Errorf("Select(10000) = %s, want lecture-isdn-128k, now the leanest", a.Name)
	}
	vs := g.Variants()
	for _, a := range vs {
		if a == old {
			t.Fatal("Variants returned the replaced copy of lecture-modem-28k")
		}
	}
	if len(vs) != 3 || vs[2] != republished {
		t.Fatalf("Variants = %d assets, last %s; want 3, the republished lecture-modem-28k last", len(vs), vs[len(vs)-1].Name)
	}
}

func TestRateGroupEmptySelect(t *testing.T) {
	g := &RateGroup{Name: "empty"}
	if _, ok := g.Select(1000); ok {
		t.Fatal("empty group selected a variant")
	}
}

// TestRateGroupPinsItsVariants: a registered group holds one pin per
// variant name, taken by CreateRateGroup and AddVariant and dropped by
// RemoveRateGroup; a variant added after the removal takes none.
func TestRateGroupPinsItsVariants(t *testing.T) {
	srv, g := setupGroup(t)
	extra, err := srv.RegisterAsset("lecture-extra", asf.NewReader(bytes.NewReader(encodeAtProfile(t, "modem-28k"))))
	if err != nil {
		t.Fatal(err)
	}
	g.AddVariant(extra)
	names := []string{"lecture-modem-28k", "lecture-isdn-128k", "lecture-dsl-768k", "lecture-extra"}
	for _, name := range names {
		if !srv.Pinned(name) {
			t.Fatalf("%s is in a registered group but holds no pin", name)
		}
	}
	unpin := srv.Pin("lecture-dsl-768k") // a session's pin outlives the group's
	defer unpin()
	if !srv.RemoveRateGroup("lecture") {
		t.Fatal("RemoveRateGroup found no group")
	}
	for _, name := range names {
		if want := name == "lecture-dsl-768k"; srv.Pinned(name) != want {
			t.Fatalf("after the group's removal %s pinned = %v, want %v", name, !want, want)
		}
	}
	late, err := srv.RegisterAsset("lecture-late", asf.NewReader(bytes.NewReader(encodeAtProfile(t, "modem-28k"))))
	if err != nil {
		t.Fatal(err)
	}
	g.AddVariant(late)
	if srv.Pinned("lecture-late") {
		t.Fatal("a variant added to a removed group holds a pin")
	}
}

func TestCreateRateGroupDuplicate(t *testing.T) {
	srv := NewServer(nil)
	if _, err := srv.CreateRateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateRateGroup("g"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate group = %v", err)
	}
	if _, ok := srv.RateGroup("g"); !ok {
		t.Fatal("group lookup failed")
	}
}

func TestGroupEndpointSelectsByBandwidth(t *testing.T) {
	srv, _ := setupGroup(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A modem student gets the 28k variant.
	resp, err := ts.Client().Get(ts.URL + "/v1/group/lecture?bw=56000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := asf.NewReader(resp.Body)
	h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	var video int64
	for _, st := range h.Streams {
		video += st.BitsPerSecond
	}
	if video > 56_000 {
		t.Fatalf("56k client got a %d bps stream", video)
	}

	// A LAN student gets the richest variant.
	resp2, err := ts.Client().Get(ts.URL + "/v1/group/lecture?bw=10000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	r2 := asf.NewReader(resp2.Body)
	h2, err := r2.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	var video2 int64
	for _, st := range h2.Streams {
		video2 += st.BitsPerSecond
	}
	if video2 <= video {
		t.Fatalf("LAN client got %d bps, modem client %d bps", video2, video)
	}
}

func TestGroupEndpointErrors(t *testing.T) {
	srv, _ := setupGroup(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/group/none")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("missing group status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/group/lecture?bw=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad bw status %d", resp.StatusCode)
	}
	// Empty group 404s.
	if _, err := srv.CreateRateGroup("empty"); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/group/empty")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("empty group status %d", resp.StatusCode)
	}
}
