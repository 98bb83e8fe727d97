package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/encoder"
	"repro/internal/player"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/streaming"
	"repro/internal/vclock"
)

// cutter is a transport that severs response bodies at offsets into the
// whole stream body: a response starting at byte n (its Range, or 0) is
// cut with io.ErrUnexpectedEOF at the first offset past n.
type cutter struct {
	mu   sync.Mutex
	cuts []int64 // ascending
}

func (c *cutter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || resp.StatusCode/100 != 2 {
		return resp, err
	}
	from, _ := proto.ParseRange(r.Header.Get("Range"))
	if resp.StatusCode == http.StatusOK {
		from = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.cuts) > 0 && c.cuts[0] <= from {
		c.cuts = c.cuts[1:]
	}
	if len(c.cuts) > 0 {
		resp.Body = &cutBody{ReadCloser: resp.Body, left: c.cuts[0] - from}
		c.cuts = c.cuts[1:]
	}
	return resp, nil
}

// left reports how many cuts have not been made.
func (c *cutter) left() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cuts)
}

type cutBody struct {
	io.ReadCloser
	left int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.ReadCloser.Read(p)
	b.left -= int64(n)
	return n, err
}

// playOn plays sess while advancing clk to each backoff the session
// waits out, so failover costs no wall time.
func playOn(t *testing.T, sess *Session, clk *vclock.Virtual) playResult {
	t.Helper()
	done := playAsync(sess)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case res := <-done:
			return res
		default:
		}
		if next, ok := clk.NextDeadline(); ok {
			clk.AdvanceTo(next)
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	t.Fatal("session did not finish within 30s")
	return playResult{}
}

// TestResumeIsByteExact cuts a 30 s lecture's body five times per seed
// at random offsets — always one inside the header, one inside the last
// packet and three among the packets before it — over 20 seeds. Each
// session must read exactly the body check.StoredBody derives from the
// published lecture and play the same frames as an uncut session: no
// frame is played twice, none is broken.
func TestResumeIsByteExact(t *testing.T) {
	_, ts, data := newLoneServer(t, "lec", 30*time.Second, false)
	whole, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, packets, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	header, err := asf.EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	lastWire, err := asf.EncodePacket(packets[len(packets)-1])
	if err != nil {
		t.Fatal(err)
	}
	first, size := int64(len(header)), int64(len(whole))
	last := size - int64(len(lastWire))
	if last+1 >= size {
		t.Fatal("stored stream's last packet is too short to cut inside")
	}

	ref, err := New(ts.URL).Open(context.Background(), Spec{Kind: VOD, Name: "lec"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Play()
	if err != nil {
		t.Fatal(err)
	}
	if want.VideoFrames != 300 || want.BrokenFrames != 0 {
		t.Fatalf("uncut session played %d video frames (%d broken), want 300", want.VideoFrames, want.BrokenFrames)
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		between := func(lo, hi int64) int64 { return lo + rng.Int63n(hi-lo) }
		cuts := []int64{between(1, first), between(last+1, size)}
		for len(cuts) < 5 {
			if c := between(first+1, last); !slices.Contains(cuts, c) {
				cuts = append(cuts, c)
			}
		}
		slices.Sort(cuts)
		cut := &cutter{cuts: cuts}
		clk := vclock.NewVirtual()
		var got bytes.Buffer
		sess, err := New(ts.URL, WithHTTPClient(&http.Client{Transport: cut})).Open(context.Background(), Spec{
			Kind: VOD, Name: "lec", Failover: 5,
			Player:   player.Options{Clock: clk},
			WrapBody: func(r io.Reader) io.Reader { return io.TeeReader(r, &got) },
		})
		if err != nil {
			t.Fatal(err)
		}
		res := playOn(t, sess, clk)
		if res.err != nil {
			t.Fatalf("seed %d, cuts %v: %v", seed, cuts, res.err)
		}
		if cut.left() != 0 {
			t.Fatalf("seed %d: %d cuts never made", seed, cut.left())
		}
		if st := sess.Stats(); st.Failovers != 5 {
			t.Fatalf("seed %d: stats %+v, want 5 failovers", seed, st)
		}
		if err := check.Body(&got, whole); err != nil {
			t.Fatalf("seed %d, cuts %v: %v", seed, cuts, err)
		}
		if res.m.VideoFrames != want.VideoFrames || res.m.BrokenFrames != 0 {
			t.Fatalf("seed %d, cuts %v: played %d video frames (%d broken), want %d",
				seed, cuts, res.m.VideoFrames, res.m.BrokenFrames, want.VideoFrames)
		}
	}
}

// TestRepublishEndsResume republishes the asset between the cut and the
// resume: the node answers the resume with the new asset's whole body,
// and the session ends with ErrStreamChanged, having passed on not one
// byte of it.
func TestRepublishEndsResume(t *testing.T) {
	srv, ts, data := newLoneServer(t, "lec", 30*time.Second, false)
	whole, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := encodeTestLecture(t, 20*time.Second, encoder.Config{})
	cutAt := int64(len(whole) / 2)
	clk := vclock.NewVirtual()
	var got bytes.Buffer
	sess, err := New(ts.URL, WithHTTPClient(&http.Client{Transport: &cutter{cuts: []int64{cutAt}}})).Open(
		context.Background(), Spec{
			Kind: VOD, Name: "lec", Failover: 3,
			Player:   player.Options{Clock: clk},
			WrapBody: func(r io.Reader) io.Reader { return io.TeeReader(r, &got) },
			OnRetry: func(string, error) {
				if _, err := srv.PublishAsset("lec", asf.NewReader(bytes.NewReader(next))); err != nil {
					t.Error(err)
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	res := playOn(t, sess, clk)
	if !errors.Is(res.err, ErrStreamChanged) {
		t.Fatalf("Play error = %v, want ErrStreamChanged", res.err)
	}
	if err := check.Body(&got, whole[:cutAt]); err != nil {
		t.Fatalf("player read not exactly the old body's first %d bytes: %v", cutAt, err)
	}
	if st := sess.Stats(); st.Retries != 1 {
		t.Fatalf("stats = %+v, want the one retry that found the stream changed", st)
	}
}

// TestLiveCutEndsSession: a broadcast has no byte offsets, so a live
// body cut after its first byte reports and excludes the edge, then ends
// the session with the cut's error instead of rejoining.
func TestLiveCutEndsSession(t *testing.T) {
	srv := newServerWithChannel(t, "class")
	node := httptest.NewServer(srv.Handler())
	t.Cleanup(node.Close)
	registry := relay.NewRegistry(nil)
	if err := registry.Register(relay.NodeInfo{ID: "edge-a", URL: node.URL}); err != nil {
		t.Fatal(err)
	}
	regTS := httptest.NewServer(registry.Handler())
	t.Cleanup(regTS.Close)

	var retried atomic.Int32
	sess, err := New(regTS.URL, WithHTTPClient(&http.Client{Transport: &cutter{cuts: []int64{10}}})).Open(
		context.Background(), Spec{Kind: Live, Name: "class", Failover: 3,
			OnRetry: func(string, error) { retried.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Play(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Play error = %v, want the cut", err)
	}
	if st := sess.Stats(); st.Retries != 0 || retried.Load() != 0 {
		t.Fatalf("stats = %+v, %d OnRetry calls: a cut live body was rejoined", st, retried.Load())
	}
	if got := srv.Stats().LiveSessions; got != 1 {
		t.Fatalf("node saw %d live joins, want 1", got)
	}
	for _, n := range registry.Nodes() {
		if n.Health != proto.HealthDead {
			t.Fatalf("cut edge %s health = %q, want reported dead", n.ID, n.Health)
		}
	}
}

// TestRedirectWithoutHost: a 307 naming no edge host is the first leg's
// error, not an edge's: the session ends at once, excludes nothing and
// reports no node.
func TestRedirectWithoutHost(t *testing.T) {
	for _, loc := range []string{"", "/v1/vod/lec"} {
		var mu sync.Mutex
		var seen []string
		reg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Method+" "+r.URL.Path+" "+r.Header.Get(proto.ExcludeHeader))
			mu.Unlock()
			if loc != "" {
				w.Header().Set("Location", loc)
			}
			w.WriteHeader(http.StatusTemporaryRedirect)
		}))
		sess, err := New(reg.URL).Open(context.Background(), Spec{Kind: VOD, Name: "lec", Failover: 3})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Play()
		reg.Close()
		if err == nil || !strings.Contains(err.Error(), "bad redirect") {
			t.Fatalf("Location %q: Play error = %v, want a bad redirect", loc, err)
		}
		if st := sess.Stats(); st.Retries != 0 || st.Edge != "" {
			t.Fatalf("Location %q: stats = %+v, want no retry and no edge", loc, st)
		}
		if want := "GET /v1/vod/lec "; len(seen) != 1 || seen[0] != want {
			t.Fatalf("Location %q: registry saw %q, want only %q", loc, seen, want)
		}
	}
}

// newServerWithChannel is a server with one live channel open and
// nothing published on it yet.
func newServerWithChannel(t *testing.T, name string) *streaming.Server {
	t.Helper()
	h, err := asf.NewReader(bytes.NewReader(encodeTestLecture(t, time.Second, encoder.Config{}))).ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	srv := streaming.NewServer(nil)
	if _, err := srv.CreateChannel(name, h); err != nil {
		t.Fatal(err)
	}
	return srv
}
