package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/catalog"
	"repro/internal/encoder"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/testutil"
)

// requestLog is a transport that remembers every request it was asked
// to send.
type requestLog struct {
	mu   sync.Mutex
	reqs []*http.Request
}

func (l *requestLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r)
	l.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (l *requestLog) seen() []*http.Request {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*http.Request(nil), l.reqs...)
}

// countingReader counts the body bytes the player has consumed.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// playResult is what Session.Play returned.
type playResult struct {
	m   *player.Metrics
	err error
}

// playAsync plays the session on its own goroutine.
func playAsync(sess *Session) <-chan playResult {
	done := make(chan playResult, 1)
	go func() {
		m, err := sess.Play()
		done <- playResult{m, err}
	}()
	return done
}

// TestSessionFailsOverMidStream severs the edge serving a paced VOD
// session mid-body: the session must complete on the other edge,
// continuing the body from the byte it had reached rather than
// restarting, with the failover visible in its stats and the corpse
// reported dead.
func TestSessionFailsOverMidStream(t *testing.T) {
	c := newCluster(t, "lec")
	for _, srv := range c.edgeSrv {
		srv.Pacing = true // the stream must still be in flight when the edge dies
	}

	reqs := &requestLog{}
	var read atomic.Int64
	cl := New(c.regTS.URL, WithHTTPClient(&http.Client{Transport: reqs}))
	sess, err := cl.Open(context.Background(), Spec{
		Kind: VOD, Name: "lec", Failover: 3,
		WrapBody: func(r io.Reader) io.Reader { return countingReader{r, &read} },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := playAsync(sess)

	// Find the edge the session landed on, and let the first half second
	// of media through so the cut falls mid-body.
	asset, _ := c.origin.Asset("lec")
	var early int64
	for _, sp := range asset.SharedPackets() {
		if sp.Packet().PTS < 500*time.Millisecond {
			early += int64(sp.PayloadLen())
		}
	}
	serving := -1
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		for i, srv := range c.edgeSrv {
			if srv.Stats().ActiveClients > 0 {
				serving = i
			}
		}
		return serving >= 0 && read.Load() > early
	}, "session never started streaming")
	corpse := strings.TrimPrefix(c.edgeTS[serving].URL, "http://")
	c.edgeTS[serving].CloseClientConnections()
	c.edgeTS[serving].Close()

	res := <-done
	st := sess.Stats()
	if res.err != nil {
		t.Fatalf("session failed despite failover: %v (stats %+v)", res.err, st)
	}
	if st.Failovers < 1 {
		t.Fatalf("session claims a clean run after its edge was severed: %+v", st)
	}
	if st.Edge == corpse {
		t.Fatalf("final edge %s is the severed one", st.Edge)
	}
	if res.m.VideoFrames == 0 || res.m.BytesRead == 0 {
		t.Fatalf("no media delivered: %+v", res.m)
	}
	// Continued, not restarted or re-seeked: the surviving edge was asked
	// for the rest of the same body, and the player saw one whole stream.
	resumed := false
	for _, r := range reqs.seen() {
		if u := r.URL; u.Host == st.Edge && strings.HasSuffix(u.Path, "/vod/lec") {
			if u.Query().Has(proto.ParamStart) {
				t.Fatalf("resume re-seeked: %s", u)
			}
			if n, ok := proto.ParseRange(r.Header.Get("Range")); ok && n > 0 && r.Header.Get("If-Range") != "" {
				resumed = true
			}
		}
	}
	if !resumed {
		t.Fatalf("no Range request under If-Range reached %s", st.Edge)
	}
	var video int
	for _, p := range asset.Packets {
		if p.Kind == media.KindVideo {
			video++
		}
	}
	if res.m.VideoFrames != video || res.m.BrokenFrames != 0 {
		t.Fatalf("played %d video frames (%d broken), the lecture has %d", res.m.VideoFrames, res.m.BrokenFrames, video)
	}
	// The client's failure report killed the node at the registry, so
	// later clients are spared the corpse without waiting out the TTL.
	for _, n := range c.registry.Nodes() {
		if strings.HasSuffix(n.URL, corpse) && n.Health != proto.HealthDead {
			t.Fatalf("severed edge %s health = %q, want dead", n.ID, n.Health)
		}
	}
}

// TestSessionRidesOutRegistryOutage opens a session while the registry
// is down: the registry leg must retry with backoff inside the spec's
// failover budget, and a registry restored from the same state dir
// answers the retry from snapshot membership — no edge has
// re-heartbeated — so the session completes.
func TestSessionRidesOutRegistryOutage(t *testing.T) {
	c := newCluster(t, "lec") // origin and edges; the registry under test is the durable one below
	dir := t.TempDir()
	openRegistry := func() *relay.Registry {
		store, err := catalog.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return relay.NewRegistryWithStore(nil, store)
	}

	// One address, whichever registry instance is current behind it; nil
	// is the outage — the connection dies without an answer.
	var cur atomic.Pointer[relay.Registry]
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := cur.Load()
		if g == nil {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		g.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()

	before := openRegistry()
	for i, id := range []string{"edge-a", "edge-b"} {
		if err := before.Register(relay.NodeInfo{ID: id, URL: c.edgeTS[i].URL}); err != nil {
			t.Fatal(err)
		}
	}
	before.Close() // the outage begins; cur is still nil

	retried := make(chan struct{}, 16)
	sess, err := New(front.URL).Open(context.Background(), Spec{
		Kind: VOD, Name: "lec", Failover: 8,
		OnRetry: func(edge string, err error) {
			if edge == "" {
				retried <- struct{}{}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := playAsync(sess)

	select {
	case <-retried: // the session met the outage and is backing off
	case res := <-done:
		t.Fatalf("session ended during the outage instead of retrying: %v", res.err)
	case <-time.After(10 * time.Second):
		t.Fatal("session never retried the registry leg")
	}

	after := openRegistry()
	defer after.Close()
	if got := len(after.Nodes()); got != 2 {
		t.Fatalf("restored %d nodes, want 2", got)
	}
	cur.Store(after)

	res := <-done
	st := sess.Stats()
	if res.err != nil {
		t.Fatalf("session failed across the registry outage: %v (stats %+v)", res.err, st)
	}
	if st.Retries < 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want registry retries and no edge failover", st)
	}
	if res.m.VideoFrames == 0 || res.m.BrokenFrames != 0 {
		t.Fatalf("metrics = %+v", res.m)
	}
	if got := after.Metrics().Snapshot().Get("lod_registry_snapshot_redirects_total"); got < 1 {
		t.Fatalf("snapshot redirects = %v, want the retry answered from restored membership", got)
	}
}

// assertNoReports checks the registry was never told an edge failed and
// still calls every node alive.
func assertNoReports(t *testing.T, c *cluster) {
	t.Helper()
	if got := c.registry.Metrics().Snapshot().Get("lod_registry_failure_reports_total"); got != 0 {
		t.Fatalf("lod_registry_failure_reports_total = %v, want 0", got)
	}
	for _, n := range c.registry.Nodes() {
		if n.Health != proto.HealthAlive {
			t.Fatalf("node %s health = %q, want alive", n.ID, n.Health)
		}
	}
}

// TestViewerLeavingIsNotEdgeDeath: cancelling a session mid-play is the
// viewer leaving, not the edge dying — nothing is reported, nothing is
// retried, and the healthy edge stays alive at the registry.
func TestViewerLeavingIsNotEdgeDeath(t *testing.T) {
	c := newCluster(t, "lec")
	for _, srv := range c.edgeSrv {
		srv.Pacing = true // the stream must still be in flight at the cancel
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var read atomic.Int64
	sess, err := New(c.regTS.URL).Open(ctx, Spec{Kind: VOD, Name: "lec",
		WrapBody: func(r io.Reader) io.Reader { return countingReader{r, &read} }})
	if err != nil {
		t.Fatal(err)
	}
	done := playAsync(sess)
	testutil.WaitUntil(t, 10*time.Second, func() bool { return read.Load() > 0 }, "session never started streaming")
	cancel()
	res := <-done
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Play error = %v, want context.Canceled", res.err)
	}
	if st := sess.Stats(); st.Retries != 0 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want no retries", st)
	}
	assertNoReports(t, c)
}

// TestPlayerRefusalIsNotEdgeDeath: a player that refuses a healthy
// stream (DRM content, no license) fails the session at once; it does
// not report, exclude or retry the edge that served it.
func TestPlayerRefusalIsNotEdgeDeath(t *testing.T) {
	c := newCluster(t, "lec")
	drm := encodeTestLecture(t, time.Second, encoder.Config{DRM: true})
	if _, err := c.origin.RegisterAsset("drm", asf.NewReader(bytes.NewReader(drm))); err != nil {
		t.Fatal(err)
	}
	sess, err := New(c.regTS.URL).Open(context.Background(), Spec{Kind: VOD, Name: "drm", Failover: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Play(); !errors.Is(err, player.ErrDRMNotLicensed) {
		t.Fatalf("Play error = %v, want ErrDRMNotLicensed", err)
	}
	if st := sess.Stats(); st.Retries != 0 || st.Failovers != 0 || st.Edge == "" {
		t.Fatalf("stats = %+v, want the serving edge and no retries", st)
	}
	assertNoReports(t, c)
}
