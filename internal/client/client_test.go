package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/streaming"
)

func encodeTestLecture(t *testing.T, dur time.Duration, cfg encoder.Config) []byte {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "sdk test", Duration: dur, Profile: p, SlideCount: 2, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, cfg, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cluster is a minimal real-HTTP cluster: one origin asset, two edges
// pulling through, a registry redirecting between them.
type cluster struct {
	origin   *streaming.Server
	registry *relay.Registry
	regTS    *httptest.Server
	edgeSrv  []*streaming.Server
	edgeTS   []*httptest.Server
}

func newCluster(t *testing.T, asset string) *cluster {
	t.Helper()
	c := &cluster{origin: streaming.NewServer(nil), registry: relay.NewRegistry(nil)}
	c.origin.Pacing = false
	data := encodeTestLecture(t, 2*time.Second, encoder.Config{})
	if _, err := c.origin.RegisterAsset(asset, asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(c.origin.Handler())
	t.Cleanup(originTS.Close)
	for _, id := range []string{"edge-a", "edge-b"} {
		srv := streaming.NewServer(nil)
		srv.Pacing = false
		ts := httptest.NewServer(relay.NewEdge(originTS.URL, srv).Handler())
		t.Cleanup(ts.Close)
		c.edgeSrv = append(c.edgeSrv, srv)
		c.edgeTS = append(c.edgeTS, ts)
		if err := c.registry.Register(relay.NodeInfo{ID: id, URL: ts.URL}); err != nil {
			t.Fatal(err)
		}
	}
	c.regTS = httptest.NewServer(c.registry.Handler())
	t.Cleanup(c.regTS.Close)
	return c
}

func TestSpecTarget(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: VOD, Name: "lec-1"}, "/v1/vod/lec-1"},
		{Spec{Kind: VOD, Name: "lec-1", Start: 1500 * time.Millisecond}, "/v1/vod/lec-1?start=1500ms"},
		{Spec{Kind: Group, Name: "g", Bandwidth: 768000}, "/v1/group/g?bw=768000"},
		{Spec{Kind: Live, Name: "class"}, "/v1/live/class"},
		{Spec{Kind: VOD, Name: "week 1/intro"}, "/v1/vod/week%201%2Fintro"},
	} {
		if got := tc.spec.Target(); got != tc.want {
			t.Errorf("Target(%+v) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cl := New("http://registry")
	ctx := context.Background()
	for _, spec := range []Spec{
		{},                         // no kind
		{Kind: VOD},                // no name
		{Kind: "fetch", Name: "a"}, // mirror path, not a viewer stream
		{Kind: "bogus", Name: "a"}, // unknown kind
		{Kind: VOD, Name: "a", Start: -time.Second},
		{Kind: Live, Name: "a", Start: time.Second}, // live has no seek
		{Kind: VOD, Name: "a", Bandwidth: 1},        // bw is a group knob
		{Kind: Group, Name: "a", Bandwidth: -1},
		{Kind: VOD, Name: "a", Failover: -1},
	} {
		if _, err := cl.Open(ctx, spec); err == nil {
			t.Errorf("Open(%+v) accepted", spec)
		}
	}
	if _, err := cl.Open(ctx, Spec{Kind: VOD, Name: "a"}); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}

// TestPlayThroughCluster is the SDK happy path: a VOD spec resolved
// through the registry's /v1 redirect, mirrored onto an edge, played to
// completion, with the serving edge reported in Stats.
func TestPlayThroughCluster(t *testing.T) {
	c := newCluster(t, "lec")
	cl := New(c.regTS.URL)
	sess, err := cl.Open(context.Background(), Spec{Kind: VOD, Name: "lec"})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Play()
	if err != nil {
		t.Fatal(err)
	}
	if m.SlidesShown != 2 || m.BrokenFrames != 0 || m.BytesRead == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	st := sess.Stats()
	if st.Edge == "" || st.Failovers != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want a clean run with a serving edge", st)
	}
	// No viewer session ever reached the origin directly.
	if got := c.origin.Stats().VODSessions; got != 0 {
		t.Fatalf("origin VOD sessions = %d, want 0 (mirror only)", got)
	}
}

// TestEscapedNameEndToEnd is the client half of the escaping bugfix: an
// asset whose name carries spaces, a slash, a percent sign, and query
// metacharacters must round-trip registry→edge→origin through the SDK,
// byte-identical to a direct play. Before proto.StreamPath, callers
// built this path by concatenation and the request shattered.
func TestEscapedNameEndToEnd(t *testing.T) {
	const name = "week 1/lec 50% ?&#"
	c := newCluster(t, name)
	cl := New(c.regTS.URL)
	sess, err := cl.Open(context.Background(), Spec{Kind: VOD, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sess.Target(), "week%201%2Flec%2050%25%20%3F&%23") {
		t.Fatalf("target not escaped: %q", sess.Target())
	}
	m, err := sess.Play()
	if err != nil {
		t.Fatal(err)
	}
	if m.SlidesShown != 2 || m.BytesRead == 0 {
		t.Fatalf("escaped-name play metrics = %+v", m)
	}
	// The edge mirrored it under the decoded name.
	mirrored := false
	for _, ts := range c.edgeTS {
		resp, err := http.Get(ts.URL + proto.Versioned(proto.PathAssets))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), "week 1/lec 50%") {
			mirrored = true
		}
	}
	if !mirrored {
		t.Fatal("no edge lists the escaped-name asset under its decoded name")
	}
}

// TestSeekSpecPlaysTail: a Start offset reaches the server and strictly
// fewer bytes come back.
func TestSeekSpecPlaysTail(t *testing.T) {
	c := newCluster(t, "short")
	// Two GOPs: a modem-56k lecture has a video keyframe every 5 s, and a
	// seek past the second one plays a strict tail.
	data := encodeTestLecture(t, 6*time.Second, encoder.Config{})
	if _, err := c.origin.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	cl := New(c.regTS.URL)
	full, err := cl.Open(context.Background(), Spec{Kind: VOD, Name: "lec"})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := full.Play()
	if err != nil {
		t.Fatal(err)
	}
	seeked, err := cl.Open(context.Background(), Spec{Kind: VOD, Name: "lec", Start: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := seeked.Play()
	if err != nil {
		t.Fatal(err)
	}
	if sm.BytesRead >= fm.BytesRead {
		t.Fatalf("seeked read %d bytes, full read %d", sm.BytesRead, fm.BytesRead)
	}
}

// TestFetchRawPackets covers the packet-read half of the Session
// interface: the raw container body parses as header + packets.
func TestFetchRawPackets(t *testing.T) {
	c := newCluster(t, "lec")
	cl := New(c.regTS.URL)
	sess, err := cl.Open(context.Background(), Spec{Kind: VOD, Name: "lec"})
	if err != nil {
		t.Fatal(err)
	}
	body, err := sess.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	r := asf.NewReader(body)
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	packets := 0
	for {
		if _, err := r.ReadPacket(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		packets++
	}
	if packets == 0 {
		t.Fatal("raw fetch returned no packets")
	}
	if st := sess.Stats(); st.Edge == "" {
		t.Fatalf("stats after fetch = %+v, want the serving edge", st)
	}
}

// TestFailsOverToLiveEdge: the preferred edge is a corpse; the session
// must escape it, report it dead, ask the registry again excluding
// exactly the corpse, and complete on the live one, with the failover
// visible in Stats.
func TestFailsOverToLiveEdge(t *testing.T) {
	c := newCluster(t, "lec")
	// Kill whichever edge the consistent-hash ring prefers for the
	// asset, so the registry's first redirect hands the client a corpse
	// (the registry doesn't know yet — nothing reported the death).
	preferred, err := c.registry.PickFor(proto.StreamPath(proto.StreamVOD, "lec"))
	if err != nil {
		t.Fatal(err)
	}
	var deadURL string
	for i, id := range []string{"edge-a", "edge-b"} {
		if id == preferred.ID {
			deadURL = c.edgeTS[i].URL
			c.edgeTS[i].Close()
		}
	}
	reqs := &requestLog{}
	cl := New(c.regTS.URL, WithHTTPClient(&http.Client{Transport: reqs}))
	var retried []string
	sess, err := cl.Open(context.Background(), Spec{Kind: VOD, Name: "lec", Failover: 3,
		OnRetry: func(edge string, err error) { retried = append(retried, edge) }})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Play()
	if err != nil {
		t.Fatalf("session died despite failover budget: %v", err)
	}
	if m.SlidesShown != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	st := sess.Stats()
	if st.Failovers < 1 || st.Retries < 1 {
		t.Fatalf("stats = %+v, want at least one failover", st)
	}
	if strings.Contains(deadURL, st.Edge) {
		t.Fatalf("final edge %q is the corpse", st.Edge)
	}
	corpse := strings.TrimPrefix(deadURL, "http://")
	if len(retried) != 1 || retried[0] != corpse {
		t.Fatalf("OnRetry saw %v, want the corpse %s once", retried, corpse)
	}
	// The registry was asked twice: first with no exclude, then excluding
	// exactly the corpse.
	var excludes []string
	for _, r := range reqs.seen() {
		if r.Method == http.MethodGet && "http://"+r.URL.Host == c.regTS.URL {
			excludes = append(excludes, r.Header.Get(proto.ExcludeHeader))
		}
	}
	if len(excludes) != 2 || excludes[0] != "" || excludes[1] != corpse {
		t.Fatalf("registry requests carried excludes %q, want [\"\" %q]", excludes, corpse)
	}
	// The corpse was reported: the registry marks it dead for everyone.
	for _, n := range c.registry.Nodes() {
		if n.ID == preferred.ID && n.Health != proto.HealthDead {
			t.Fatalf("%s health = %q, want dead", preferred.ID, n.Health)
		}
	}
}

// TestNodesListsHealth covers the registry control plane through the
// SDK: per-node health labels and heartbeat ages, including a draining
// node.
func TestNodesListsHealth(t *testing.T) {
	c := newCluster(t, "lec")
	if !c.registry.Deregister("edge-b") {
		t.Fatal("deregister failed")
	}
	cl := New(c.regTS.URL)
	nodes, err := cl.Nodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("nodes = %+v, want 2", nodes)
	}
	byID := map[string]proto.NodeStatus{}
	for _, n := range nodes {
		byID[n.ID] = n
		if n.HeartbeatAgeSec < 0 || n.HeartbeatAgeSec > 60 {
			t.Fatalf("implausible heartbeat age: %+v", n)
		}
	}
	if byID["edge-a"].Health != proto.HealthAlive {
		t.Fatalf("edge-a = %+v, want alive", byID["edge-a"])
	}
	if byID["edge-b"].Health != proto.HealthDraining || byID["edge-b"].Alive {
		t.Fatalf("edge-b = %+v, want draining", byID["edge-b"])
	}
}
