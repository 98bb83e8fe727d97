package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/check"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/streaming"
	"repro/internal/testutil"
)

func TestRegisterDemo(t *testing.T) {
	srv := streaming.NewServer(nil)
	if err := registerDemo(srv); err != nil {
		t.Fatalf("registerDemo: %v", err)
	}
	a, ok := srv.Asset("demo")
	if !ok {
		t.Fatal("demo asset not registered")
	}
	if a.Header.Title != "Demo lecture" || len(a.SharedPackets()) == 0 {
		t.Fatalf("demo asset malformed: %q, %d packets", a.Header.Title, len(a.SharedPackets()))
	}
}

func TestAssetFlagParsing(t *testing.T) {
	flags := assetFlags{}
	if err := flags.Set("name=path.asf"); err != nil {
		t.Fatal(err)
	}
	if flags["name"] != "path.asf" {
		t.Fatalf("flags = %v", flags)
	}
	for _, bad := range []string{"nopath", "=x", "y="} {
		if err := flags.Set(bad); err == nil {
			t.Errorf("bad flag %q accepted", bad)
		}
	}
	if flags.String() == "" {
		t.Error("String() empty")
	}
}

func TestRunRejectsMissingAssetFile(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0", "-asset", "x=/does/not/exist"}); err == nil {
		t.Fatal("missing asset file accepted")
	}
}

func TestParseConfigClusterFlags(t *testing.T) {
	// Registering with a remote registry requires an advertised edge URL.
	if _, err := parseConfig([]string{"-registry", "http://reg:9090"}); err == nil {
		t.Fatal("registry URL without -edge accepted")
	}
	// Edges mirror origin content; local asset flags conflict.
	if _, err := parseConfig([]string{"-origin", "http://origin:8080", "-demo"}); err == nil {
		t.Fatal("-origin with -demo accepted")
	}

	c, err := parseConfig([]string{
		"-origin", "http://origin:8080",
		"-edge", "http://edge1:8081",
		"-registry", "http://origin:9090",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.hostsRegistry() {
		t.Fatal("registry URL misread as a listen address")
	}

	c, err = parseConfig([]string{"-demo", "-registry", ":9090", "-capacity-bps", "1000000"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.hostsRegistry() {
		t.Fatal("listen address misread as a registry URL")
	}
	if c.capacity != 1_000_000 {
		t.Fatalf("capacity = %d", c.capacity)
	}
}

func TestParseConfigCacheAndMetricsFlags(t *testing.T) {
	// The mirror cache bound only makes sense on an edge.
	if _, err := parseConfig([]string{"-cache-bytes", "1024"}); err == nil {
		t.Fatal("-cache-bytes without -origin accepted")
	}
	if _, err := parseConfig([]string{"-origin", "http://o:8080", "-cache-bytes", "-1"}); err == nil {
		t.Fatal("negative -cache-bytes accepted")
	}

	c, err := parseConfig([]string{"-origin", "http://o:8080", "-cache-bytes", "4096"})
	if err != nil {
		t.Fatal(err)
	}
	if c.cacheBytes != 4096 {
		t.Fatalf("cacheBytes = %d", c.cacheBytes)
	}

	// Metrics are not optional: every role's handler serves its own
	// /v1/metrics and /v1/status, so there is no flag to turn them off.
	if _, err := parseConfig([]string{"-metrics=false"}); err == nil {
		t.Fatal("-metrics accepted, but there is no way to turn metrics off")
	}
}

func TestParseConfigDrainFlag(t *testing.T) {
	c, err := parseConfig([]string{"-drain", "3s"})
	if err != nil {
		t.Fatal(err)
	}
	if c.drain != 3*time.Second {
		t.Fatalf("drain = %v", c.drain)
	}
	if _, err := parseConfig([]string{"-drain", "-1s"}); err == nil {
		t.Fatal("negative -drain accepted")
	}
	// The default leaves room for in-flight sessions.
	c, err = parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.drain <= 0 {
		t.Fatalf("default drain = %v, want positive", c.drain)
	}
}

// TestListenerDropsSilentConnection: every listener runs under a header
// deadline and no write deadline, so a client that connects and never
// sends a request is disconnected; and after shutdown a dial is refused.
func TestListenerDropsSilentConnection(t *testing.T) {
	srv := streaming.NewServer(nil)
	hs := newHTTPServer("127.0.0.1:0", srv.Handler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("listener without header/idle deadlines: %v / %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v would cut a lecture short", hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond // the production value, shortened for the test
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Nothing is sent. The server must hang up, not wait: the copy ends
	// at EOF (or a reset) well before the read deadline.
	var ne net.Error
	if _, err := io.Copy(io.Discard, conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("silent connection still open after 50× the header deadline")
	}

	shutdown(&config{drain: time.Second}, []*http.Server{hs})
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v after shutdown, want ErrServerClosed", err)
	}
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("a dial after shutdown was accepted")
	}
}

// encodeLecture returns a stored container of a dur-long lecture.
func encodeLecture(t *testing.T, dur time.Duration) []byte {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "exit test", Duration: dur, Profile: p, SlideCount: 2, Seed: 48,
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

// serveEdge starts a pacing edge of origin on a loopback listener under
// the listener settings lodserver uses, and registers it with reg the
// way lodserver does (its ID is its URL).
func serveEdge(t *testing.T, origin string, reg *relay.Registry) (*streaming.Server, *http.Server, string) {
	t.Helper()
	srv := streaming.NewServer(nil)
	srv.Pacing = true
	hs := newHTTPServer("127.0.0.1:0", relay.NewEdge(origin, srv).Handler())
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { hs.Close() })
	base := "http://" + ln.Addr().String()
	if err := reg.Register(relay.NodeInfo{ID: base, URL: base}); err != nil {
		t.Fatal(err)
	}
	return srv, hs, base
}

// reading reads a session's body to its end on its own goroutine. n
// counts the bytes read so far; done yields the body and the error that
// ended it (nil at io.EOF).
type reading struct {
	src  io.Reader
	n    atomic.Int64
	done chan readResult
}

type readResult struct {
	body []byte
	err  error
}

func (rd *reading) Read(p []byte) (int, error) {
	n, err := rd.src.Read(p)
	rd.n.Add(int64(n))
	return n, err
}

func readAsync(sess *client.Session) *reading {
	rd := &reading{src: sess, done: make(chan readResult, 1)}
	go func() {
		body, err := io.ReadAll(rd)
		rd.done <- readResult{body, err}
	}()
	return rd
}

// TestShutdownHandsViewersToAnotherEdge drives a node's exit on a real
// cluster: a registry, an origin and two pacing edges on loopback
// listeners. The edge serving a stored viewer mid-body is shut down with
// a short grace: it leaves the registry's rotation as draining, the
// viewer is cut at the close, reports the edge, and continues the same
// body byte for byte on the other edge; a live viewer of the drained
// edge ends with an error, as a live body cut mid-read does. Then the
// other edge is shut down with a grace longer than its one short
// session, which finishes there untouched.
func TestShutdownHandsViewersToAnotherEdge(t *testing.T) {
	lecture := encodeLecture(t, 3*time.Second)
	short := encodeLecture(t, time.Second)
	origin := streaming.NewServer(nil)
	for name, data := range map[string][]byte{"lec": lecture, "short": short} {
		if _, err := origin.RegisterAsset(name, asf.NewReader(bytes.NewReader(data))); err != nil {
			t.Fatal(err)
		}
	}
	h, packets, _, err := asf.ReadAll(bytes.NewReader(lecture))
	if err != nil {
		t.Fatal(err)
	}
	class, err := origin.CreateChannel("class", h)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets[:10] {
		if err := class.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	originTS := httptest.NewServer(origin.Handler())
	t.Cleanup(originTS.Close)
	t.Cleanup(class.Close) // before the origin closes: the edge's relay is one of its requests
	registry := relay.NewRegistry(nil)
	t.Cleanup(registry.Close)
	regTS := httptest.NewServer(registry.Handler())
	t.Cleanup(regTS.Close)

	edgeSrv := map[string]*streaming.Server{}
	listener := map[string]*http.Server{}
	for i := 0; i < 2; i++ {
		srv, hs, base := serveEdge(t, originTS.URL, registry)
		host := strings.TrimPrefix(base, "http://")
		edgeSrv[host], listener[host] = srv, hs
	}

	ctx := context.Background()
	stored, err := client.New(regTS.URL).Open(ctx, client.Spec{Kind: client.VOD, Name: "lec", Failover: 3})
	if err != nil {
		t.Fatal(err)
	}
	storedRead := readAsync(stored)
	want, err := check.StoredBody(lecture, 0)
	if err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool { return stored.Stats().Edge != "" && storedRead.n.Load() > 0 },
		"stored viewer never started")
	drained := stored.Stats().Edge

	live, err := client.New("http://"+drained).Open(ctx, client.Spec{Kind: client.Live, Name: "class", Failover: 3})
	if err != nil {
		t.Fatal(err)
	}
	liveRead := readAsync(live)
	testutil.WaitUntil(t, 10*time.Second, func() bool { return liveRead.n.Load() > 0 }, "live viewer never started")

	// Mid-body: a quarter of the paced lecture has been read.
	testutil.WaitUntil(t, 10*time.Second, func() bool { return storedRead.n.Load() > int64(len(want)/4) },
		"stored viewer never got a quarter of the lecture")
	if stored.Stats().Edge != drained {
		t.Fatalf("stored viewer moved from %s to %s before the exit", drained, stored.Stats().Edge)
	}
	const grace = 150 * time.Millisecond
	began := time.Now()
	shutdown(&config{registry: regTS.URL, edgeURL: "http://" + drained, drain: grace}, []*http.Server{listener[drained]})
	if took := time.Since(began); took > grace+time.Second {
		t.Fatalf("shutdown took %v with a %v grace", took, grace)
	}
	if read := storedRead.n.Load(); read >= int64(len(want)) {
		t.Fatalf("the whole body (%d bytes) was read before the close; no cut to ride out", read)
	}

	res := <-storedRead.done
	st := stored.Stats()
	if res.err != nil {
		t.Fatalf("stored viewer failed: %v (stats %+v)", res.err, st)
	}
	if err := check.Body(bytes.NewReader(res.body), want); err != nil {
		t.Fatal(err)
	}
	if st.Failovers != 1 || st.Edge == drained {
		t.Fatalf("stored viewer stats %+v, want one failover off %s", st, drained)
	}
	if edgeSrv[st.Edge].Stats().VODSessions == 0 {
		t.Fatalf("edge %s served no session", st.Edge)
	}

	liveRes := <-liveRead.done
	if liveRes.err == nil || errors.Is(liveRes.err, io.EOF) {
		t.Fatalf("live viewer of the drained edge ended with %v, want a cut", liveRes.err)
	}

	// The viewer reported the edge it lost; the registry counted the
	// report and kept the node draining, not dead.
	if got := registry.Metrics().Status()["lod_registry_failure_reports_total"]; got < 1 {
		t.Fatalf("failure reports = %v, want the viewer's", got)
	}
	for _, n := range registry.Nodes() {
		want := proto.HealthAlive
		if n.URL == "http://"+drained {
			want = proto.HealthDraining
		}
		if n.Health != want {
			t.Fatalf("node %s health %q, want %q", n.ID, n.Health, want)
		}
	}

	// A grace longer than a session lets it finish where it is.
	survivor := st.Edge
	shortSess, err := client.New(regTS.URL).Open(ctx, client.Spec{Kind: client.VOD, Name: "short", Failover: 3})
	if err != nil {
		t.Fatal(err)
	}
	shortRead := readAsync(shortSess)
	testutil.WaitUntil(t, 10*time.Second, func() bool { return shortRead.n.Load() > 0 }, "short session never started")
	began = time.Now()
	shutdown(&config{registry: regTS.URL, edgeURL: "http://" + survivor, drain: 10 * time.Second}, []*http.Server{listener[survivor]})
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("shutdown took %v after a one-second session ended", took)
	}
	shortRes := <-shortRead.done
	if shortRes.err != nil {
		t.Fatalf("short session failed: %v", shortRes.err)
	}
	wantShort, err := check.StoredBody(short, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Body(bytes.NewReader(shortRes.body), wantShort); err != nil {
		t.Fatal(err)
	}
	if st := shortSess.Stats(); st.Failovers != 0 || st.Edge != survivor {
		t.Fatalf("short session stats %+v, want 0 failovers on %s", st, survivor)
	}
}
