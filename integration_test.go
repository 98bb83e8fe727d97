package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/player"
	"repro/internal/proto"
	"repro/internal/publish"
	"repro/internal/relay"
	"repro/internal/session"
	"repro/internal/streaming"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// scrapeMetrics fetches the role's GET /v1/metrics at base and parses
// the Prometheus text exposition into series name (with labels) → value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + proto.Versioned(proto.PathMetrics))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s metrics: %s", base, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// play plays spec through the session SDK from base — a registry, or a
// serving node that answers the first leg itself.
func play(base string, spec client.Spec) (*player.Metrics, error) {
	sess, err := client.New(base).Open(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return sess.Play()
}

// publishLecture runs the §3 publishing workflow on a recorded lecture —
// raw capture files in workDir, remuxed with its slides into name.asf —
// and registers the published file with server under name.
func publishLecture(t *testing.T, server *streaming.Server, lec *capture.Lecture, workDir, name string) (*publish.Result, *streaming.Asset) {
	t.Helper()
	raw, err := publish.WriteRawLecture(lec, workDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := publish.Publish(publish.Request{
		Title: lec.Title, VideoPath: raw.VideoPath, SlidesDir: raw.SlidesDir,
		OutputPath: filepath.Join(workDir, name+".asf"),
	})
	if err != nil {
		t.Fatal(err)
	}
	published, err := os.ReadFile(res.AssetPath)
	if err != nil {
		t.Fatal(err)
	}
	asset, err := server.RegisterAsset(name, asf.NewReader(bytes.NewReader(published)))
	if err != nil {
		t.Fatal(err)
	}
	return res, asset
}

// TestRecordPublishReplayPipeline walks one lecture through the WMPS
// pipeline: record, publish with its slides, register, and replay over
// HTTP. Every recorded frame and slide comes back, none broken.
func TestRecordPublishReplayPipeline(t *testing.T) {
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "pipeline lecture", Duration: 4 * time.Second, Profile: profile,
		SlideCount: 4, AnnotationEvery: 2 * time.Second, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	server := streaming.NewServer(nil)
	server.Pacing = false
	res, _ := publishLecture(t, server, lec, t.TempDir(), "lecture1")
	if res.Slides != 4 {
		t.Fatalf("published %d slides", res.Slides)
	}
	if res.Tree == nil || res.Tree.Len() != 4 {
		t.Fatal("content tree missing or wrong size")
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	m, err := play(ts.URL, client.Spec{Kind: client.VOD, Name: "lecture1"})
	if err != nil {
		t.Fatal(err)
	}
	if m.SlidesShown != 4 {
		t.Errorf("replay showed %d slides", m.SlidesShown)
	}
	if m.VideoFrames != len(lec.Video) {
		t.Errorf("replay frames = %d, want %d", m.VideoFrames, len(lec.Video))
	}
	if m.BrokenFrames != 0 {
		t.Errorf("broken frames on a clean pipeline: %d", m.BrokenFrames)
	}
}

// TestReplayUnknownAsset asks a server for a lecture it never published:
// the student's session fails with the server's 404 instead of playing
// an empty stream.
func TestReplayUnknownAsset(t *testing.T) {
	ts := httptest.NewServer(streaming.NewServer(nil).Handler())
	defer ts.Close()
	m, err := play(ts.URL, client.Spec{Kind: client.VOD, Name: "ghost"})
	var pe *proto.Error
	if !errors.As(err, &pe) || pe.Status != http.StatusNotFound {
		t.Fatalf("unknown asset: metrics %+v, err %v; want a 404", m, err)
	}
}

// TestFullDistributedPipeline is the end-to-end integration test: record a
// lecture, publish it, serve it over a real HTTP socket at two bitrates,
// replay it (full and seeked), run the live classroom with floor control
// over the REST API, and cross-check every artifact.
func TestFullDistributedPipeline(t *testing.T) {
	workDir := t.TempDir()
	server := streaming.NewServer(nil)
	server.Pacing = false // wall-clock pacing is covered elsewhere

	// --- Record and publish. ---
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Integration lecture", Duration: 12 * time.Second, Profile: profile,
		SlideCount: 4, AnnotationEvery: 5 * time.Second, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	pubRes, baseAsset := publishLecture(t, server, lec, workDir, "integration")
	if pubRes.Slides != 4 {
		t.Fatalf("published %d slides", pubRes.Slides)
	}

	// --- A second, richer variant forms a multi-rate group. ---
	rich, err := codec.ByName("dsl-300k")
	if err != nil {
		t.Fatal(err)
	}
	richLec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Integration lecture", Duration: 12 * time.Second, Profile: rich,
		SlideCount: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	var richBuf bytes.Buffer
	if _, err := encoder.EncodeLecture(richLec, encoder.Config{}, &richBuf); err != nil {
		t.Fatal(err)
	}
	richAsset, err := server.RegisterAsset("integration-rich", asf.NewReader(bytes.NewReader(richBuf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.CreateRateGroup("integration-group", baseAsset, richAsset); err != nil {
		t.Fatal(err)
	}

	// --- Serve over a real socket. ---
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// Full VOD replay over HTTP.
	m, err := play(ts.URL, client.Spec{Kind: client.VOD, Name: "integration"})
	if err != nil {
		t.Fatal(err)
	}
	if m.SlidesShown != 4 || m.BrokenFrames != 0 {
		t.Fatalf("VOD replay: slides=%d broken=%d", m.SlidesShown, m.BrokenFrames)
	}

	// Seeked replay delivers strictly fewer packets but still works.
	seeked, err := play(ts.URL, client.Spec{Kind: client.VOD, Name: "integration", Start: 6 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if seeked.BytesRead >= m.BytesRead {
		t.Fatalf("seeked replay read %d bytes, full read %d", seeked.BytesRead, m.BytesRead)
	}

	// Multi-rate selection: modem bandwidth gets the lean variant.
	lean, err := play(ts.URL, client.Spec{Kind: client.Group, Name: "integration-group", Bandwidth: 60000})
	if err != nil {
		t.Fatal(err)
	}
	fat, err := play(ts.URL, client.Spec{Kind: client.Group, Name: "integration-group", Bandwidth: 5000000})
	if err != nil {
		t.Fatal(err)
	}
	if lean.BytesRead >= fat.BytesRead {
		t.Fatalf("rate selection broken: lean %d bytes, fat %d bytes", lean.BytesRead, fat.BytesRead)
	}

	// --- Live broadcast to concurrent students. ---
	liveLec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Live integration", Duration: 3 * time.Second, Profile: profile,
		SlideCount: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var liveBuf bytes.Buffer
	if _, err := encoder.EncodeLecture(liveLec, encoder.Config{Live: true, LeadTime: time.Second}, &liveBuf); err != nil {
		t.Fatal(err)
	}
	liveHeader, livePackets, _, err := asf.ReadAll(bytes.NewReader(liveBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	channel, err := server.CreateChannel("live-int", liveHeader)
	if err != nil {
		t.Fatal(err)
	}
	const students = 4
	var wg sync.WaitGroup
	results := make([]*player.Metrics, students)
	errs := make([]error, students)
	for i := 0; i < students; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = play(ts.URL, client.Spec{Kind: client.Live, Name: "live-int"})
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for channel.ClientCount() < students && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := channel.PublishPaced(ctx, vclock.Real{}, livePackets); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	channel.Close()
	wg.Wait()
	for i := 0; i < students; i++ {
		if errs[i] != nil {
			t.Fatalf("student %d: %v", i, errs[i])
		}
		if results[i].SlidesShown != 2 {
			t.Fatalf("student %d saw %d slides", i, results[i].SlidesShown)
		}
	}

	// --- Classroom REST API with floor control. ---
	class := session.NewClassroom("integration", nil)
	api := httptest.NewServer(session.NewAPI(class).Handler())
	defer api.Close()
	httpPost := func(path string, params url.Values) int {
		resp, err := api.Client().Post(api.URL+path+"?"+params.Encode(), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := httpPost("/class/join", url.Values{"user": {"prof"}, "role": {"teacher"}}); code != 200 {
		t.Fatalf("teacher join: %d", code)
	}
	for i := 0; i < students; i++ {
		if code := httpPost("/class/join", url.Values{"user": {fmt.Sprintf("s%d", i)}}); code != 200 {
			t.Fatalf("student join: %d", code)
		}
	}
	if code := httpPost("/class/annotate", url.Values{"user": {"prof"}, "text": {"welcome"}}); code != 204 {
		t.Fatalf("teacher annotate: %d", code)
	}
	if code := httpPost("/class/floor/request", url.Values{"user": {"s0"}}); code != 200 {
		t.Fatalf("floor request: %d", code)
	}
	if code := httpPost("/class/annotate", url.Values{"user": {"s0"}, "text": {"question"}}); code != 204 {
		t.Fatalf("holder annotate: %d", code)
	}
	if code := httpPost("/class/floor/release", url.Values{"user": {"s0"}}); code != 200 {
		t.Fatalf("floor release: %d", code)
	}
	resp, err := api.Client().Get(api.URL + "/class/annotations?since=0")
	if err != nil {
		t.Fatal(err)
	}
	var anns []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&anns); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(anns) != 2 {
		t.Fatalf("annotations = %d, want 2", len(anns))
	}
	if err := class.Floor.VerifyAgainstModel(); err != nil {
		t.Fatalf("floor log deviates from Petri model: %v", err)
	}

	// --- The content tree of the published lecture matches the recording. ---
	tree, err := publish.BuildContentTree(lec.Title, lec.Slides, lec.Duration, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.PresentationTime(tree.HighestLevel()) != lec.Duration {
		t.Fatal("content tree does not cover the lecture")
	}
	// Server statistics reflect the sessions we ran.
	st := server.Stats()
	if st.VODSessions < 4 || st.LiveSessions != students {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestRelayCluster is the distributed deployment end-to-end: one origin,
// two edge nodes pulling through from it, and a cluster registry that
// 307-redirects clients to the less-loaded edge. Both a mirrored VOD
// asset and a relayed live channel are played through the cluster.
func TestRelayCluster(t *testing.T) {
	// --- Origin: one published asset and one live channel. ---
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Cluster lecture", Duration: 6 * time.Second, Profile: profile,
		SlideCount: 3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var vodBuf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &vodBuf); err != nil {
		t.Fatal(err)
	}
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	if _, err := origin.RegisterAsset("cluster-lec", asf.NewReader(bytes.NewReader(vodBuf.Bytes()))); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	// --- Two edges and the registry. ---
	newEdge := func() (*relay.Edge, *httptest.Server) {
		srv := streaming.NewServer(nil)
		srv.Pacing = false
		edge := relay.NewEdge(originTS.URL, srv)
		ts := httptest.NewServer(edge.Handler())
		t.Cleanup(ts.Close)
		return edge, ts
	}
	edgeA, edgeATS := newEdge()
	edgeB, edgeBTS := newEdge()

	registry := relay.NewRegistry(nil)
	regTS := httptest.NewServer(registry.Handler())
	defer regTS.Close()
	if err := relay.RegisterWith(context.Background(), nil, regTS.URL, relay.NodeInfo{ID: "edge-a", URL: edgeATS.URL}); err != nil {
		t.Fatal(err)
	}
	if err := relay.RegisterWith(context.Background(), nil, regTS.URL, relay.NodeInfo{ID: "edge-b", URL: edgeBTS.URL}); err != nil {
		t.Fatal(err)
	}

	// --- VOD through the cluster, via the session SDK: the session asks
	// the registry, follows the /v1 307, and the chosen edge mirrors the
	// asset on first demand. ---
	sdk := client.New(regTS.URL)
	playVOD := func() *player.Metrics {
		t.Helper()
		sess, err := sdk.Open(context.Background(), client.Spec{Kind: client.VOD, Name: "cluster-lec"})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Play()
		if err != nil {
			t.Fatal(err)
		}
		if st := sess.Stats(); st.Edge == "" {
			t.Fatalf("session stats = %+v, want a serving edge", st)
		}
		return m
	}
	direct, err := play(originTS.URL, client.Spec{Kind: client.VOD, Name: "cluster-lec"})
	if err != nil {
		t.Fatal(err)
	}
	viaCluster := playVOD()
	if viaCluster.SlidesShown != 3 || viaCluster.BrokenFrames != 0 {
		t.Fatalf("cluster VOD replay: %+v", viaCluster)
	}
	if viaCluster.BytesRead != direct.BytesRead {
		t.Fatalf("cluster replay read %d bytes, direct %d", viaCluster.BytesRead, direct.BytesRead)
	}
	// The consistent-hash ring pins the asset to one edge, so a second
	// play lands on the same edge and is served from its mirror — the
	// asset is mirrored once, not once per edge.
	playVOD()
	type clusterNode struct {
		id   string
		edge *relay.Edge
		ts   *httptest.Server
	}
	pair := []clusterNode{{"edge-a", edgeA, edgeATS}, {"edge-b", edgeB, edgeBTS}}
	prefInfo, err := registry.PickFor(proto.StreamPath(proto.StreamVOD, "cluster-lec"))
	if err != nil {
		t.Fatal(err)
	}
	pref, other := pair[0], pair[1]
	if prefInfo.ID == pair[1].id {
		pref, other = pair[1], pair[0]
	}
	if _, ok := pref.edge.Server.Asset("cluster-lec"); !ok {
		t.Fatalf("preferred edge %s never mirrored the asset", pref.id)
	}
	if _, ok := other.edge.Server.Asset("cluster-lec"); ok {
		t.Fatal("asset mirrored onto both edges despite ring affinity")
	}
	if got := origin.Stats().MirrorFetches; got != 1 {
		t.Fatalf("origin mirror fetches = %d, want the preferred edge's single pull", got)
	}

	// The preferred edge is reported dead: the next play falls back to
	// the other edge, which mirrors on first demand — failover costs one
	// extra origin pull, not a reshuffle of every asset.
	if !registry.ReportFailure(pref.id) {
		t.Fatalf("failure report for %s ignored", pref.id)
	}
	playVOD()
	if _, ok := other.edge.Server.Asset("cluster-lec"); !ok {
		t.Fatalf("fallback edge %s never mirrored the asset", other.id)
	}
	if got := origin.Stats().MirrorFetches; got != 2 {
		t.Fatalf("origin mirror fetches = %d, want one per edge", got)
	}
	if got := origin.Stats().VODSessions; got != 1 {
		t.Fatalf("origin VOD sessions = %d, want only the direct play", got)
	}
	// The preferred edge revives on its next heartbeat; affinity snaps
	// back and a third play is served from its existing mirror.
	if _, err := relay.Heartbeat(context.Background(), nil, regTS.URL, pref.id, relay.SnapshotStats(pref.edge.Server)); err != nil {
		t.Fatal(err)
	}
	playVOD()
	if got := origin.Stats().MirrorFetches; got != 2 {
		t.Fatalf("origin mirror fetches = %d after revival, want the mirrors to be reused", got)
	}

	// --- The registry redirects to the ring's preferred edge, same /v1
	// path; naming that edge's host in the failover header diverts to
	// the other. ---
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	path := proto.Versioned(proto.StreamPath(proto.StreamVOD, "cluster-lec"))
	resp, err := noFollow.Get(regTS.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("registry status for %s = %d, want 307", path, resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != pref.ts.URL+path {
		t.Fatalf("redirect went to %q, want the preferred edge %q", loc, pref.ts.URL+path)
	}
	req, err := http.NewRequest(http.MethodGet, regTS.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(proto.ExcludeHeader, pref.ts.URL)
	resp, err = noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); loc != other.ts.URL+path {
		t.Fatalf("excluded redirect went to %q, want the other edge %q", loc, other.ts.URL+path)
	}

	// --- Live through the cluster: each edge subscribes to the origin
	// once and re-fans-out to its own clients. ---
	liveLec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Cluster live", Duration: 3 * time.Second, Profile: profile,
		SlideCount: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var liveBuf bytes.Buffer
	if _, err := encoder.EncodeLecture(liveLec, encoder.Config{Live: true}, &liveBuf); err != nil {
		t.Fatal(err)
	}
	h, packets, _, err := asf.ReadAll(bytes.NewReader(liveBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := origin.CreateChannel("cluster-live", h)
	if err != nil {
		t.Fatal(err)
	}

	// One student pinned to each edge; the edges relay a single origin
	// subscription apiece.
	const students = 2
	var wg sync.WaitGroup
	results := make([]*player.Metrics, students)
	errs := make([]error, students)
	for i, base := range []string{edgeATS.URL, edgeBTS.URL} {
		wg.Add(1)
		go func(id int, url string) {
			defer wg.Done()
			// Pinned to an edge (not through the registry).
			results[id], errs[id] = play(url, client.Spec{Kind: client.Live, Name: "cluster-live"})
		}(i, base)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ch.ClientCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := ch.ClientCount(); got != 2 {
		t.Fatalf("origin live subscribers = %d, want one per edge", got)
	}
	// Wait for each student to attach to its edge channel so nobody
	// misses the first slide.
	for _, e := range []*relay.Edge{edgeA, edgeB} {
		for time.Now().Before(deadline) {
			if ec, ok := e.Server.Channel("cluster-live"); ok && ec.ClientCount() >= 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, p := range packets {
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	ch.Close()
	wg.Wait()
	for i := 0; i < students; i++ {
		if errs[i] != nil {
			t.Fatalf("student %d: %v", i, errs[i])
		}
		if results[i].SlidesShown != 2 || results[i].BrokenFrames != 0 {
			t.Fatalf("student %d metrics: %+v", i, results[i])
		}
	}
	if got := origin.Stats().LiveSessions; got != 2 {
		t.Fatalf("origin live sessions = %d, want one per edge", got)
	}
	for name, e := range map[string]*relay.Edge{"A": edgeA, "B": edgeB} {
		st := e.Server.Stats()
		if st.LiveSessions != 1 {
			t.Fatalf("edge %s served %d live sessions, want 1", name, st.LiveSessions)
		}
	}

	// --- Observability: every role reports the traffic above on its
	// GET /v1/metrics endpoint, mounted by its own handler. ---
	ma := scrapeMetrics(t, edgeATS.URL)
	if ma["lod_edge_cache_hits_total"] < 1 {
		t.Fatalf("edge A cache hits = %v, want >= 1 (third cluster play)", ma["lod_edge_cache_hits_total"])
	}
	if ma["lod_edge_cache_misses_total"] < 1 {
		t.Fatalf("edge A cache misses = %v, want >= 1 (first mirror)", ma["lod_edge_cache_misses_total"])
	}
	if ma["lod_bytes_sent_total"] <= 0 {
		t.Fatal("edge A reports no bytes sent")
	}
	if ma["lod_edge_origin_bytes_total"] <= 0 {
		t.Fatal("edge A reports no origin bytes pulled")
	}
	if ma[`lod_sessions_started_total{kind="live"}`] != 1 {
		t.Fatalf("edge A live sessions metric = %v, want 1", ma[`lod_sessions_started_total{kind="live"}`])
	}
	if mb := scrapeMetrics(t, edgeBTS.URL); mb["lod_edge_cache_misses_total"] < 1 {
		t.Fatalf("edge B cache misses = %v, want >= 1", mb["lod_edge_cache_misses_total"])
	}
	mo := scrapeMetrics(t, originTS.URL)
	if mo["lod_mirror_fetches_total"] != 2 {
		t.Fatalf("origin mirror fetch metric = %v, want one per edge", mo["lod_mirror_fetches_total"])
	}
	if mo["lod_bytes_sent_total"] <= 0 {
		t.Fatal("origin reports no bytes sent")
	}
	mr := scrapeMetrics(t, regTS.URL)
	if mr["lod_registry_redirects_total"] < 3 {
		t.Fatalf("registry redirects = %v, want >= 3", mr["lod_registry_redirects_total"])
	}
	if mr["lod_registry_nodes_alive"] != 2 {
		t.Fatalf("registry alive nodes = %v, want 2", mr["lod_registry_nodes_alive"])
	}

	// --- Per-node health through the SDK control plane: both edges
	// alive, with fresh heartbeats. ---
	nodes, err := sdk.Nodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("node listing = %+v, want 2 entries", nodes)
	}
	for _, n := range nodes {
		if n.Health != proto.HealthAlive || !n.Alive {
			t.Fatalf("node %s health = %q, want alive", n.ID, n.Health)
		}
	}
}

// TestClusterEdgeCacheBounded runs an origin+edge cluster whose edge
// cache budget holds only two of the origin's three assets: concurrent
// cluster traffic must all play intact while the cache drops over-budget
// mirrors, and the eviction counter must show on GET /v1/metrics.
func TestClusterEdgeCacheBounded(t *testing.T) {
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Bounded lecture", Duration: 4 * time.Second, Profile: profile,
		SlideCount: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	const assets = 3
	for i := 0; i < assets; i++ {
		name := fmt.Sprintf("lec%d", i)
		if _, err := origin.RegisterAsset(name, asf.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
			t.Fatal(err)
		}
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()
	asset, _ := origin.Asset("lec0")

	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := relay.NewEdge(originTS.URL, edgeSrv)
	edge.CacheBytes = 2 * asset.Bytes() // below the 3-asset total: must evict
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	direct, err := play(originTS.URL, client.Spec{Kind: client.VOD, Name: "lec0"})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent churn across all three assets: mirrors, hits, and
	// evictions interleave with live sessions. Pinning must keep every
	// in-flight session intact.
	const players = 9
	var wg sync.WaitGroup
	errs := make([]error, players)
	reads := make([]int64, players)
	for i := 0; i < players; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m, err := play(edgeTS.URL, client.Spec{Kind: client.VOD, Name: fmt.Sprintf("lec%d", id%assets)})
			if err != nil {
				errs[id] = err
				return
			}
			reads[id] = m.BytesRead
		}(i)
	}
	wg.Wait()
	for i := 0; i < players; i++ {
		if errs[i] != nil {
			t.Fatalf("player %d failed under cache pressure: %v", i, errs[i])
		}
		if reads[i] != direct.BytesRead {
			t.Fatalf("player %d read %d bytes, direct read %d", i, reads[i], direct.BytesRead)
		}
	}

	// A deterministic sweep with no concurrent pins: demanding all three
	// assets one after another forces at least one eviction, and the
	// final residency fits the budget again.
	for _, name := range []string{"lec0", "lec1", "lec2", "lec0"} {
		if _, err := play(edgeTS.URL, client.Spec{Kind: client.VOD, Name: name}); err != nil {
			t.Fatalf("sequential replay of %s failed: %v", name, err)
		}
	}
	m := scrapeMetrics(t, edgeTS.URL)
	if m["lod_edge_cache_evictions_total"] < 1 {
		t.Fatalf("evictions = %v, want >= 1 with %d bytes for %d assets",
			m["lod_edge_cache_evictions_total"], edge.CacheBytes, assets)
	}
	if got := m["lod_edge_cache_bytes"]; got > float64(edge.CacheBytes) {
		t.Fatalf("resident cache bytes = %v, over the %d budget", got, edge.CacheBytes)
	}
	if m["lod_edge_cache_misses_total"] < assets {
		t.Fatalf("misses = %v, want >= %d", m["lod_edge_cache_misses_total"], assets)
	}
	if m["lod_edge_cache_hits_total"] < 1 {
		t.Fatalf("hits = %v, want >= 1", m["lod_edge_cache_hits_total"])
	}
}

// TestCatalogHotSwap drives the durable control plane end to end over
// real sockets: a running origin/edge/registry cluster with live
// heartbeat loops takes a brand-new publish, a republish of an asset an
// edge has already mirrored, and an unpublish while a read is in
// flight — each change reaching the serving tier through the catalog
// version carried on heartbeat answers, with no restarts anywhere.
func TestCatalogHotSwap(t *testing.T) {
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(title string, dur time.Duration) []byte {
		t.Helper()
		lec, err := capture.NewLecture(capture.LectureConfig{
			Title: title, Duration: dur, Profile: profile, SlideCount: 2, Seed: 7,
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

	origin := streaming.NewServer(nil)
	origin.Pacing = false
	gen1 := encode("swap gen 1", 4*time.Second)
	if _, err := origin.RegisterAsset("swap-lec", asf.NewReader(bytes.NewReader(gen1))); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	registry := relay.NewRegistry(nil)
	defer registry.Close()
	regTS := httptest.NewServer(registry.Handler())
	defer regTS.Close()
	if _, err := registry.PublishAsset("swap-lec"); err != nil {
		t.Fatal(err)
	}

	// Two edges on the full production wiring: heartbeat loops whose
	// answers carry the catalog version, re-syncing on every advance.
	ctx, cancel := context.WithCancel(context.Background())
	var beating sync.WaitGroup
	type node struct {
		edge *relay.Edge
		ts   *httptest.Server
	}
	var nodes []node
	for _, id := range []string{"hot-a", "hot-b"} {
		srv := streaming.NewServer(nil)
		srv.Pacing = false
		edge := relay.NewEdge(originTS.URL, srv)
		ts := httptest.NewServer(edge.Handler())
		defer ts.Close()
		nodes = append(nodes, node{edge, ts})
		hb := &relay.Heartbeats{
			Registry: regTS.URL,
			Info:     relay.NodeInfo{ID: id, URL: ts.URL},
			Snapshot: func() relay.NodeStats { return relay.SnapshotStats(srv) },
			Interval: 10 * time.Millisecond,
			OnCatalog: func(uint64) {
				if err := edge.SyncCatalogFrom(nil, regTS.URL); err != nil {
					t.Logf("catalog sync: %v", err)
				}
			},
		}
		beating.Add(1)
		go func() {
			defer beating.Done()
			_ = hb.Run(ctx)
		}()
	}
	// Deferred after every server's Close, so it runs before them: no
	// beat, and no OnCatalog log, outlives a server or the test.
	defer func() {
		cancel()
		beating.Wait()
	}()
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return len(registry.Nodes()) == 2
	}, "edges never registered")

	playVOD := func(name string) (*player.Metrics, error) {
		return play(regTS.URL, client.Spec{Kind: client.VOD, Name: name})
	}
	directBytes := func(name string) int64 {
		t.Helper()
		m, err := play(originTS.URL, client.Spec{Kind: client.VOD, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return m.BytesRead
	}

	m, err := playVOD("swap-lec")
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes("swap-lec"); m.BytesRead != want {
		t.Fatalf("cluster play read %d bytes, origin serves %d", m.BytesRead, want)
	}
	serving := -1
	for i, n := range nodes {
		if _, ok := n.edge.Server.Asset("swap-lec"); ok {
			serving = i
		}
	}
	if serving < 0 {
		t.Fatal("no edge mirrored the asset")
	}

	// --- A brand-new asset published live: origin push, then the
	// catalog announcement. New sessions can open it immediately — the
	// edge mirror is pulled on first demand. ---
	hot := encode("hot lecture", 2*time.Second)
	if err := relay.PublishAsset(context.Background(), nil, originTS.URL, "hot-lec", bytes.NewReader(hot)); err != nil {
		t.Fatal(err)
	}
	if _, err := relay.PublishCatalog(context.Background(), nil, regTS.URL, proto.PublishMsg{
		Asset: &proto.CatalogAsset{Name: "hot-lec"},
	}); err != nil {
		t.Fatal(err)
	}
	if m, err = playVOD("hot-lec"); err != nil {
		t.Fatal(err)
	}
	if want := directBytes("hot-lec"); m.BytesRead != want {
		t.Fatalf("hot-published play read %d bytes, want %d", m.BytesRead, want)
	}

	// --- Republish the mirrored asset with new bytes: the rev bump
	// rides the next heartbeat and invalidates the stale mirror, so the
	// next play re-pulls gen 2. ---
	gen2 := encode("swap gen 2", 2*time.Second)
	if err := relay.PublishAsset(context.Background(), nil, originTS.URL, "swap-lec", bytes.NewReader(gen2)); err != nil {
		t.Fatal(err)
	}
	if _, err := relay.PublishCatalog(context.Background(), nil, regTS.URL, proto.PublishMsg{
		Asset: &proto.CatalogAsset{Name: "swap-lec"},
	}); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		_, ok := nodes[serving].edge.Server.Asset("swap-lec")
		return !ok
	}, "stale mirror never invalidated after republish")
	if m, err = playVOD("swap-lec"); err != nil {
		t.Fatal(err)
	}
	if want := directBytes("swap-lec"); m.BytesRead != want {
		t.Fatalf("post-republish play read %d bytes, want gen 2's %d", m.BytesRead, want)
	}

	// --- Unpublish while a read is in flight: the open stream finishes
	// on its own reference; once the catalog change propagates, new
	// opens fail cluster-wide. ---
	servingTS := nodes[serving].ts
	resp, err := http.Get(servingTS.URL + "/v1/vod/swap-lec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	inflight := asf.NewReader(resp.Body)
	if _, err := inflight.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	if err := relay.UnpublishAsset(context.Background(), nil, originTS.URL, "swap-lec"); err != nil {
		t.Fatal(err)
	}
	if _, err := relay.UnpublishCatalog(context.Background(), nil, regTS.URL, proto.UnpublishMsg{Asset: "swap-lec"}); err != nil {
		t.Fatal(err)
	}
	packets := 0
	for {
		if _, err := inflight.ReadPacket(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("in-flight stream broken by unpublish: %v", err)
		}
		packets++
	}
	if packets == 0 {
		t.Fatal("in-flight stream delivered nothing")
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		for _, n := range nodes {
			if _, ok := n.edge.Server.Asset("swap-lec"); ok {
				return false
			}
		}
		return true
	}, "mirrors survived the unpublish")
	if _, err := playVOD("swap-lec"); err == nil {
		t.Fatal("unpublished asset still playable through the cluster")
	}
}
