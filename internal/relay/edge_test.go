package relay

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/streaming"
	"repro/internal/testutil"
)

func encodeTestLecture(t *testing.T, dur time.Duration, live bool) []byte {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "relay test", Duration: dur, Profile: p, SlideCount: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{Live: live}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newOriginWithAsset builds an origin server holding one stored asset and
// returns it with its test listener and the container it published.
func newOriginWithAsset(t *testing.T, name string) (*streaming.Server, *httptest.Server, []byte) {
	t.Helper()
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	// Two GOPs: a modem-56k lecture has a video keyframe every 5 s, and
	// a seek past the second one plays a strict tail.
	data := encodeTestLecture(t, 6*time.Second, false)
	if _, err := origin.RegisterAsset(name, asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin.Handler())
	t.Cleanup(ts.Close)
	return origin, ts, data
}

// sameImages reports how a mirror's wire images differ from the origin
// asset's, nil when they are the same bytes.
func sameImages(mirror, origin *streaming.Asset) error {
	got, want := mirror.SharedPackets(), origin.SharedPackets()
	if len(got) != len(want) {
		return fmt.Errorf("the mirror holds %d wire images, the origin %d", len(got), len(want))
	}
	for i, sp := range got {
		if !bytes.Equal(sp.Wire(), want[i].Wire()) {
			return fmt.Errorf("mirrored packet %d differs from the origin's wire image", i)
		}
	}
	return nil
}

// getBody checks that GET url answers 200 with the body want.
func getBody(t *testing.T, url string, want []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := check.Body(resp.Body, want); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func readStream(t *testing.T, url string) (asf.Header, []asf.Packet) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	r := asf.NewReader(resp.Body)
	h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	var pkts []asf.Packet
	for {
		p, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p.Clone())
	}
	return h, pkts
}

func TestEdgeMirrorsAssetOnDemand(t *testing.T) {
	origin, originTS, data := newOriginWithAsset(t, "lec")
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	whole, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	getBody(t, edgeTS.URL+"/v1/vod/lec", whole)
	mirror, ok := edgeSrv.Asset("lec")
	if !ok {
		t.Fatal("asset not cached on the edge")
	}
	// The mirror holds the origin's wire images as they arrived, byte for
	// byte, and builds no Packets views of them.
	source, _ := origin.Asset("lec")
	if err := sameImages(mirror, source); err != nil {
		t.Fatal(err)
	}
	if mirror.Packets != nil {
		t.Fatalf("the mirror built %d Packets views", len(mirror.Packets))
	}

	// Every node holding the same bytes names them with the same ETag, so
	// a session cut on one node continues its byte range on another.
	etag := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("Etag")
	}
	if o, e := etag(originTS.URL+"/v1/vod/lec"), etag(edgeTS.URL+"/v1/vod/lec"); o == "" || e != o {
		t.Fatalf("edge ETag %q, origin %q: want the origin's tag", e, o)
	}

	// The second demand is served from the edge cache: no new origin fetch.
	if got := origin.Stats().MirrorFetches; got != 1 {
		t.Fatalf("origin mirror fetches = %d, want 1", got)
	}
	getBody(t, edgeTS.URL+"/v1/vod/lec", whole)
	if got := origin.Stats().MirrorFetches; got != 1 {
		t.Fatalf("origin mirror fetches after cached replay = %d, want 1", got)
	}

	// Seeks work against the mirrored copy, past the first GOP.
	seeked, err := check.StoredBody(data, 5*time.Second)
	if err != nil || len(seeked) >= len(whole) {
		t.Fatalf("a seek to 5s: %d of the %d bytes, %v; want a strict tail", len(seeked), len(whole), err)
	}
	getBody(t, edgeTS.URL+"/v1/vod/lec?start=5s", seeked)

	// Unknown assets are the client's 404, not a relay error.
	resp, err := http.Get(edgeTS.URL + "/v1/vod/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown asset status = %d, want 404", resp.StatusCode)
	}
}

func TestEdgeConcurrentDemandsShareOneFetch(t *testing.T) {
	origin, originTS, _ := newOriginWithAsset(t, "lec")
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)

	const demands = 8
	var wg sync.WaitGroup
	errs := make([]error, demands)
	for i := 0; i < demands; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = edge.MirrorAsset("lec")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("demand %d: %v", i, err)
		}
	}
	if got := origin.Stats().MirrorFetches; got != 1 {
		t.Fatalf("origin mirror fetches = %d, want 1 (singleflight)", got)
	}
}

func TestEdgeMirrorsRateGroup(t *testing.T) {
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	leanData := encodeTestLecture(t, 2*time.Second, false)
	lean, err := origin.RegisterAsset("lean", asf.NewReader(bytes.NewReader(leanData)))
	if err != nil {
		t.Fatal(err)
	}
	richData := encodeRichLecture(t, 2*time.Second)
	rich, err := origin.RegisterAsset("rich", asf.NewReader(bytes.NewReader(richData)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.CreateRateGroup("lecture", lean, rich); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	// Low bandwidth gets the lean variant, high bandwidth the rich one —
	// through the edge, which mirrors the whole group on first demand.
	_, leanPkts := readStream(t, edgeTS.URL+"/v1/group/lecture?bw=60000")
	_, richPkts := readStream(t, edgeTS.URL+"/v1/group/lecture?bw=5000000")
	leanBytes, richBytes := 0, 0
	for _, p := range leanPkts {
		leanBytes += len(p.Payload)
	}
	for _, p := range richPkts {
		richBytes += len(p.Payload)
	}
	if leanBytes >= richBytes {
		t.Fatalf("edge rate selection broken: lean %d bytes, rich %d bytes", leanBytes, richBytes)
	}
	if _, ok := edgeSrv.Asset("lean"); !ok {
		t.Fatal("lean variant not mirrored")
	}
	if _, ok := edgeSrv.Asset("rich"); !ok {
		t.Fatal("rich variant not mirrored")
	}
	if got := origin.Stats().MirrorFetches; got != 2 {
		t.Fatalf("origin mirror fetches = %d, want one per variant", got)
	}

	// Unknown groups are 404.
	resp, err := http.Get(edgeTS.URL + "/v1/group/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown group status = %d, want 404", resp.StatusCode)
	}
}

// TestEdgeRegistersMirroredGroupWhole: a lookup of a group on an edge
// that is mirroring it finds the group absent or with its variants, never
// registered and empty — which a /v1/group demand would answer with 404.
// One goroutine looks the group up while fresh edges mirror it.
func TestEdgeRegistersMirroredGroupWhole(t *testing.T) {
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	lean, err := origin.RegisterAsset("lean", asf.NewReader(bytes.NewReader(encodeTestLecture(t, time.Second, false))))
	if err != nil {
		t.Fatal(err)
	}
	rich, err := origin.RegisterAsset("rich", asf.NewReader(bytes.NewReader(encodeRichLecture(t, time.Second))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := origin.CreateRateGroup("lecture", lean, rich); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	const rounds = 500
	var empty atomic.Int64
	for round := 0; round < rounds; round++ {
		edgeSrv := streaming.NewServer(nil)
		edge := NewEdge(originTS.URL, edgeSrv)
		done := make(chan struct{})
		var looker sync.WaitGroup
		looker.Add(1)
		go func() {
			defer looker.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if g, ok := edgeSrv.RateGroup("lecture"); ok {
					if _, ok := g.Select(60_000); !ok {
						empty.Add(1)
					}
				}
			}
		}()
		err := edge.mirrorGroup(context.Background(), "lecture")
		close(done)
		looker.Wait()
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := empty.Load(); n > 0 {
		t.Fatalf("%d lookups over %d mirrors found the group registered without a variant", n, rounds)
	}
}

func encodeRichLecture(t *testing.T, dur time.Duration) []byte {
	t.Helper()
	p, err := codec.ByName("dsl-300k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "relay test rich", Duration: dur, Profile: p, SlideCount: 2, Seed: 11,
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

func TestEdgeMirrorOriginDown(t *testing.T) {
	_, originTS, _ := newOriginWithAsset(t, "lec")
	originTS.Close()
	edge := NewEdge(originTS.URL, nil)
	err := edge.MirrorAsset("lec")
	if err == nil {
		t.Fatal("mirror from dead origin succeeded")
	}
	if errors.Is(err, streaming.ErrNotFound) {
		t.Fatalf("dead origin misreported as not-found: %v", err)
	}
}

func TestEdgeRelaysLiveChannel(t *testing.T) {
	data := encodeTestLecture(t, 2*time.Second, true)
	h, packets, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	origin := streaming.NewServer(nil)
	originCh, err := origin.CreateChannel("lecture", h)
	if err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	edgeSrv := streaming.NewServer(nil)
	edge := NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	// A client joining through the edge triggers the origin subscription.
	type result struct {
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(edgeTS.URL + "/v1/live/lecture")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		resc <- result{body: body, err: err}
	}()

	// Wait for the relay chain to attach: the edge subscribes upstream,
	// the client subscribes to the edge.
	testutil.WaitUntil(t, 10*time.Second, func() bool { return originCh.ClientCount() >= 1 },
		"edge never subscribed upstream")
	var edgeCh *streaming.Channel
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		ch, ok := edgeSrv.Channel("lecture")
		edgeCh = ch
		return ok
	}, "edge never created the relayed channel")
	testutil.WaitUntil(t, 10*time.Second, func() bool { return edgeCh.ClientCount() >= 1 },
		"client never attached to the relayed channel")
	if originCh.ClientCount() != 1 {
		t.Fatalf("origin has %d subscribers, want the edge alone", originCh.ClientCount())
	}

	for _, p := range packets {
		if err := originCh.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	originCh.Close()

	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	// The edge's viewer receives the published header and packets byte
	// for byte, sequence numbers as published: relaying re-encodes nothing.
	want, err := asf.EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		wire, err := asf.EncodePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, wire...)
	}
	if err := check.Body(bytes.NewReader(res.body), want); err != nil {
		t.Fatalf("edge viewer's stream against the published header and packets: %v", err)
	}
	// The origin's broadcast end propagates: the edge channel closes too.
	testutil.WaitUntil(t, 10*time.Second, edgeCh.Closed,
		"edge channel still open after origin close")

	// A late join on a finished relayed broadcast is 410, as on the origin.
	resp, err := http.Get(edgeTS.URL + "/v1/live/lecture")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("late join status = %d, want 410", resp.StatusCode)
	}

	// Unknown channels are 404.
	resp, err = http.Get(edgeTS.URL + "/v1/live/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown channel status = %d, want 404", resp.StatusCode)
	}
}

// TestEdgeMirrorsEscapedAssetName guards the pull-URL escaping bugfix:
// an asset whose name needs percent-encoding ("lecture 1%", names with
// ?/#) must survive the full registry→edge→origin chain. Before the
// fix the edge built its origin fetch URL from the decoded path, so the
// origin saw a mangled name and the mirror 404ed or fetched the wrong
// asset.
func TestEdgeMirrorsEscapedAssetName(t *testing.T) {
	const name = "lecture 1% ?#&"
	origin, originTS, data := newOriginWithAsset(t, name)
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	g := NewRegistry(nil)
	if err := g.Register(NodeInfo{ID: "e1", URL: edgeTS.URL}); err != nil {
		t.Fatal(err)
	}
	regTS := httptest.NewServer(g.Handler())
	defer regTS.Close()

	// Through the registry: the 307 preserves the escaped path, the edge
	// decodes it, and the edge's origin pull re-escapes it.
	whole, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	getBody(t, regTS.URL+"/v1/vod/"+url.PathEscape(name), whole)
	if _, ok := edgeSrv.Asset(name); !ok {
		t.Fatalf("edge cached under wrong name: have %v", edgeSrv.AssetNames())
	}
	if got := origin.Stats().MirrorFetches; got != 1 {
		t.Fatalf("origin mirror fetches = %d, want 1", got)
	}
}

// TestEdgeRelaysEscapedChannelName is the live half of the escaping
// fix: the edge's upstream /live subscription URL must re-escape the
// channel name.
func TestEdgeRelaysEscapedChannelName(t *testing.T) {
	const name = "aula magna 100%"
	data := encodeTestLecture(t, time.Second, true)
	h, packets, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	origin := streaming.NewServer(nil)
	originCh, err := origin.CreateChannel(name, h)
	if err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	edgeSrv := streaming.NewServer(nil)
	edge := NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	header, err := asf.EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	resc := make(chan error, 1)
	go func() {
		resp, err := http.Get(edgeTS.URL + "/v1/live/" + url.PathEscape(name))
		if err != nil {
			resc <- err
			return
		}
		defer resp.Body.Close()
		resc <- check.LiveBody(header, resp.Body)
	}()

	// Wait for the whole relay chain to attach, as the unescaped live
	// test does: edge subscribed upstream, local channel created under
	// the decoded name, client subscribed to it.
	testutil.WaitUntil(t, 10*time.Second, func() bool { return originCh.ClientCount() >= 1 },
		"edge never subscribed upstream with the escaped name")
	var edgeCh *streaming.Channel
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		ch, ok := edgeSrv.Channel(name)
		edgeCh = ch
		return ok
	}, "edge relayed channel never appeared under the decoded name")
	testutil.WaitUntil(t, 10*time.Second, func() bool { return edgeCh.ClientCount() >= 1 },
		"client never attached to the relayed channel")
	for _, p := range packets {
		if err := originCh.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	originCh.Close()
	if err := <-resc; err != nil {
		t.Fatal(err)
	}
}

// TestEdgeRelayBrokenUpstream: an origin that dies mid-broadcast — here a
// header, three packets and half of a fourth, then a hang-up — must reach
// the edge's viewers as an error, not as a clean end a failover client
// would take for the whole broadcast; and the edge must forget the broken
// relay, so the next join relays afresh instead of 410 until a restart.
func TestEdgeRelayBrokenUpstream(t *testing.T) {
	r := asf.NewReader(bytes.NewReader(encodeTestLecture(t, time.Second, true)))
	h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	header, err := asf.EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	var wires [][]byte
	for len(wires) < 4 {
		sp, err := r.ReadShared()
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, sp.Wire())
	}

	var pulls atomic.Int32
	attached := make(chan struct{}) // the first viewer is on the edge
	release := make(chan struct{})  // the test is over
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		first := pulls.Add(1) == 1
		w.Write(header)
		w.(http.Flusher).Flush()
		if !first {
			select { // a healthy broadcast, until the test ends
			case <-release:
			case <-req.Context().Done():
			}
			return
		}
		select {
		case <-attached:
		case <-req.Context().Done():
			return
		}
		for _, wire := range wires[:3] {
			w.Write(wire)
		}
		w.Write(wires[3][:len(wires[3])/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer originTS.Close()
	defer close(release)

	edgeSrv := streaming.NewServer(nil)
	edgeTS := httptest.NewServer(NewEdge(originTS.URL, edgeSrv).Handler())
	defer edgeTS.Close()

	resp, err := http.Get(edgeTS.URL + "/v1/live/lecture")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	viewer := asf.NewReader(resp.Body)
	if _, err := viewer.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	if ch, ok := edgeSrv.Channel("lecture"); !ok || ch.ClientCount() != 1 {
		t.Fatal("the viewer is not attached to the relayed channel")
	}
	close(attached)
	n := 0
	for ; ; n++ {
		if _, err = viewer.ReadPacket(); err != nil {
			break
		}
	}
	if n != 3 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("viewer read %d packets, then %v; want 3, then an unexpected EOF", n, err)
	}

	testutil.WaitUntil(t, 10*time.Second, func() bool { _, ok := edgeSrv.Channel("lecture"); return !ok },
		"the broken relay's channel is still registered")
	again, err := http.Get(edgeTS.URL + "/v1/live/lecture")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Body.Close()
	if again.StatusCode != http.StatusOK || pulls.Load() != 2 {
		t.Fatalf("second join: status %d after %d origin pulls; want 200 from a second relay", again.StatusCode, pulls.Load())
	}
	if _, err := asf.NewReader(again.Body).ReadHeader(); err != nil {
		t.Fatal(err)
	}
}
