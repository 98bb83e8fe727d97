package relay

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/streaming"
	"repro/internal/testutil"
)

// firstGOP returns how many of the origin asset's packets lie before its
// second seek point, and where that seek point starts in the whole
// stored body, whose length is size.
func firstGOP(t *testing.T, a *streaming.Asset, size int) (packets, end int) {
	t.Helper()
	sps := a.SharedPackets()
	var wire, gopWire int
	packets = -1
	for i, sp := range sps {
		if i > 0 && packets < 0 && a.Header.SeekPoint(sp.Packet()) {
			packets, gopWire = i, wire
		}
		wire += len(sp.Wire())
	}
	if packets < 0 {
		t.Fatal("the lecture has one GOP; the test needs two")
	}
	return packets, size - wire + gopWire
}

// gateFetch wraps an origin handler so that its first /v1/fetch/ answer
// writes n bytes, flushes them, and then runs gate before it writes on;
// a gate may panic with http.ErrAbortHandler to cut the answer there.
func gateFetchAt(h http.Handler, n int, gate func()) http.Handler {
	var fetches atomic.Int32
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, proto.Versioned(proto.PrefixFetch)) && fetches.Add(1) == 1 {
			w = &gateWriter{ResponseWriter: w, left: n, gate: gate}
		}
		h.ServeHTTP(w, r)
	})
}

type gateWriter struct {
	http.ResponseWriter
	left int
	gate func() // nil once passed
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if g.gate == nil || len(p) < g.left {
		g.left -= len(p)
		return g.ResponseWriter.Write(p)
	}
	n, err := g.ResponseWriter.Write(p[:g.left])
	if err != nil {
		return n, err
	}
	http.NewResponseController(g.ResponseWriter).Flush()
	gate := g.gate
	g.gate = nil
	gate()
	m, err := g.ResponseWriter.Write(p[n:])
	return n + m, err
}

// growingEdge is an edge whose origin holds lec, a lecture of two GOPs,
// and gates its first pull after the first GOP.
type growingEdge struct {
	server *streaming.Server // the origin's
	origin *streaming.Asset
	edge   *Edge
	url    string // the edge's base URL
	whole  []byte // lec's whole stored body
	gop    int    // the packets of lec's first GOP
	gopEnd int    // where the second GOP starts in whole
}

// newGrowingEdge starts a growingEdge whose origin handler is wrapped by
// wrap, if not nil, outside the gate.
func newGrowingEdge(t *testing.T, gate func(), wrap func(http.Handler) http.Handler) *growingEdge {
	t.Helper()
	origin, _, data := newOriginWithAsset(t, "lec")
	g := &growingEdge{server: origin}
	g.origin, _ = origin.Asset("lec")
	var err error
	if g.whole, err = check.StoredBody(data, 0); err != nil {
		t.Fatal(err)
	}
	g.gop, g.gopEnd = firstGOP(t, g.origin, len(g.whole))
	h := gateFetchAt(origin.Handler(), g.gopEnd, gate)
	if wrap != nil {
		h = wrap(h)
	}
	originTS := httptest.NewServer(h)
	t.Cleanup(originTS.Close)
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	g.edge = NewEdge(originTS.URL, edgeSrv)
	edgeTS := httptest.NewServer(g.edge.Handler())
	t.Cleanup(edgeTS.Close)
	g.url = edgeTS.URL
	return g
}

// viewFirstGOP opens a viewer of lec on the edge and reads the header and
// the first GOP, failing the test if they do not arrive within timeout.
func (g *growingEdge) viewFirstGOP(t *testing.T, timeout time.Duration) (head []byte, body io.ReadCloser) {
	t.Helper()
	head = make([]byte, g.gopEnd)
	got := make(chan error, 1)
	go func() {
		resp, err := http.Get(g.url + "/v1/vod/lec")
		if err == nil {
			body = resp.Body
			_, err = io.ReadFull(resp.Body, head)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(timeout):
		t.Fatalf("the viewer had not received the header and first GOP (%d bytes) after %v", g.gopEnd, timeout)
	}
	return head, body
}

// assetsListing returns the edge's /v1/assets entry for lec.
func assetsListing(url string) (packets int, bytes int64, err error) {
	resp, err := http.Get(url + "/v1/assets")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var list []struct {
		Name    string `json:"name"`
		Packets int    `json:"packets"`
		Bytes   int64  `json:"bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, 0, err
	}
	for _, a := range list {
		if a.Name == "lec" {
			return a.Packets, a.Bytes, nil
		}
	}
	return 0, 0, errors.New("lec is not listed")
}

// TestEdgeGrowingPullGated: the origin's answer to the edge's pull stops
// after the lecture's first GOP. A cold viewer on the edge receives the
// header and that GOP while the rest is still held, and the whole body
// once it arrives. While the pull waits, every reader of the mirror sees
// what has landed (the rule Asset's doc states), MirrorAsset waits for
// the whole mirror, and readers racing the rest of the pull see the
// mirror grow to the origin's. The mirror is in the cache by the time
// the viewer has read its body, and the demand made during the pull
// counts as a coalesced miss, not a hit.
func TestEdgeGrowingPullGated(t *testing.T) {
	release := make(chan struct{})
	g := newGrowingEdge(t, func() { <-release }, nil)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	head, body := g.viewFirstGOP(t, 10*time.Second)
	defer body.Close()

	mirror, ok := g.edge.Server.Asset("lec")
	if !ok {
		t.Fatal("the mirror is not registered while its pull is in flight")
	}
	var gopBytes int64
	for _, sp := range g.origin.SharedPackets()[:g.gop] {
		gopBytes += int64(sp.PayloadLen())
	}
	if n, b := len(mirror.SharedPackets()), mirror.Bytes(); n != g.gop || b != gopBytes {
		t.Fatalf("the gated mirror holds %d packets, %d bytes; want the first GOP's %d, %d", n, b, g.gop, gopBytes)
	}
	if n, b, err := assetsListing(g.url); err != nil || n != g.gop || b != gopBytes {
		t.Fatalf("the gated mirror is listed with %d packets, %d bytes (%v); want %d, %d", n, b, err, g.gop, gopBytes)
	}
	if names := g.edge.Server.AssetNames(); len(names) != 1 || names[0] != "lec" {
		t.Fatalf("AssetNames = %v, want [lec]", names)
	}

	mirrored := make(chan error, 1)
	go func() { mirrored <- g.edge.MirrorAsset("lec") }()
	select {
	case err := <-mirrored:
		t.Fatalf("MirrorAsset returned (%v) before the pull landed whole", err)
	case <-time.After(20 * time.Millisecond):
	}

	// Readers race the rest of the pull until it has landed.
	raced := make(chan error, 1)
	go func() {
		whole := wireBefore(g.origin, len(g.origin.SharedPackets()))
		for {
			_ = mirror.Bytes()
			_ = mirror.SeekIndex(5 * time.Second)
			if _, _, err := assetsListing(g.url); err != nil {
				raced <- err
				return
			}
			sps := mirror.SharedPackets()
			if wireBefore(mirror, len(sps)) == whole {
				raced <- nil
				return
			}
		}
	}()
	close(release)
	if err := check.Body(io.MultiReader(bytes.NewReader(head), body), g.whole); err != nil {
		t.Fatal(err)
	}
	if got := g.edge.cache.Bytes(); got != g.origin.Bytes() {
		t.Fatalf("the cache holds %d bytes once the viewer has the whole body, want the mirror's %d", got, g.origin.Bytes())
	}
	if err := <-mirrored; err != nil {
		t.Fatal(err)
	}
	if err := <-raced; err != nil {
		t.Fatal(err)
	}
	if err := sameImages(mirror, g.origin); err != nil {
		t.Fatal(err)
	}
	if n, b, err := assetsListing(g.url); err != nil || n != len(g.origin.SharedPackets()) || b != g.origin.Bytes() {
		t.Fatalf("the whole mirror is listed with %d packets, %d bytes (%v); want the origin's %d, %d",
			n, b, err, len(g.origin.SharedPackets()), g.origin.Bytes())
	}
	in := g.edge.inst
	if h, m, c := in.hits.Value(), in.misses.Value(), in.coalesced.Value(); h != 0 || m != 2 || c != 1 {
		t.Fatalf("%d hits, %d misses, %d coalesced; want the pull's miss and MirrorAsset's coalesced one: 0, 2, 1", h, m, c)
	}
}

// wireBefore is the wire bytes of a's first n packets.
func wireBefore(a *streaming.Asset, n int) int {
	var wire int
	for _, sp := range a.SharedPackets()[:n] {
		wire += len(sp.Wire())
	}
	return wire
}

// TestEdgeGrowingPullCut: the origin's answer to the edge's pull is cut
// after the lecture's first GOP, while viewers read from the mirror.
// A viewer reading the body as it is fails with an unexpected EOF; one
// playing through the SDK resumes by Range + If-Range and receives the
// whole body byte for byte, from the edge's next pull. The cut mirror is
// unregistered, and once no body reads it its buffers are back in the
// pool.
func TestEdgeGrowingPullCut(t *testing.T) {
	cut := make(chan struct{})
	g := newGrowingEdge(t, func() { <-cut; panic(http.ErrAbortHandler) }, nil)
	defer func() {
		select {
		case <-cut:
		default:
			close(cut)
		}
	}()
	_, raw := g.viewFirstGOP(t, 10*time.Second)
	defer raw.Close()
	mirror, ok := g.edge.Server.Asset("lec")
	if !ok {
		t.Fatal("the mirror is not registered while its pull is in flight")
	}
	const held = `lod_slab_bytes{state="held"}`
	if g.edge.Server.Metrics().Snapshot().Get(held) == 0 {
		t.Fatalf("%s reads 0 while a pull is in flight", held)
	}

	// The SDK viewer is attached to the same pull: it too has the first
	// GOP before the cut.
	sess, err := client.New(g.url).Open(context.Background(), client.Spec{Kind: proto.StreamVOD, Name: "lec", Failover: 3})
	if err != nil {
		t.Fatal(err)
	}
	sdk, err := sess.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	defer sdk.Close()
	head := make([]byte, g.gopEnd)
	if _, err := io.ReadFull(sdk, head); err != nil {
		t.Fatal(err)
	}

	close(cut)
	if _, err := io.Copy(io.Discard, raw); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("the viewer of a cut pull read to %v, want an unexpected EOF", err)
	}
	raw.Close()
	if err := check.Body(io.MultiReader(bytes.NewReader(head), sdk), g.whole); err != nil {
		t.Fatalf("the SDK viewer: %v", err)
	}
	if st := sess.Stats(); st.Retries == 0 {
		t.Fatal("the SDK viewer did not resume; the pull was not cut under it")
	}
	sdk.Close()
	if again, ok := g.edge.Server.Asset("lec"); ok && again == mirror {
		t.Fatal("the cut mirror is still registered")
	}

	// The resume pulled the lecture whole again; once that mirror leaves
	// too, nothing is held: the cut one's buffers went back.
	if err := g.edge.MirrorAsset("lec"); err != nil {
		t.Fatal(err)
	}
	g.edge.Server.RemoveAsset("lec")
	testutil.WaitUntil(t, 5*time.Second, func() bool { return g.edge.Server.Metrics().Snapshot().Get(held) == 0 },
		"%s = %v after the last body ended", held, g.edge.Server.Metrics().Snapshot().Get(held))
}

// TestEdgeGrowingPullRefused: the origin answers the edge's pull with
// another ETag than its body's. A viewer that started on the mirror
// after its first GOP reads an unexpected EOF, and by then the mirror is
// unregistered and was never booked into the cache.
func TestEdgeGrowingPullRefused(t *testing.T) {
	release := make(chan struct{})
	g := newGrowingEdge(t, func() { <-release }, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h.ServeHTTP(etagWriter{w}, r) })
	})
	_, body := g.viewFirstGOP(t, 10*time.Second)
	defer body.Close()
	close(release)
	if _, err := io.Copy(io.Discard, body); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("the viewer of a refused pull read to %v, want an unexpected EOF", err)
	}
	if _, ok := g.edge.Server.Asset("lec"); ok {
		t.Fatal("the refused mirror is still registered")
	}
	if n := g.edge.cache.Bytes(); n != 0 {
		t.Fatalf("the cache holds %d bytes of a refused pull", n)
	}
}

// etagWriter sends every answer with an ETag no body has.
type etagWriter struct{ http.ResponseWriter }

func (w etagWriter) WriteHeader(code int) {
	w.Header().Set("Etag", `"0"`)
	w.ResponseWriter.WriteHeader(code)
}

func (w etagWriter) Write(p []byte) (int, error) {
	w.Header().Set("Etag", `"0"`)
	return w.ResponseWriter.Write(p)
}

func (w etagWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestEdgeGrowingPullAcrossRepublish: lec is republished while the edge's
// mirror of it is registered and still being pulled, and the edge syncs
// the new Rev. The sync drops the growing mirror, so the next demand
// pulls the new revision, while the viewer already on the old mirror
// finishes it; when the old pull ends, its booking and landing check
// leave the new mirror alone.
func TestEdgeGrowingPullAcrossRepublish(t *testing.T) {
	release := make(chan struct{})
	g := newGrowingEdge(t, func() { <-release }, nil)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	g.edge.SyncCatalog(proto.Catalog{Version: 1, Assets: []proto.CatalogAsset{{Name: "lec", Rev: 1}}})
	head, old := g.viewFirstGOP(t, 10*time.Second)
	defer old.Close()

	data := encodeTestLecture(t, 2*time.Second, false)
	want, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.server.PublishAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	dropped := g.edge.SyncCatalog(proto.Catalog{Version: 2, Assets: []proto.CatalogAsset{{Name: "lec", Rev: 2}}})
	if len(dropped) != 1 || dropped[0] != "lec" {
		t.Fatalf("the sync dropped %v, want the growing mirror [lec]", dropped)
	}
	getBody(t, g.url+"/v1/vod/lec", want)

	close(release)
	if err := check.Body(io.MultiReader(bytes.NewReader(head), old), g.whole); err != nil {
		t.Fatalf("the viewer of the old mirror: %v", err)
	}
	const pulls = "lod_edge_pulls_in_flight"
	testutil.WaitUntil(t, 5*time.Second, func() bool { return g.edge.Server.Metrics().Snapshot().Get(pulls) == 0 },
		"%s = %v after both pulls ended", pulls, g.edge.Server.Metrics().Snapshot().Get(pulls))
	getBody(t, g.url+"/v1/vod/lec", want)
	mirror, _ := g.edge.Server.Asset("lec")
	if got := g.edge.cache.Bytes(); got != mirror.Bytes() {
		t.Fatalf("the cache holds %d bytes, want the new mirror's %d", got, mirror.Bytes())
	}
}
