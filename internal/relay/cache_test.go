package relay

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/streaming"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// registerTestAsset encodes a small lecture and registers it on the
// origin under the given name.
func registerTestAsset(t *testing.T, origin *streaming.Server, name string) {
	t.Helper()
	data := encodeTestLecture(t, 2*time.Second, false)
	if _, err := origin.RegisterAsset(name, asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeCacheAdmissionUnderPressure drives real mirror traffic
// through an edge whose byte budget holds fewer assets than the origin
// offers. The first-admitted asset is protected: the overflow demand
// loses the frequency duel against it and is admission-rejected, rather
// than the oldest mirror being evicted by recency.
func TestEdgeCacheAdmissionUnderPressure(t *testing.T) {
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	const assets = 3
	for i := 0; i < assets; i++ {
		registerTestAsset(t, origin, fmt.Sprintf("lec%d", i))
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	a, _ := origin.Asset("lec0")
	assetBytes := a.Bytes()

	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)
	edge.CacheBytes = 2 * assetBytes // room for two of the three
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	// Demand all three. Mirroring lec2 overflows the budget: lec1 (the
	// window's coldest unpinned entry, frequency 1) duels lec0 (also
	// frequency 1) and loses the strictly-greater test, so lec1 is
	// rejected and lec0 keeps its seat.
	for i := 0; i < assets; i++ {
		readStream(t, edgeTS.URL+fmt.Sprintf("/v1/vod/lec%d", i))
	}
	if _, ok := edgeSrv.Asset("lec0"); !ok {
		t.Fatal("lec0 lost its seat to a one-hit wonder")
	}
	if _, ok := edgeSrv.Asset("lec1"); ok {
		t.Fatal("lec1 survived the admission duel")
	}
	if _, ok := edgeSrv.Asset("lec2"); !ok {
		t.Fatal("lec2 missing right after its mirror")
	}
	if got := edge.inst.rejects.Value(); got != 1 {
		t.Fatalf("admission rejects = %d, want 1", got)
	}
	if got := edge.inst.evictions.Value(); got != 0 {
		t.Fatalf("evictions = %d, want 0 (rejection, not eviction)", got)
	}
	if got := edge.inst.misses.Value(); got != 3 {
		t.Fatalf("misses = %d, want 3", got)
	}
	if got := edge.inst.cacheBytes.Value(); got != 2*assetBytes {
		t.Fatalf("cache bytes gauge = %d, want %d", got, 2*assetBytes)
	}
	if got := edge.inst.originBytes.Value(); got <= 0 {
		t.Fatal("no origin bytes counted")
	}

	// A repeat demand of the protected asset is a pure cache hit and
	// raises its frequency estimate further.
	readStream(t, edgeTS.URL+"/v1/vod/lec0")
	if got := edge.inst.hits.Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}

	// Re-demanding the rejected asset re-mirrors it (a miss), and the
	// churn lands on lec2 — never on lec0, whose estimate is now higher.
	readStream(t, edgeTS.URL+"/v1/vod/lec1")
	if _, ok := edgeSrv.Asset("lec0"); !ok {
		t.Fatal("hot lec0 displaced by cold churn")
	}
	if got := edge.inst.misses.Value(); got != 4 {
		t.Fatalf("misses after re-mirror = %d, want 4", got)
	}
	if got := origin.Stats().MirrorFetches; got != 4 {
		t.Fatalf("origin mirror fetches = %d, want 4", got)
	}
}

// TestEdgeCoalescesConcurrentPulls holds the origin's /fetch response
// open while more demands for the same asset pile up: every later
// demand must attach to the in-flight pull instead of issuing its own,
// so the origin sees exactly one mirror fetch.
func TestEdgeCoalescesConcurrentPulls(t *testing.T) {
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	registerTestAsset(t, origin, "hot")
	base := origin.Handler()

	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/fetch/") {
			arrived <- struct{}{}
			<-release
		}
		base.ServeHTTP(w, r)
	}))
	defer originTS.Close()

	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edge := NewEdge(originTS.URL, edgeSrv)

	const demands = 9
	errs := make(chan error, demands)
	go func() { errs <- edge.MirrorAsset("hot") }()
	<-arrived // the leader's pull is in flight and parked at the origin
	for i := 1; i < demands; i++ {
		go func() { errs <- edge.MirrorAsset("hot") }()
	}
	// Give the followers a moment to reach the flight, then let the
	// leader's fetch finish. A straggler scheduled after completion
	// short-circuits as a cache hit — also fine, also not a second pull.
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < demands; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("demand %d: %v", i, err)
		}
	}
	if got := origin.Stats().MirrorFetches; got != 1 {
		t.Fatalf("origin mirror fetches = %d, want 1", got)
	}
	// Every demand either led (1), attached (coalesced), or arrived
	// after completion (hit): the three must account for all of them.
	coalesced := edge.inst.coalesced.Value()
	hits := edge.inst.hits.Value()
	if coalesced+hits+1 != demands {
		t.Fatalf("coalesced %d + hits %d + 1 leader != %d demands", coalesced, hits, demands)
	}
	if coalesced == 0 {
		t.Fatal("no demand coalesced onto the in-flight pull")
	}
}

// TestEdgeCachePinsStreamingAsset parks a paced VOD session on a virtual
// clock mid-stream and applies eviction pressure: the streaming asset is
// pinned and must survive, and the parked session must then complete
// intact.
func TestEdgeCachePinsStreamingAsset(t *testing.T) {
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	for _, name := range []string{"hot", "cold1", "cold2"} {
		registerTestAsset(t, origin, name)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	a, _ := origin.Asset("hot")
	assetBytes := a.Bytes()

	clk := vclock.NewVirtual()
	edgeSrv := streaming.NewServer(clk) // paced: sessions park on the virtual clock
	edge := NewEdge(originTS.URL, edgeSrv)
	edge.CacheBytes = 2 * assetBytes
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	// Start a session on "hot" and wait until it is booked as active; it
	// then sits in the pacing wait on the virtual clock.
	type result struct {
		pkts int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(edgeTS.URL + "/v1/vod/hot")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		r := asf.NewReader(resp.Body)
		if _, err := r.ReadHeader(); err != nil {
			done <- result{err: err}
			return
		}
		var pkts int
		for {
			if _, err := r.ReadPacket(); err != nil {
				done <- result{pkts: pkts}
				return
			}
			pkts++
		}
	}()
	testutil.WaitUntil(t, 10*time.Second, func() bool { return edgeSrv.Stats().ActiveClients > 0 },
		"session on hot never started")

	// Two more mirrors exceed the budget while "hot" is mid-stream. The
	// capacity pressure must land on cold1, never on the pinned hot
	// asset.
	if err := edge.MirrorAsset("cold1"); err != nil {
		t.Fatal(err)
	}
	if err := edge.MirrorAsset("cold2"); err != nil {
		t.Fatal(err)
	}
	if _, ok := edgeSrv.Asset("hot"); !ok {
		t.Fatal("streaming asset was evicted")
	}
	if _, ok := edgeSrv.Asset("cold1"); ok {
		t.Fatal("cold1 survived although hot was pinned")
	}
	if got := edge.inst.evictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// Release the parked session: advance virtual time past the lecture
	// end and confirm the in-flight stream finished undamaged.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(100 * time.Millisecond)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("pinned session failed: %v", res.err)
		}
		if res.pkts == 0 {
			t.Fatal("pinned session delivered no packets")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pinned session never finished")
	}
}

// TestEdgeCachePinsGroupVariants: a mirrored rate group pins its
// variants, so budget pressure from another mirror cannot take one; once
// the group is removed they are evictable like any mirror.
func TestEdgeCachePinsGroupVariants(t *testing.T) {
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	for _, name := range []string{"lean", "rich", "other"} {
		registerTestAsset(t, origin, name)
	}
	lean, _ := origin.Asset("lean")
	rich, _ := origin.Asset("rich")
	if _, err := origin.CreateRateGroup("course", lean, rich); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()

	edgeSrv := streaming.NewServer(nil)
	edge := NewEdge(originTS.URL, edgeSrv)
	edge.CacheBytes = lean.Bytes() // room for one of the three
	if err := edge.mirrorGroup(context.Background(), "course"); err != nil {
		t.Fatal(err)
	}
	if err := edge.MirrorAsset("other"); err != nil {
		t.Fatal(err)
	}
	edge.enforceBudget("") // the pressure every later demand applies
	for _, v := range []string{"lean", "rich"} {
		if _, ok := edgeSrv.Asset(v); !ok {
			t.Fatalf("variant %s of a mirrored group was evicted", v)
		}
	}
	if _, ok := edgeSrv.Asset("other"); ok {
		t.Fatal("the unpinned mirror survived while the edge was over budget")
	}

	if !edgeSrv.RemoveRateGroup("course") {
		t.Fatal("the edge holds no group course")
	}
	edge.enforceBudget("")
	if got := edge.cache.Bytes(); got > edge.CacheBytes {
		t.Fatalf("cache holds %d bytes over a %d budget after the group left", got, edge.CacheBytes)
	}
	_, leanKept := edgeSrv.Asset("lean")
	_, richKept := edgeSrv.Asset("rich")
	if leanKept && richKept {
		t.Fatal("both variants survived budget pressure after their group was removed")
	}
}
