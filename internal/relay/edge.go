package relay

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"

	"repro/internal/asf"
	"repro/internal/edgecache"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/streaming"
)

// Edge is one edge node of the relay tier: a streaming.Server whose
// missing content is pulled through from an origin on first demand.
// Stored assets are mirrored via the origin's /v1/fetch endpoint and
// cached for every later client. A mirror is registered as soon as the
// origin's header has arrived (streaming.Server.RegisterGrowing), and its
// viewers are served the packets as they land, so a cold viewer starts at
// the pull's first packet instead of after its last; MirrorAsset still
// returns once the mirror is whole. Live channels are subscribed once via
// /v1/live and re-fanned-out through a local Channel, so the origin
// carries one session per edge instead of one per viewer.
//
// The mirror cache is bounded when CacheBytes is set. Residency is
// decided by edgecache once a pull has landed whole: a freshly pulled
// asset sits in a small recency window and must beat the main segment's
// coldest resident on sketch-estimated frequency to displace it, so
// one-hit wonders churn through the window without evicting hot mirrors.
// Assets with active sessions, an in-flight demand, or a rate-group
// membership hold a pin on the server (streaming.Server.Pin) and are
// never dropped, so capacity pressure cannot fail an in-flight stream; a
// dropped asset is simply re-mirrored on its next demand. A pull that
// breaks off unregisters its mirror, and its viewers' bodies end short,
// which the client SDK resumes by Range on another edge or this one.
// Concurrent demands for the same uncached asset coalesce onto a single
// origin pull. Cache traffic (hits, misses, evictions, admission
// rejects, coalesced pulls, resident bytes, origin bytes pulled, pulls
// in flight) is counted on the server's metrics registry.
type Edge struct {
	// Origin is the origin server's base URL, without a trailing slash.
	Origin string
	// Server is the edge's local streaming server; mirrored and relayed
	// content is registered here and served by its handlers.
	Server *streaming.Server
	// Client performs origin requests; nil means proto.DefaultClient.
	Client *http.Client
	// CacheBytes bounds the summed payload bytes of mirrored assets;
	// 0 mirrors without limit. Set before serving traffic. The slab
	// buffers an evicted mirror gives back stay on the server's pool only
	// while it lists at most two for each one held, so the edge's idle
	// slab memory is at most twice what it holds.
	CacheBytes int64

	flight edgecache.Flight
	cache  *edgecache.Cache
	inst   edgeInstruments

	// catMu guards the edge's view of the cluster catalog: the last
	// synced version and the per-entry revisions SyncCatalog diffs
	// against to find stale mirrors.
	catMu      sync.Mutex
	catVersion uint64
	catAssets  map[string]uint64 // name → Rev at last sync
	catGroups  map[string]catGroupRec
}

// catGroupRec is the edge's remembered view of one cataloged group.
type catGroupRec struct {
	rev      uint64
	variants []string
}

// edgeInstruments are the edge's metric handles on its server's
// registry.
type edgeInstruments struct {
	hits          *metrics.Counter
	misses        *metrics.Counter
	evictions     *metrics.Counter
	rejects       *metrics.Counter
	coalesced     *metrics.Counter
	originBytes   *metrics.Counter
	invalidations *metrics.Counter
	pulls         *metrics.Gauge
	cacheBytes    *metrics.Gauge
}

// NewEdge creates an edge pulling through from the origin base URL. A nil
// server gets a fresh streaming.Server on the real clock.
func NewEdge(origin string, srv *streaming.Server) *Edge {
	if srv == nil {
		srv = streaming.NewServer(nil)
	}
	reg := srv.Metrics()
	e := &Edge{
		Origin: strings.TrimSuffix(origin, "/"),
		Server: srv,
		cache:  edgecache.New(edgecache.Config{}),
		inst: edgeInstruments{
			hits:          reg.Counter("lod_edge_cache_hits_total", "Mirror demands served from already-cached content."),
			misses:        reg.Counter("lod_edge_cache_misses_total", "Mirror demands that required an origin pull."),
			evictions:     reg.Counter("lod_edge_cache_evictions_total", "Mirrored assets dropped by byte-capacity pressure."),
			rejects:       reg.Counter("lod_edge_admission_rejects_total", "Window candidates dropped by the TinyLFU admission duel instead of displacing a hotter resident."),
			coalesced:     reg.Counter("lod_edge_coalesced_pulls_total", "Demands that attached to another demand's in-flight origin pull instead of issuing their own."),
			originBytes:   reg.Counter("lod_edge_origin_bytes_total", "Bytes pulled from the origin (mirrors, groups, live relays)."),
			invalidations: reg.Counter("lod_edge_catalog_invalidations_total", "Mirrored copies dropped because their catalog entry changed or vanished."),
			pulls:         reg.Gauge("lod_edge_pulls_in_flight", "Origin pulls currently in progress."),
			cacheBytes:    reg.Gauge("lod_edge_cache_bytes", "Payload bytes of mirrored assets resident in the cache."),
		},
	}
	return e
}

func (e *Edge) client() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return proto.DefaultClient
}

// ensure runs fetch under a per-key singleflight: the first caller for a
// key performs the fetch, concurrent callers attach to its outcome (and
// are counted as coalesced pulls), and later callers short-circuit via
// present. ctx lets an attached caller give up early while the fetch
// continues for the rest.
func (e *Edge) ensure(ctx context.Context, key string, present func() bool, fetch func() error) error {
	attached := false
	for {
		if present() {
			return nil
		}
		shared, err := e.flight.Do(ctx, key, fetch)
		if !shared {
			return err
		}
		if !attached {
			attached = true
			e.inst.coalesced.Inc()
		}
		if err != nil {
			return err
		}
		// Re-check presence: the leader we attached to may have fetched
		// our key, or raced something else — loop decides.
	}
}

// MirrorAsset ensures the named asset is registered on the edge's server
// and whole, fetching it from the origin on first demand (pull-through
// cache) and booking it into the admission-controlled mirror cache.
// Concurrent callers share one origin transfer; a demand for cached
// content counts as a hit and refreshes its recency and frequency. A
// missing origin asset returns streaming.ErrNotFound, and a pull that
// breaks off its error. A mirror dropped again before the call looks —
// by its landing check, an eviction, a catalog sync, or its pull ending
// short — returns nil with the asset absent.
func (e *Edge) MirrorAsset(name string) error {
	if err := e.mirrorAsset(detached(), name); err != nil {
		return err
	}
	a, ok := e.Server.Asset(name)
	if !ok {
		return nil
	}
	return a.Wait(detached())
}

// detached is the wait context of the exported, context-free forms
// (MirrorAsset, RelayChannel, SyncCatalogFrom): their callers — a
// prewarm, a group pull mirroring its variants, a relay started ahead of
// its viewers, a catalog version callback — have no request to abandon,
// so the wait runs until the call resolves.
func detached() context.Context {
	//lodlint:allow bare-ctx the exported forms keep their context-free signature; nothing upstream to cancel
	return context.TODO()
}

// mirrorAsset is MirrorAsset with a wait context: a request ctx lets
// this demand abandon a shared pull when its client goes away.
func (e *Edge) mirrorAsset(ctx context.Context, name string) error {
	if a, ok := e.Server.Asset(name); ok {
		if !a.Whole() {
			// The mirror is still being pulled: the demand attaches to that
			// pull, as a miss that shares another demand's pull, and is no
			// frequency observation of its own.
			e.inst.misses.Inc()
			e.inst.coalesced.Inc()
			return nil
		}
		e.inst.hits.Inc()
		e.cache.Touch(name)
		// Re-apply the budget on hits too: pins may have forced the cache
		// over capacity earlier and released since.
		e.enforceBudget(name)
		return nil
	}
	e.inst.misses.Inc()
	present := func() bool { _, ok := e.Server.Asset(name); return ok }
	return e.ensure(ctx, "asset/"+name, present, func() error { return e.fetchAsset(name) })
}

// fetchAsset pulls the named asset from the origin and returns once its
// mirror is registered, at the origin's header; the rest of the pull
// lands on a goroutine of the edge's, which books the mirror into the
// cache once it is whole.
func (e *Edge) fetchAsset(name string) error {
	e.inst.pulls.Inc()
	landed := e.landing(e.assetRev, name)
	resp, err := e.openFetch(name)
	if err != nil {
		e.inst.pulls.Dec()
		return err
	}
	mirror, rest, err := e.Server.RegisterGrowing(name, e.countBytes(resp.Body), resp.ContentLength, resp.Header.Get("Etag"))
	if err != nil {
		resp.Body.Close()
		e.inst.pulls.Dec()
		if errors.Is(err, streaming.ErrDuplicate) {
			// We raced a direct registration: the asset is resident now and
			// must be under cache accounting.
			var bytes int64
			a, ok := e.Server.Asset(name)
			if ok {
				bytes = a.Bytes()
			}
			e.book(name, a, bytes, landed)
			err = nil
		}
		return err
	}
	go func() {
		// Booked before its viewers have the last packets, so a viewer
		// that has read the whole body finds the mirror in the cache.
		_ = rest(func(bytes int64) { e.book(name, mirror, bytes, landed) })
		resp.Body.Close()
		e.inst.pulls.Dec()
	}()
	return nil
}

// openFetch requests the named asset's whole stored body from the origin,
// which must declare its length and ETag.
func (e *Edge) openFetch(name string) (*http.Response, error) {
	// The name came off a decoded request path; proto.StreamPath
	// re-escapes it so assets named like "lecture 1%" or containing ?/#
	// survive the origin URL. The origin handler's decode of its request
	// path is the symmetric inverse.
	resp, err := e.client().Get(e.Origin + proto.Versioned(proto.StreamPath(proto.StreamFetch, name)))
	if err != nil {
		return nil, fmt.Errorf("relay: mirror %q: %w", name, err)
	}
	switch {
	case resp.StatusCode == http.StatusNotFound:
		err = fmt.Errorf("%w: origin asset %q", streaming.ErrNotFound, name)
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("relay: mirror %q: origin status %s", name, resp.Status)
	case resp.ContentLength < 0 || resp.Header.Get("Etag") == "":
		err = fmt.Errorf("relay: mirror %q: the origin declared no length or ETag", name)
	}
	if err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// book runs what follows a pull of name that has landed whole as mirror,
// bytes of payload: the pull is a frequency observation — without it an
// asset that is always admission-rejected could never accumulate enough
// estimated demand to win a later duel — the mirror, if still registered,
// is booked into the cache under its byte budget, and the landing check
// drops it if its catalog entry moved during the pull: the mirror is
// absent again, and the next demand pulls. A mirror a catalog sync
// dropped mid-pull is neither booked nor dropped, so the one a later
// demand pulled under its name stays.
func (e *Edge) book(name string, mirror *streaming.Asset, bytes int64, landed func(drop func())) {
	e.cache.RecordPull(name)
	registered := func() bool { a, ok := e.Server.Asset(name); return ok && a == mirror }
	if registered() {
		e.cache.Add(name, bytes)
		e.enforceBudget(name)
	}
	landed(func() {
		if registered() {
			e.dropMirror(name)
		}
	})
}

// enforceBudget drops over-budget mirrors (never `except`, never pinned
// assets), unregistering each victim from the edge server and counting
// it — capacity evictions and admission rejections separately. A victim
// that gained a pin between the cache's decision and this removal (a
// demand raced in) is reinstated instead of removed.
func (e *Edge) enforceBudget(except string) {
	evicted, rejected := e.cache.Enforce(e.CacheBytes, except, e.Server.Pinned)
	e.dropVictims(evicted, e.inst.evictions)
	e.dropVictims(rejected, e.inst.rejects)
	e.inst.cacheBytes.Set(e.cache.Bytes())
}

func (e *Edge) dropVictims(victims []string, counter *metrics.Counter) {
	for _, victim := range victims {
		if e.Server.Pinned(victim) {
			if a, ok := e.Server.Asset(victim); ok {
				e.cache.Add(victim, a.Bytes())
				continue
			}
		}
		if e.Server.RemoveAsset(victim) {
			counter.Inc()
		}
	}
}

// countBytes wraps an origin response body so every byte pulled from
// upstream lands in the lod_edge_origin_bytes_total counter.
func (e *Edge) countBytes(r io.Reader) io.Reader {
	return &countingReader{r: r, c: e.inst.originBytes}
}

type countingReader struct {
	r io.Reader
	c *metrics.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// mirrorGroup ensures the named multi-rate group exists on the edge's
// server, mirroring every variant asset from the origin on first demand.
// A group the origin doesn't have returns streaming.ErrNotFound.
func (e *Edge) mirrorGroup(ctx context.Context, name string) error {
	present := func() bool { _, ok := e.Server.RateGroup(name); return ok }
	return e.ensure(ctx, "group/"+name, present, func() error { return e.fetchGroup(name) })
}

func (e *Edge) fetchGroup(name string) error {
	e.inst.pulls.Inc()
	defer e.inst.pulls.Dec()
	landed := e.landing(e.groupRev, name)
	resp, err := e.client().Get(e.Origin + proto.Versioned(proto.PathGroups))
	if err != nil {
		return fmt.Errorf("relay: group %q: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("relay: group %q: origin status %s", name, resp.Status)
	}
	var groups []streaming.GroupInfo
	if err := json.NewDecoder(e.countBytes(resp.Body)).Decode(&groups); err != nil {
		return fmt.Errorf("relay: group %q: %w", name, err)
	}
	i := slices.IndexFunc(groups, func(g streaming.GroupInfo) bool { return g.Name == name })
	if i < 0 {
		return fmt.Errorf("%w: origin group %q", streaming.ErrNotFound, name)
	}
	variants := groups[i].Variants
	// Pin every variant for the whole group mirror: until CreateRateGroup
	// runs, no group pins them, and under a tight budget a later
	// variant's pull could otherwise evict an earlier one, registering a
	// permanently incomplete group.
	for _, v := range variants {
		defer e.Server.Pin(v)()
	}
	assets := make([]*streaming.Asset, len(variants))
	for i, v := range variants {
		if err := e.MirrorAsset(v); err != nil {
			return fmt.Errorf("relay: group %q variant: %w", name, err)
		}
		a, ok := e.Server.Asset(v)
		if !ok { // pinned: only its landing check drops it
			return fmt.Errorf("relay: group %q: variant %q moved during the pull", name, v)
		}
		assets[i] = a
	}
	// Registered whole, with its variants: a lookup never finds it empty.
	if _, err := e.Server.CreateRateGroup(name, assets...); err != nil {
		if errors.Is(err, streaming.ErrDuplicate) {
			return nil // raced with a direct registration
		}
		return err
	}
	landed(func() {
		if e.Server.RemoveRateGroup(name) {
			e.inst.invalidations.Inc()
		}
	})
	return nil
}

// RelayChannel ensures a local live channel by the given name exists,
// subscribed to the origin's channel of the same name. It returns once
// the local channel is registered (joinable); packets are pumped in the
// background until the origin broadcast ends or breaks off, which closes
// and unregisters the local channel too (endRelay). A missing origin
// channel returns streaming.ErrNotFound, an ended one
// streaming.ErrChanClosed.
func (e *Edge) RelayChannel(name string) error {
	return e.relayChannel(detached(), name)
}

func (e *Edge) relayChannel(ctx context.Context, name string) error {
	present := func() bool { _, ok := e.Server.Channel(name); return ok }
	return e.ensure(ctx, "live/"+name, present, func() error { return e.startRelay(name) })
}

func (e *Edge) startRelay(name string) error {
	e.inst.pulls.Inc()
	defer e.inst.pulls.Dec()
	// Escape like fetchAsset: the channel name is a decoded path segment.
	resp, err := e.client().Get(e.Origin + proto.Versioned(proto.StreamPath(proto.StreamLive, name)))
	if err != nil {
		return fmt.Errorf("relay: live %q: %w", name, err)
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		resp.Body.Close()
		return fmt.Errorf("%w: origin channel %q", streaming.ErrNotFound, name)
	case http.StatusGone:
		resp.Body.Close()
		return fmt.Errorf("%w: origin channel %q", streaming.ErrChanClosed, name)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("relay: live %q: origin status %s", name, resp.Status)
	}
	r := asf.NewReader(e.countBytes(resp.Body))
	h, err := r.ReadHeader()
	if err != nil {
		resp.Body.Close()
		return fmt.Errorf("relay: live %q: %w", name, err)
	}
	ch, err := e.Server.CreateChannel(name, h)
	if err != nil {
		resp.Body.Close()
		if errors.Is(err, streaming.ErrDuplicate) {
			return nil
		}
		return err
	}
	go func() {
		defer resp.Body.Close()
		// The origin's wire images, validated by the reader, go to this
		// edge's viewers as they arrived: same bytes, same sequence numbers.
		if err := ch.Relay(r); !errors.Is(err, streaming.ErrChanClosed) {
			e.endRelay(ch, err)
		}
	}()
	return nil
}

// endRelay ends a relayed channel when its upstream does: cleanly at the
// origin's io.EOF, as broken off at any other error — the origin died, a
// packet failed its checksum, the body was cut — so the edge's viewers see
// an error rather than a complete broadcast. Either way the channel is
// unregistered, and the next join on this edge relays afresh.
func (e *Edge) endRelay(ch *streaming.Channel, err error) {
	if errors.Is(err, io.EOF) {
		err = nil
	}
	ch.CloseWithError(err)
	e.Server.RemoveChannel(ch)
}

// Handler wraps the edge server's handler with pull-through: a /v1/vod/
// request for an unmirrored asset mirrors it first, a /v1/group/ request
// for an unmirrored group mirrors its variants first, and a /v1/live/
// request for an unrelayed channel starts the relay first; then the
// request is served locally like any other. Pulls are coalesced per
// asset, and a demand whose request context dies while attached to a
// shared pull gives up without cancelling the pull. Everything else
// (listings, /v1/fetch/, the server's metrics and status) is served from
// the edge's local state only.
func (e *Edge) Handler() http.Handler {
	base := e.Server.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", base)
	proto.Handle(mux, proto.PrefixVOD, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := proto.StreamName(r.URL.Path, proto.StreamVOD)
		// The demand pins the asset from before the mirror until the
		// session's own pin (admit) takes over, so eviction cannot win
		// the race against a session about to start.
		defer e.Server.Pin(name)()
		// An eviction decided before our pin landed can still remove the
		// asset after MirrorAsset sees it present; with the pin now held,
		// one re-mirror is stable.
		for attempt := 0; attempt < 2; attempt++ {
			if err := e.mirrorAsset(r.Context(), name); err != nil {
				pullError(w, r, err)
				return
			}
			if _, ok := e.Server.Asset(name); ok {
				break
			}
		}
		base.ServeHTTP(w, r)
	}))
	proto.Handle(mux, proto.PrefixGroup, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := proto.StreamName(r.URL.Path, proto.StreamGroup)
		if err := e.mirrorGroup(r.Context(), name); err != nil {
			pullError(w, r, err)
			return
		}
		base.ServeHTTP(w, r)
	}))
	proto.Handle(mux, proto.PrefixLive, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := proto.StreamName(r.URL.Path, proto.StreamLive)
		if err := e.relayChannel(r.Context(), name); err != nil {
			pullError(w, r, err)
			return
		}
		base.ServeHTTP(w, r)
	}))
	return mux
}

// pullError maps an origin pull failure onto the client response: a
// missing upstream resource is the client's 404 (with the proto.Error
// JSON body every /v1 error carries), an upstream broadcast that has
// ended is its 410, anything else means the edge could not reach or
// parse the origin — 502. A demand abandoned because its own request
// context died reports 499-style client disconnect as 502 too; the
// transport is gone either way.
func pullError(w http.ResponseWriter, _ *http.Request, err error) {
	switch {
	case errors.Is(err, streaming.ErrNotFound):
		proto.WriteError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, streaming.ErrChanClosed):
		proto.WriteError(w, http.StatusGone, err.Error())
	default:
		proto.WriteError(w, http.StatusBadGateway, err.Error())
	}
}
