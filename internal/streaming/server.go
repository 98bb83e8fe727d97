// Package streaming implements the Lecture-on-Demand server: stored-asset
// streaming (video-on-demand replay of published lectures) and live
// broadcast channels fed by an encoder session, both over HTTP as in the
// paper's §2.5 ("broadcast their encoded content in real time after
// finished configuring the server HTTP port and the URL").
//
// Endpoints (each mounted once, under the /v1 prefix; the route
// constants live in internal/proto, the single source of truth for the
// wire contract):
//
//	GET /v1/vod/{asset}        — stream a stored container, paced by packet
//	                             send times; ?start=<dur> seeks to the
//	                             last seek point at or before it (a
//	                             malformed or negative start is a 400 with
//	                             a proto.Error body); Range: bytes=n-
//	                             under If-Range: <ETag> continues the body
//	                             from byte n (206)
//	GET /v1/live/{channel}     — join a live broadcast; the header plus the
//	                             packets since the last seek point are
//	                             replayed so a decoder can start, then
//	                             packets follow live
//	GET /v1/group/{name}?bw=N  — multi-bitrate selection: the richest
//	                             variant fitting N bits/s is streamed as
//	                             VOD
//	GET /v1/fetch/{asset}      — whole-container transfer (header and
//	                             packets) as fast as the link allows; the
//	                             origin→edge mirror path used by the relay
//	                             tier (internal/relay), exempt from pacing
//	                             and admission control
//	GET /v1/assets             — JSON list of stored assets (a mirror
//	                             being pulled with what has landed)
//	GET /v1/channels           — JSON list of live channels
//	GET /v1/groups             — JSON list of multi-rate groups and their
//	                             variant asset names (used by edges to
//	                             mirror whole groups)
//	GET /v1/metrics            — the server's metrics, Prometheus text
//	GET /v1/status             — the same as a flat JSON snapshot
//
// Every body is the encoded header followed by wire images: one loop
// (sendStored) writes a stored one — VOD, group or mirror fetch — and a
// viewer's cursor drains a live one from the channel's log. Every
// VOD/live session is started in one step (admit), which books its
// declared stream bandwidth in flight (lod_inflight_bps); when
// Server.CapacityBps is set, a session that would take that sum past it
// is refused with 503 (XOCPN channel set-up). Edge nodes built on this
// server (see internal/relay) join /v1/live/{channel} and mirror assets
// through /v1/fetch/{asset} to re-serve both locally.
//
// Every server owns a metrics registry (Metrics) counting sessions
// started and active, packets and bytes sent, packets delayed by
// pacing, stored-body flushes (lod_response_flushes_total, one after a
// body's first packet and one before each pacing wait; packets sent over
// it is packets per flush), admission rejects, mirror fetches, declared
// bandwidth in flight, per-endpoint handling latency,
// time to first media packet (lod_first_packet_seconds, the server half
// of startup latency), and how far behind schedule paced packets fall
// under load (lod_pacing_lag_seconds). Those instruments are the
// server's only ledger: Stats reads them.
package streaming

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asf"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// Errors.
var (
	ErrNotFound   = errors.New("streaming: not found")
	ErrDuplicate  = errors.New("streaming: already exists")
	ErrChanClosed = errors.New("streaming: channel closed")
)

// Asset is one stored container registered with the server; its bytes
// are held once, as the wire images the container arrived in. One
// registered whole (RegisterAsset, PublishAsset) never changes. A mirror
// being pulled (RegisterGrowing) is registered at its header and grows
// while its pull lands packets: every reader of an asset sees what has
// landed — SharedPackets, Bytes, the /v1/assets listing and every body —
// and a body waits for what it needs next.
type Asset struct {
	Name   string
	Header asf.Header
	// Packets are the asset's packets in send order, as views over
	// SharedPackets: each Payload aliases its wire image's tail, so it is
	// read-only, and valid while the asset is registered or a body holds
	// it (refs). RegisterAsset and PublishAsset build them once the
	// container is read, in one slice of exactly their number; a mirror
	// (RegisterGrowing) builds none. The serving path never reads them;
	// the benchmark module verifies sessions against origin assets, which
	// no workload removes.
	Packets []asf.Packet

	// refs counts who may still read the asset's slab buffers: its
	// registration, a pull still landing packets, and each body written
	// from it (Server.open). The last to let go gives bufs back to the
	// server's pool (Server.release).
	refs atomic.Int32
	bufs [][]byte // the 64 KB slab buffers the images lie in

	// A stored response is the encoded header and the wire images from its
	// seek point on (storedRange). The header is encoded once, and wire is
	// known before the first packet is served, so a body declares its
	// length before its first write.
	header []byte // the encoded header
	wire   int64  // wire bytes of every packet, landed or not
	// etag is the asset's strong ETag header: a hash of the encoded
	// header and of each wire image's fixed header, whose CRC covers its
	// payload, so every node holding the same bytes sends the same tag.
	etag []string

	// mu guards what has landed. The asset is whole once end == wire.
	mu     sync.Mutex
	shared []*asf.Shared // what every session and mirror fetch writes
	// points are the seek points (asf.Header.SeekPoint) among the landed
	// packets, in send order.
	points []seekPoint
	bytes  int64 // landed payload bytes
	end    int64 // landed wire bytes
	// err is why a pull ended short of wire: the asset never grows again.
	err error
	// waiting are the bodies' one-token channels that found too little
	// landed; each land hands every one a token.
	waiting []chan struct{}
}

// seekPoint is where a stored response starts: the presentation time of
// a seek point, its position in Packets and the wire bytes of the packets
// before it.
type seekPoint struct {
	pts time.Duration
	pos int
	off int64
}

// SharedPackets returns the asset's landed packets as the validated wire
// images they were read in (asf.Shared), written as-is by every session
// and mirror fetch. Like Packets they are valid while the asset is
// registered or a body holds it: after that their buffers are carved
// again for the next asset registered.
func (a *Asset) SharedPackets() []*asf.Shared {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shared
}

// Bytes returns the landed payload size: the total once the asset is
// whole.
func (a *Asset) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// SeekIndex returns the position in Packets of the last landed seek point
// at or before the given presentation time, or 0 when there is none that
// early (play from the beginning).
func (a *Asset) SeekIndex(at time.Duration) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seek(at).pos
}

// Whole reports whether every packet of the asset has landed: always
// for an asset registered whole, and for a mirror once its pull has
// passed its checks (RegisterGrowing).
func (a *Asset) Whole() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.end == a.wire
}

// Wait waits until the asset is whole, and returns nil, or until its
// pull has ended short, and returns why, or until ctx ends, and returns
// ctx's error. A mirror is whole only after its pull's whole callback
// has returned (RegisterGrowing).
func (a *Asset) Wait(ctx context.Context) error {
	var wake chan struct{}
	return a.await(ctx, &wake, func() {}, func() bool { return false })
}

// seek is SeekIndex's seek point, under a.mu.
func (a *Asset) seek(at time.Duration) seekPoint {
	i := sort.Search(len(a.points), func(i int) bool { return a.points[i].pts > at })
	if i == 0 {
		return seekPoint{}
	}
	return a.points[i-1]
}

// await waits, with *wake as the body's token (made at its first wait),
// until ready holds under a.mu or the asset is whole. It runs idle before
// each wait and returns the error the pull ended with, or ctx's once ctx
// ends. A registered whole asset returns at once.
func (a *Asset) await(ctx context.Context, wake *chan struct{}, idle func(), ready func() bool) error {
	for {
		a.mu.Lock()
		if ready() || a.end == a.wire {
			a.mu.Unlock()
			return nil
		}
		if err := a.err; err != nil {
			a.mu.Unlock()
			return err
		}
		if *wake == nil {
			*wake = make(chan struct{}, 1)
		}
		a.waiting = append(a.waiting, *wake)
		a.mu.Unlock()
		idle()
		select {
		case <-*wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// seekAt waits until the seek point for at is final — a landed seek point
// lies past at, or the asset is whole — and returns it.
func (a *Asset) seekAt(ctx context.Context, wake *chan struct{}, at time.Duration) (seekPoint, error) {
	err := a.await(ctx, wake, func() {}, func() bool {
		n := len(a.points)
		return n > 0 && a.points[n-1].pts > at
	})
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seek(at), err
}

// storedRange waits until the first packet of the stored response that
// starts at p has landed, then declares on w the response's status,
// length and type, and returns what it carries: the header, and the
// position in SharedPackets of its first packet, whose first skip bytes
// are left out — the bytes an asf.Writer given those packets writes. With
// its length declared, net/http sends the body as is, not in chunks, and
// a client reads a body cut short as an unexpected EOF. A pull that ends
// short first is its error, and nothing is declared.
//
// Request headers rh (nil for a mirror fetch) with Range: bytes=n-, n
// inside the body, and If-Range: the asset's ETag get a 206 and the body
// from byte n on; any other request gets the whole body (proto's doc,
// "Ranges").
func (a *Asset) storedRange(ctx context.Context, wake *chan struct{}, w http.ResponseWriter, rh http.Header, p seekPoint) (header []byte, pos, skip int, err error) {
	header = a.header
	size := int64(len(header)) + a.wire - p.off
	n, ok := proto.ParseRange(rh.Get("Range"))
	partial := ok && n < size && rh.Get("If-Range") == a.etag[0]
	if !partial {
		n = 0
	}
	// The body's byte n lies in a packet at least n-len(header) wire bytes
	// past p: it has landed once more than that has.
	need := max(n-int64(len(header)), 0)
	if err := a.await(ctx, wake, func() {}, func() bool { return a.end-p.off > need }); err != nil {
		return nil, 0, 0, err
	}
	h := w.Header()
	h["Etag"] = a.etag
	h.Set("Content-Type", "application/x-wmp-stream")
	if !partial {
		h.Set("Content-Length", strconv.FormatInt(size, 10))
		return header, p.pos, 0, nil
	}
	h.Set("Content-Length", strconv.FormatInt(size-n, 10))
	h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", n, size-1, size))
	w.WriteHeader(http.StatusPartialContent)
	if n < int64(len(header)) {
		return header[n:], p.pos, 0, nil
	}
	// n is short of the body's end, so it falls inside a landed packet.
	packets := a.SharedPackets()
	pos = p.pos
	for n -= int64(len(header)); n >= int64(len(packets[pos].Wire())); pos++ {
		n -= int64(len(packets[pos].Wire()))
	}
	return nil, pos, int(n), nil
}

// ServerStats counts server activity: a snapshot of the server's
// metric instruments (Stats).
type ServerStats struct {
	VODSessions   int64
	LiveSessions  int64
	PacketsSent   int64
	BytesSent     int64
	ActiveClients int64
	RejectedJoins int64
	// MirrorFetches counts whole-container transfers served from /fetch/,
	// i.e. edge nodes pulling assets through the relay tier.
	MirrorFetches int64
	// InFlightBps is the summed declared bandwidth of the sessions
	// currently streaming — the load signal the relay registry balances
	// on (see relay.NodeStats.Load).
	InFlightBps int64
}

// Server is the LOD streaming server. Create with NewServer, register
// assets and channels, and expose via Handler.
type Server struct {
	clock vclock.Clock
	// pacer batches every paced VOD session's sleeps onto shared 1 ms
	// slots (vclock.Wheel): thousands of concurrent sessions share one
	// channel per slot and one clock timer for the whole server, instead
	// of allocating a timer per packet.
	pacer *vclock.Wheel

	mu       sync.RWMutex
	assets   map[string]*Asset // each holds its registration's reference
	channels map[string]*Channel
	groups   map[string]*RateGroup
	// droppedRemoved and resyncsRemoved are what removed channels had
	// counted, so that lod_channel_dropped_total and
	// lod_channel_resyncs_total never go down.
	droppedRemoved, resyncsRemoved int64

	// pins counts, per asset name, the sessions streaming it, the demands
	// about to (Pin) and the registered rate groups listing it: the one
	// ledger of what cache eviction must keep. It has its own lock, so a
	// pin never waits behind a catalog lookup.
	pinMu sync.Mutex
	pins  map[string]int
	// admitMu makes admit's capacity check and its booking of the
	// session's rate one step.
	admitMu sync.Mutex
	// pool is where every slab buffer of the server's stored assets and
	// live channels comes from and goes back to.
	pool asf.Pool

	metrics *metrics.Registry
	inst    serverInstruments

	// Pacing controls whether VOD sessions honor packet send times; when
	// false packets are written as fast as possible (the pacing ablation).
	Pacing bool
	// CapacityBps is the uplink budget, bits/s, that the declared rates
	// of the VOD/live sessions in flight may sum to; a session that would
	// pass it gets 503 (XOCPN-style admission). Zero admits every session.
	CapacityBps int64
}

// NewServer creates a server on the given clock (nil = real clock).
func NewServer(clock vclock.Clock) *Server {
	if clock == nil {
		clock = vclock.Real{}
	}
	s := &Server{
		clock:    clock,
		pacer:    vclock.NewWheel(clock, vclock.DefaultGranularity),
		assets:   make(map[string]*Asset),
		channels: make(map[string]*Channel),
		pins:     make(map[string]int),
		metrics:  metrics.NewRegistry(),
		Pacing:   true,
	}
	s.inst = newServerInstruments(s.metrics)
	// A removed channel's counts stay in the sums, so they only grow.
	s.metrics.GaugeFunc("lod_channel_dropped_total",
		"Live packets viewers skipped when the channel's log had passed them, summed over the server's channels.",
		func() float64 { return s.channelTotal(&s.droppedRemoved, (*Channel).Dropped) })
	s.metrics.GaugeFunc("lod_channel_resyncs_total",
		"Jumps to a seek point by live viewers the channel's log had passed, summed over the server's channels.",
		func() float64 { return s.channelTotal(&s.resyncsRemoved, (*Channel).Resyncs) })
	for i, state := range []string{"held", "free"} {
		i := i // under the module's go 1.21 every iteration shares one i
		s.metrics.GaugeFunc("lod_slab_bytes",
			"Bytes of the server's 64 KB slab buffers, by state: held by stored assets, parses and live channels, or listed free.",
			func() float64 {
				held, free, _ := s.pool.Stats()
				return float64([]int{held, free}[i] * asf.SlabSize)
			}, metrics.Label{Key: "state", Value: state})
	}
	s.metrics.GaugeFunc("lod_slab_buffers_reused_total",
		"64 KB slab buffers given back to the server's pool and carved again, by a stored asset or a live channel.",
		func() float64 { _, _, n := s.pool.Stats(); return float64(n) })
	return s
}

// serverInstruments are the server's metric handles, created once so
// the hot paths never touch the registry's lookup lock.
type serverInstruments struct {
	// vod and live are what admit books a session of that kind on.
	vod, live    kindInstruments
	active       *metrics.Gauge
	inFlightBps  *metrics.Gauge
	packetsSent  *metrics.Counter
	bytesSent    *metrics.Counter
	packetsPaced *metrics.Counter
	// flushes counts the stored loop's flushes; packetsSent over it is
	// the packets that went out per flush.
	flushes *metrics.Counter
	rejects *metrics.Counter
	mirrors *metrics.Counter
	// pacingLag records how far behind its scheduled send time a paced
	// VOD packet was written: a slept-for packet against the reading on
	// waking, an overdue one against the session's last clock reading;
	// growth under load is the server-side pacing-jitter signal the load
	// benchmarks track.
	pacingLag *metrics.Histogram
}

// kindInstruments are one session kind's (vod or live) instruments.
type kindInstruments struct {
	started *metrics.Counter
	// firstPacket times request arrival → first media packet written,
	// the server-side half of a client's startup latency.
	firstPacket *metrics.Histogram
}

// Bucket bounds for the startup/pacing histograms: these measure
// sub-second scheduling behaviour, not whole-session durations, so
// they need finer resolution than DefBuckets.
var (
	firstPacketBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
	pacingLagBuckets   = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
)

func newServerInstruments(reg *metrics.Registry) serverInstruments {
	kind := func(k string) metrics.Label { return metrics.Label{Key: "kind", Value: k} }
	started := "Streaming sessions started, by kind."
	firstPacket := "Seconds from request arrival to the first media packet written, by kind."
	inst := serverInstruments{
		vod:         kindInstruments{started: reg.Counter("lod_sessions_started_total", started, kind("vod"))},
		live:        kindInstruments{started: reg.Counter("lod_sessions_started_total", started, kind("live"))},
		active:      reg.Gauge("lod_sessions_active", "Sessions currently streaming."),
		inFlightBps: reg.Gauge("lod_inflight_bps", "Summed declared bandwidth of active sessions, bits/s."),
		packetsSent: reg.Counter("lod_packets_sent_total", "Media packets written to clients, counted before each write."),
		bytesSent:   reg.Counter("lod_bytes_sent_total", "Payload bytes written to clients, counted before each write."),
		packetsPaced: reg.Counter("lod_packets_paced_total",
			"VOD packets that waited for their send time (pacing delays)."),
		flushes: reg.Counter("lod_response_flushes_total",
			"Flushes by the stored-stream write loop: after a body's first packet and before each pacing wait."),
		rejects: reg.Counter("lod_admission_rejects_total", "Sessions refused by admission control or closed channels."),
		mirrors: reg.Counter("lod_mirror_fetches_total",
			"Whole-container transfers served from "+proto.PrefixFetch+" (edge mirror pulls)."),
	}
	inst.vod.firstPacket = reg.Histogram("lod_first_packet_seconds", firstPacket, firstPacketBuckets, kind("vod"))
	inst.live.firstPacket = reg.Histogram("lod_first_packet_seconds", firstPacket, firstPacketBuckets, kind("live"))
	inst.pacingLag = reg.Histogram("lod_pacing_lag_seconds",
		"How far behind its scheduled send time a paced VOD packet was written: every packet the session "+
			"slept for (read on waking) and every one found overdue at the session's last clock reading.",
		pacingLagBuckets)
	return inst
}

// Metrics returns the server's metric registry, which Handler serves at
// /v1/metrics and /v1/status.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// parseAsset reads a whole stored container into a ready-to-serve
// Asset in one pass, before any server lock is taken — registration
// under traffic never parses inside the lock. The asset holds its
// registration's reference. A container with any packet the reader
// refuses is refused whole, and its buffers go back at once. An index an
// older writer closed the container with is skipped by the reader, so
// one written under another rule serves the same seeks, and is never
// served.
func (s *Server) parseAsset(name string, r *asf.Reader) (*Asset, error) {
	l := s.newLanding(name, 1, nil)
	a := l.a
	err := l.readHeader(r)
	if err == nil {
		err = l.parse(r, false)
	}
	if err != nil {
		s.release(a)
		return nil, fmt.Errorf("streaming: register %q: %w", name, err)
	}
	a.wire, a.etag = l.wire, []string{l.etag()}
	l.land()
	a.Packets = make([]asf.Packet, len(a.shared))
	for i, sp := range a.shared {
		a.Packets[i] = sp.Packet()
	}
	return a, nil
}

// A landing is one parse of a container into an asset: the one loop
// (parse) that reads its packets, copies their images into buffers of the
// server's pool, each recorded in the asset's bufs as it is taken, and
// derives the seek points and the ETag on the way. What it has read lands
// — becomes what the asset's readers see — in batches: for a pull
// (RegisterGrowing), at registration (what arrived with the header),
// whenever the parse has read every whole packet its reader holds and
// must read the pull's body again — each short of the declared end
// (landShort) — and at the end, once the pull is checked; for a
// container registered whole, at the end only.
type landing struct {
	a    *Asset
	slab asf.Slab
	src  io.Reader // a pull's body, read through Read; nil for a whole container
	tag  hash.Hash64

	shared      []*asf.Shared
	points      []seekPoint
	bytes, wire int64
	landed      int64 // wire at the last land
}

// newLanding starts the parse of an asset that holds refs references.
func (s *Server) newLanding(name string, refs int32, src io.Reader) *landing {
	a := &Asset{Name: name}
	a.refs.Store(refs)
	l := &landing{a: a, src: src, tag: fnv.New64a()}
	l.slab.Renew = func([]byte) []byte {
		a.bufs = append(a.bufs, s.pool.Get())
		return a.bufs[len(a.bufs)-1]
	}
	return l
}

// Read is the pull's body as the parse's reader reads it: what has been
// parsed lands first, so bodies have it while the pull waits for more.
func (l *landing) Read(p []byte) (int, error) {
	l.landShort()
	return l.src.Read(p)
}

// landShort lands what the parse has read since the last land, if that
// is short of the wire bytes the pull declared: the batch that makes the
// asset whole lands only in RegisterGrowing's rest, once the pull has
// passed its checks and been booked.
func (l *landing) landShort() {
	if l.landed < l.wire && l.wire < l.a.wire {
		l.land()
	}
}

// land makes what the parse has read the asset's, and wakes every body
// waiting for it.
func (l *landing) land() {
	a := l.a
	a.mu.Lock()
	a.shared, a.points, a.bytes, a.end = l.shared, l.points, l.bytes, l.wire
	a.wakeWaiting()
	a.mu.Unlock()
	l.landed = l.wire
}

// wakeWaiting, under a.mu, hands every waiting body a token.
func (a *Asset) wakeWaiting() {
	for _, wake := range a.waiting {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	clear(a.waiting)
	a.waiting = a.waiting[:0]
}

// readHeader reads the container's header and encodes it once.
func (l *landing) readHeader(r *asf.Reader) error {
	h, err := r.ReadHeader()
	if err != nil {
		return err
	}
	a := l.a
	a.Header = h
	if a.header, err = asf.EncodeHeader(h); err != nil {
		return err
	}
	l.tag.Write(a.header)
	return nil
}

// parse reads the container's packets: to its end, or, with buffered,
// only while the next one lies whole in r's window (asf.Reader.Ready).
func (l *landing) parse(r *asf.Reader, buffered bool) error {
	for !buffered || r.Ready() {
		sp, err := r.ReadTo(&l.slab)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		p := sp.Packet()
		if l.a.Header.SeekPoint(p) {
			l.points = append(l.points, seekPoint{pts: p.PTS, pos: len(l.shared), off: l.wire})
		}
		l.shared = append(l.shared, sp)
		l.bytes += int64(len(p.Payload))
		l.wire += int64(len(sp.Wire()))
		l.tag.Write(sp.Wire()[:len(sp.Wire())-len(p.Payload)])
	}
	return nil
}

// etag is the strong ETag of what the parse has read.
func (l *landing) etag() string { return `"` + strconv.FormatUint(l.tag.Sum64(), 16) + `"` }

// release drops one of a's references. The last one dropped gives a's
// buffers back to the pool.
func (s *Server) release(a *Asset) {
	if a.refs.Add(-1) == 0 {
		s.pool.Put(a.bufs...)
	}
}

// register adds a under its name, unless the name is taken.
func (s *Server) register(a *Asset) error {
	s.mu.Lock()
	_, dup := s.assets[a.Name]
	if !dup {
		s.assets[a.Name] = a
	}
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("%w: asset %q", ErrDuplicate, a.Name)
	}
	return nil
}

// RegisterAsset parses a stored container and registers it by name. An
// already-registered name is ErrDuplicate — a mirror must not clobber a
// copy that raced it; live replacement is PublishAsset.
func (s *Server) RegisterAsset(name string, r *asf.Reader) (*Asset, error) {
	a, err := s.parseAsset(name, r)
	if err != nil {
		return nil, err
	}
	if err := s.register(a); err != nil {
		s.release(a)
		return nil, err
	}
	return a, nil
}

// RegisterGrowing registers the stored container src carries by name as
// soon as its header is read: a mirror pull, whose source declared, before
// the first byte, the container's size as a whole stored body and its
// strong ETag (an origin's /v1/fetch answer, Content-Length and Etag). An
// already-registered name is ErrDuplicate. Every body of the asset
// declares its length and ETag from its first byte, and is written as the
// pull lands the packets it needs.
//
// It returns the registered asset, which tells the caller's mirror from a
// later one under the same name, and rest, which the caller runs once, on
// a goroutine of its own if it likes: it reads src to its end and returns
// nil once the asset is whole. Once the pull has passed its checks, and
// before the last packets land, it calls whole, if not nil, with the
// asset's payload bytes: a caller that books the asset there has booked
// it before any body has all of it (Asset.Wait). A pull that breaks off
// or is refused — a read fails, a packet is invalid, the size or the ETag
// is not the one declared — returns that error without calling whole;
// the asset is unregistered, and every body of it stops short of its
// declared length, which a client reads as an unexpected EOF. Its
// buffers go back to the pool once the last body lets go.
func (s *Server) RegisterGrowing(name string, src io.Reader, size int64, etag string) (a *Asset, rest func(whole func(bytes int64)) error, err error) {
	l := s.newLanding(name, 2, src) // its registration's reference and the pull's
	a = l.a
	r := asf.NewReader(l)
	if err := l.readHeader(r); err != nil {
		return nil, nil, fmt.Errorf("streaming: register %q: %w", name, err)
	}
	if a.wire = size - int64(len(a.header)); a.wire < 0 {
		return nil, nil, fmt.Errorf("streaming: register %q: %d bytes declared, the header alone is %d", name, size, len(a.header))
	}
	a.etag = []string{etag}
	// The packets that arrived with the header land with it, so the demand
	// that pulls the mirror serves its first packet without waiting on the
	// rest of the pull.
	err = l.parse(r, true)
	if err == nil {
		l.landShort()
		err = s.register(a)
	}
	if err != nil {
		s.pool.Put(a.bufs...) // no one else has seen the asset
		return nil, nil, fmt.Errorf("streaming: register %q: %w", name, err)
	}
	return a, func(whole func(int64)) error {
		defer s.release(a)
		err := l.parse(r, false)
		switch {
		case err != nil:
		case l.wire != a.wire:
			err = fmt.Errorf("%d wire bytes of packets, %d declared", l.wire, a.wire)
		case l.etag() != etag:
			err = fmt.Errorf("ETag %s, %s declared", l.etag(), etag)
		}
		if err != nil {
			// Unregistered before its bodies learn of it, so a viewer whose
			// body ended short finds the mirror gone.
			err = fmt.Errorf("streaming: register %q: %w", name, err)
			s.remove(name, a)
			a.mu.Lock()
			a.err = err
			a.wakeWaiting()
			a.mu.Unlock()
			return err
		}
		if whole != nil {
			whole(l.bytes)
		}
		l.land()
		return nil
	}, nil
}

// PublishAsset parses a stored container and registers it by name,
// replacing any existing asset — the live publish path. The new copy is
// built fully aside and swapped in under the lock, so concurrent opens
// see either the old asset or the new one, never a partial state;
// bodies already written from the old copy hold their own reference and
// finish on the old bytes, whose buffers are carved again after the last.
func (s *Server) PublishAsset(name string, r *asf.Reader) (*Asset, error) {
	a, err := s.parseAsset(name, r)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	old := s.assets[name]
	s.assets[name] = a
	s.mu.Unlock()
	if old != nil {
		s.release(old)
	}
	return a, nil
}

// Asset returns a registered asset, a mirror being pulled included. The
// caller takes no reference: what it reads of the asset's packets is
// valid while the asset stays registered (Asset.Packets).
func (s *Server) Asset(name string) (*Asset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.assets[name]
	return a, ok
}

// open is Asset for a body about to be written from the asset: it takes
// a reference under the lock that registration changes under, so a
// removal cannot free the buffers between lookup and reference. The
// caller releases it once the body's last write has returned.
func (s *Server) open(name string) (*Asset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.assets[name]
	if ok {
		a.refs.Add(1)
	}
	return a, ok
}

// RemoveAsset unregisters an asset, reporting whether it was present.
// Bodies already written from it keep their reference and finish
// normally; only new lookups miss. This is the eviction hook of the
// edge's bounded mirror cache (relay.Edge).
func (s *Server) RemoveAsset(name string) bool { return s.remove(name, nil) }

// remove unregisters the asset under name if it is a, or any asset for a
// nil a, reporting whether it did.
func (s *Server) remove(name string, a *Asset) bool {
	s.mu.Lock()
	got, ok := s.assets[name]
	ok = ok && (a == nil || got == a)
	if ok {
		delete(s.assets, name)
	}
	s.mu.Unlock()
	if ok {
		s.release(got)
	}
	return ok
}

// Pin marks the named asset in use until unpin is called: a session
// streaming it holds a pin (admit), so does a demand about to start one
// (relay.Edge), and so does each registered rate group listing it. Cache
// eviction keeps a pinned asset.
func (s *Server) Pin(name string) (unpin func()) {
	s.pin(name, 1)
	return func() { s.pin(name, -1) }
}

// Pinned reports whether the named asset holds a pin.
func (s *Server) Pinned(name string) bool {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	return s.pins[name] > 0
}

// pin adds n to the asset's pin count.
func (s *Server) pin(name string, n int) {
	s.pinMu.Lock()
	if s.pins[name] += n; s.pins[name] <= 0 {
		delete(s.pins, name)
	}
	s.pinMu.Unlock()
}

// AssetNames returns registered asset names, sorted.
func (s *Server) AssetNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.assets))
	for n := range s.assets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the server counters, read off the same
// instruments GET /v1/metrics serves. Each field is read atomically; the
// snapshot as a whole is not.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		VODSessions:   s.inst.vod.started.Value(),
		LiveSessions:  s.inst.live.started.Value(),
		PacketsSent:   s.inst.packetsSent.Value(),
		BytesSent:     s.inst.bytesSent.Value(),
		ActiveClients: s.inst.active.Value(),
		RejectedJoins: s.inst.rejects.Value(),
		MirrorFetches: s.inst.mirrors.Value(),
		InFlightBps:   s.inst.inFlightBps.Value(),
	}
}

// bookSent counts sps as sent. Every body books a write's packets before
// it makes the write: a write that goes straight to the connection may
// reach the client before it returns, and a client that has read a body
// finds every packet of it counted.
func (s *Server) bookSent(sps []*asf.Shared) {
	var bytes int64
	for _, sp := range sps {
		bytes += int64(sp.PayloadLen())
	}
	s.inst.packetsSent.Add(int64(len(sps)))
	s.inst.bytesSent.Add(bytes)
}

// A session is a VOD, group or live stream that admit has started.
type session struct {
	s       *Server
	arrived time.Time
	// first is its kind's lod_first_packet_seconds, nil once observed.
	first *metrics.Histogram
}

// admit starts a session of the given kind on a stream of rate bits/s
// whose request arrived at arrived. It books rate in flight — unless
// that would pass CapacityBps: a refusal is booked as a reject and
// answered with 503, and admit returns a nil end — then books the
// session started and active and, for a stored asset, pins it against
// cache eviction. The returned end undoes all but the start and must be
// deferred.
func (s *Server) admit(w http.ResponseWriter, kind kindInstruments, asset string, rate int64, arrived time.Time) (ss session, end func()) {
	if !s.book(rate) {
		s.reject()
		proto.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("streaming: %d bits/s more would pass the server's capacity of %d", rate, s.CapacityBps))
		return session{}, nil
	}
	if asset != "" {
		s.pin(asset, 1)
	}
	kind.started.Inc()
	s.inst.active.Inc()
	return session{s: s, arrived: arrived, first: kind.firstPacket}, func() {
		if asset != "" {
			s.pin(asset, -1)
		}
		s.inst.active.Dec()
		s.inst.inFlightBps.Add(-rate)
	}
}

// book adds rate to the bandwidth in flight and reports true, unless
// that would pass a set CapacityBps. The check and the booking are one
// step, so two sessions cannot both take the last room; giving rate back
// needs no lock, since it only makes room.
func (s *Server) book(rate int64) bool {
	if s.CapacityBps <= 0 {
		s.inst.inFlightBps.Add(rate)
		return true
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if rate > s.CapacityBps-s.inst.inFlightBps.Value() {
		return false
	}
	s.inst.inFlightBps.Add(rate)
	return true
}

// headerRate sums a header's declared per-stream bit rates — the
// session's QoS requirement used for admission, and the rate a
// multi-rate group ranks its variants by. asf.Header.Validate refuses a
// header whose sum would overflow.
func headerRate(h asf.Header) int64 {
	var total int64
	for _, st := range h.Streams {
		total += st.BitsPerSecond
	}
	return total
}

// firstPacket records, the first time it is called, how long the
// session took from its request's arrival to now, when its first packet
// has been written: the server half of a client's startup latency. A
// mirror fetch (nil) is no session and records nothing.
func (ss *session) firstPacket() {
	if ss == nil || ss.first == nil {
		return
	}
	ss.first.Observe(ss.s.clock.Now().Sub(ss.arrived).Seconds())
	ss.first = nil
}

// reject books one refused session.
func (s *Server) reject() { s.inst.rejects.Inc() }

// timed wraps a handler with the per-endpoint latency histogram. For
// the streaming endpoints the observed time spans the whole session,
// so the upper buckets record session durations rather than
// request-response latency.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Histogram("lod_request_seconds",
		"Request handling time by endpoint; whole session duration for streaming endpoints.",
		nil, metrics.Label{Key: "endpoint", Value: endpoint})
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.clock.Now()
		defer func() { hist.Observe(s.clock.Now().Sub(start).Seconds()) }()
		h(w, r)
	}
}

// Handler returns the HTTP handler exposing the server: every route
// once, under the /v1 prefix, including the server's own /v1/metrics and
// /v1/status.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(path, endpoint string, h http.HandlerFunc) {
		proto.Handle(mux, path, s.timed(endpoint, h))
	}
	handle(proto.PrefixVOD, "vod", s.handleVOD)
	handle(proto.PrefixLive, "live", s.handleLive)
	handle(proto.PrefixGroup, "group", s.handleGroup)
	handle(proto.PrefixFetch, "fetch", s.handleFetch)
	handle(proto.PrefixPublish, "publish", s.handlePublish)
	handle(proto.PrefixUnpublish, "unpublish", s.handleUnpublish)
	handle(proto.PathAssets, "assets", s.handleAssets)
	handle(proto.PathChannels, "channels", s.handleChannels)
	handle(proto.PathGroups, "groups", s.handleGroups)
	s.metrics.Expose(mux)
	return mux
}

// maxPublishBody bounds a publish upload. The container is held in memory
// whole before the swap, so this is what one upload can make the server
// hold: an hour's lecture is 135 MB at dsl-300k and 675 MB at lan-1.5m.
const maxPublishBody = 1 << 30

// handlePublish accepts a stored container in the request body and
// publishes it under the path name, replacing any existing asset —
// the live half of the durable control plane. The container is parsed
// and pre-encoded fully before the swap, so a malformed or oversized
// upload (413) changes nothing and concurrent opens never see a partial
// asset.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	s.publishUpload(w, r, maxPublishBody)
}

// publishUpload is handlePublish with the body bound as a parameter.
func (s *Server) publishUpload(w http.ResponseWriter, r *http.Request, limit int64) {
	if r.Method != http.MethodPost {
		proto.WriteError(w, http.StatusMethodNotAllowed, "streaming: publish requires POST")
		return
	}
	name := proto.RouteName(r.URL.Path, proto.PrefixPublish)
	if name == "" {
		proto.WriteError(w, http.StatusBadRequest, "streaming: publish: empty asset name")
		return
	}
	_, err := s.PublishAsset(name, asf.NewReader(http.MaxBytesReader(w, r.Body, limit)))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		proto.WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	case err != nil:
		proto.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleUnpublish removes the named asset or multi-rate group.
// In-flight sessions finish on their own references; new opens 404.
func (s *Server) handleUnpublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		proto.WriteError(w, http.StatusMethodNotAllowed, "streaming: unpublish requires POST")
		return
	}
	name := proto.RouteName(r.URL.Path, proto.PrefixUnpublish)
	if name == "" {
		proto.WriteError(w, http.StatusBadRequest, "streaming: unpublish: empty asset name")
		return
	}
	removedAsset := s.RemoveAsset(name)
	removedGroup := s.RemoveRateGroup(name)
	if !removedAsset && !removedGroup {
		proto.WriteError(w, http.StatusNotFound, "streaming: unknown asset "+name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// GroupInfo describes one multi-rate group in the /groups listing.
type GroupInfo struct {
	Name string `json:"name"`
	// Variants are the names of the group's registered assets in ascending
	// rate order.
	Variants []string `json:"variants"`
}

// Groups lists every registered multi-rate group, sorted by name.
func (s *Server) Groups() []GroupInfo {
	s.mu.RLock()
	groups := make([]*RateGroup, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.RUnlock()
	out := make([]GroupInfo, 0, len(groups))
	for _, g := range groups {
		info := GroupInfo{Name: g.Name}
		for _, a := range g.Variants() {
			info.Variants = append(info.Variants, a.Name)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Server) handleGroups(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Groups())
}

// writeJSON answers with v as JSON, or with a 500 proto.Error when it
// cannot be encoded.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		proto.WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleFetch transfers a whole stored container through the stored loop
// from byte 0, unpaced and unobserved, with no admission or session. It
// is the origin-side mirror path of the relay tier: edges pull an asset
// once and then serve it to their own clients.
func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	name := proto.StreamName(r.URL.Path, proto.StreamFetch)
	asset, ok := s.open(name)
	if !ok {
		proto.WriteError(w, http.StatusNotFound, "streaming: unknown asset "+name)
		return
	}
	defer s.release(asset)
	s.inst.mirrors.Inc()
	var wake chan struct{}
	header, pos, _, err := asset.storedRange(r.Context(), &wake, w, nil, seekPoint{})
	if err != nil {
		pullEnded(w, r, err)
		return
	}
	s.sendStored(w, r.Context(), nil, asset, &wake, header, pos, 0)
}

// pullEnded answers a body that could not start because the pull of its
// mirror ended short before the body's first packet landed: 502, as the
// edge answers a pull that fails before registration. A client that went
// away gets nothing.
func pullEnded(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() == nil {
		proto.WriteError(w, http.StatusBadGateway, err.Error())
	}
}

// handleAssets lists every registered asset with what has landed of it:
// a mirror being pulled is listed from its header on, its packets and
// bytes growing until it is whole.
func (s *Server) handleAssets(w http.ResponseWriter, _ *http.Request) {
	type info struct {
		Name        string  `json:"name"`
		Title       string  `json:"title"`
		DurationSec float64 `json:"durationSec"`
		Packets     int     `json:"packets"`
		Bytes       int64   `json:"bytes"`
	}
	s.mu.RLock()
	out := make([]info, 0, len(s.assets))
	for _, a := range s.assets {
		out = append(out, info{
			Name: a.Name, Title: a.Header.Title,
			DurationSec: a.Header.Duration.Seconds(),
			Packets:     len(a.SharedPackets()), Bytes: a.Bytes(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, out)
}

func (s *Server) handleChannels(w http.ResponseWriter, _ *http.Request) {
	type info struct {
		Name    string `json:"name"`
		Title   string `json:"title"`
		Clients int    `json:"clients"`
		Closed  bool   `json:"closed"`
	}
	s.mu.RLock()
	out := make([]info, 0, len(s.channels))
	for _, c := range s.channels {
		out = append(out, info{Name: c.Name, Title: c.Header().Title, Clients: c.ClientCount(), Closed: c.Closed()})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, out)
}

// handleVOD streams the stored asset its path names (streamAsset).
func (s *Server) handleVOD(w http.ResponseWriter, r *http.Request) {
	s.streamAsset(w, r, proto.StreamName(r.URL.Path, proto.StreamVOD))
}

// streamAsset streams the stored asset registered under name, pacing by
// send times; a VOD request and a group's selected variant both end
// here. The asset is looked up by name at this point, so a variant
// republished since its group was built serves its new bytes. A `start`
// query parameter (Go duration, e.g. ?start=30s) seeks to the last seek
// point at or before that presentation time (Asset.SeekIndex), once the
// seek point is final: on a mirror being pulled, once a seek point past
// it has landed or the asset is whole. A malformed or negative value is
// answered with 400 and a proto.Error body rather than silently played
// from the top. A Range request may continue that body from a byte on
// (storedRange); pacing anchors on the first packet it sends.
func (s *Server) streamAsset(w http.ResponseWriter, r *http.Request, name string) {
	arrived := s.clock.Now()
	asset, ok := s.open(name)
	if !ok {
		// proto.Error body, not a bare text 404: an unpublished asset's
		// rejections are part of the /v1 contract like any other error.
		proto.WriteError(w, http.StatusNotFound, "streaming: unknown asset "+name)
		return
	}
	defer s.release(asset)
	var at time.Duration // a start of 0 is the plain request: the whole body
	if raw := r.URL.Query().Get(proto.ParamStart); raw != "" {
		var err error
		if at, err = proto.ParseStart(raw); err != nil {
			proto.WriteErr(w, err)
			return
		}
	}
	ss, end := s.admit(w, s.inst.vod, asset.Name, headerRate(asset.Header), arrived)
	if end == nil {
		return
	}
	defer end()
	var wake chan struct{}
	var from seekPoint
	var err error
	if at > 0 {
		from, err = asset.seekAt(r.Context(), &wake, at)
	}
	var header []byte
	var pos, skip int
	if err == nil {
		header, pos, skip, err = asset.storedRange(r.Context(), &wake, w, r.Header, from)
	}
	if err != nil {
		pullEnded(w, r, err)
		return
	}
	s.sendStored(w, r.Context(), &ss, asset, &wake, header, pos, skip)
}

// sendStored is the one loop that writes a stored body: header, then
// a's packets from position pos on, the first skip bytes of the first
// image left out. A session's body (ss) is paced by send times when the
// server paces and records its time to first packet; a mirror fetch's (ss
// nil) is neither. On a mirror being pulled the loop writes what has
// landed and then waits, with *wake as its token, for the pull to land
// more. The body stops short of its declared length when ctx ends — a
// client that went away gets nothing more — or when the pull ends short.
func (s *Server) sendStored(w http.ResponseWriter, ctx context.Context, ss *session, a *Asset, wake *chan struct{}, header []byte, pos, skip int) {
	paced := ss != nil && s.Pacing
	flusher, _ := w.(http.Flusher)
	pending := false // bytes written since the last flush
	flush := func() {
		if pending && flusher != nil {
			flusher.Flush()
			s.inst.flushes.Inc()
		}
		pending = false
	}

	start := s.clock.Now()
	packets := a.SharedPackets() // what has landed; storedRange waited for packets[pos]
	var sendBase time.Duration
	if pos < len(packets) {
		sendBase = packets[pos].SendAt()
	}
	// The header goes out with the first packet, which is always due.
	if _, err := w.Write(header); err != nil {
		return
	}
	// The flush follows the schedule: packets that are already due are
	// written into the connection's buffers, and the loop flushes when it
	// is about to wait for the next send time or the next landing — so an
	// on-schedule session still puts every packet on the wire at its send
	// instant, and an unpaced or late one goes out in runs (asf.Run), a
	// write each, straight to the response: past net/http's buffers,
	// which a write larger than them skips once they are empty.
	now := start // last clock reading
	dueAt := func(sp *asf.Shared) time.Time { return start.Add(sp.SendAt() - sendBase) }
	for i := pos; ; {
		if i == len(packets) {
			if a.await(ctx, wake, flush, func() bool { return len(a.shared) > i }) != nil {
				return
			}
			if packets = a.SharedPackets(); i == len(packets) {
				break // whole
			}
		}
		sp := packets[i]
		if paced {
			due := dueAt(sp)
			// Packets are in send order: one due at or before the last
			// reading is due without reading the clock again.
			if due.After(now) {
				now = s.clock.Now()
			}
			if wait := due.Sub(now); wait > 0 {
				s.inst.packetsPaced.Inc()
				flush()
				// The wheel batches this session's sleep with every
				// other paced session's. The reading after the wake
				// records the slept packet's lateness (the wheel's
				// rounding included) and serves the packets behind it.
				if !s.pacer.SleepUntil(ctx, due) {
					return
				}
				now = s.clock.Now()
				s.inst.pacingLag.Observe(now.Sub(due).Seconds())
			} else if wait < 0 {
				s.inst.pacingLag.Observe((-wait).Seconds())
			}
		}
		if ctx.Err() != nil {
			return
		}
		// The first packet leaves alone, behind the header; after it,
		// sp's run, cut at the first packet not due at the last reading.
		wire, n := sp.Wire()[skip:], 1
		if i > pos {
			wire, n = asf.Run(packets[i:])
			if paced {
				size := len(sp.Wire())
				for k := 1; k < n; k++ {
					late := now.Sub(dueAt(packets[i+k]))
					if late < 0 {
						wire, n = wire[:size], k
						break
					}
					if late > 0 {
						s.inst.pacingLag.Observe(late.Seconds())
					}
					size += len(packets[i+k].Wire())
				}
			}
		}
		s.bookSent(packets[i : i+n])
		if _, err := w.Write(wire); err != nil {
			return
		}
		skip = 0
		pending = true
		if i == pos {
			// Startup is the first stream byte: the header and first
			// packet go out at once.
			ss.firstPacket()
			now = s.clock.Now()
			flush()
		}
		i += n
	}
	// Returning finishes the response, which flushes what is pending.
}

// handleLive attaches the client to a live channel and writes it the
// channel's header, then the log from the viewer's cursor on.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	arrived := s.clock.Now()
	name := proto.StreamName(r.URL.Path, proto.StreamLive)
	ch, ok := s.Channel(name)
	if !ok {
		proto.WriteError(w, http.StatusNotFound, "streaming: unknown channel "+name)
		return
	}
	// A join the channel refuses is a reject, not a started session.
	cur, err := ch.join(false)
	if err != nil {
		s.reject()
		proto.WriteError(w, http.StatusGone, err.Error())
		return
	}
	defer ch.leave(cur)
	ss, end := s.admit(w, s.inst.live, "", headerRate(ch.Header()), arrived)
	if end == nil {
		return
	}
	defer end()

	w.Header().Set("Content-Type", "application/x-wmp-stream")
	flush := http.NewResponseController(w).Flush
	// The header goes out at once, so the client can parse stream
	// properties before the first packet flows.
	if _, err := w.Write(ch.wireHeader); err != nil {
		return
	}
	flush()

	// Each round is booked, then written in runs (asf.Run), a write each,
	// straight to the response; a run past net/http's 2 KB buffer leaves
	// as one chunk. The handler flushes only before it waits, so a round
	// leaves in one flush, and a lone packet on an idle channel at once.
	over := ch.drain(cur, r.Context().Done(), flush, func(batch []*asf.Shared) bool {
		s.bookSent(batch)
		for i := 0; i < len(batch); {
			wire, n := asf.Run(batch[i:])
			if _, err := w.Write(wire); err != nil {
				return false
			}
			i += n
		}
		ss.firstPacket()
		return true
	})
	// End the response the way the broadcast ended: cleanly, or — when it
	// broke off — with the connection aborted, so the viewer reads an
	// unexpected EOF instead of taking a cut stream for a complete one.
	if over && ch.Err() != nil {
		flush()
		panic(http.ErrAbortHandler)
	}
}
