package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asf"
	"repro/internal/client"
	"repro/internal/streaming"
)

const (
	liveChannel = "broadcast"
	// creditWindow is how far the publisher may run ahead of the slowest
	// subscriber. It is well under the 256-packet subscriber queues of
	// streaming.Channel, so nothing is ever dropped: the relay chain,
	// not the publisher, sets the pace.
	creditWindow = 64
	// liveSessionPackets is how much of the broadcast one viewer session
	// watches before it leaves and the viewer joins again. Joins give
	// the workload a startup latency; at ~8k packets each they are rare
	// enough that the per-packet relay cost dominates.
	liveSessionPackets = 8192
	liveQuickPackets   = 1024 // the tests' session length
	// lagEvery picks the packets whose publish → receipt lag is sampled.
	lagEvery = 64
	// liveHeapPackets is how many packets per second of window the
	// publisher sends after the run starts before it stops to read the
	// heap: few enough that the slowest host seen gets there inside the
	// window. See measureHeap.
	liveHeapPackets = 40_000
)

// credits is the flow control between the benchmark's publisher and
// its subscribers: the publisher blocks — on a channel, never spinning
// — while any present subscriber is creditWindow packets behind.
type credits struct {
	published atomic.Int64   // packets published so far = next sequence number
	received  []atomic.Int64 // per viewer: highest sequence number seen, plus one
	present   atomic.Int32   // viewers currently taking part
	waiting   atomic.Bool
	wake      chan struct{} // capacity 1: a token means "look again"
}

func newCredits(viewers int) *credits {
	c := &credits{received: make([]atomic.Int64, viewers), wake: make(chan struct{}, 1)}
	for i := range c.received {
		c.received[i].Store(math.MaxInt64)
	}
	return c
}

func (c *credits) mayPublish() bool {
	if c.present.Load() == 0 {
		return false
	}
	k := c.published.Load()
	for i := range c.received {
		if k-c.received[i].Load() >= creditWindow {
			return false
		}
	}
	return true
}

// acquire blocks until the next packet may be published, returning how
// long it waited, or false once stop closes.
func (c *credits) acquire(stop <-chan struct{}) (time.Duration, bool) {
	var waited time.Duration
	for !c.mayPublish() {
		c.waiting.Store(true)
		if c.mayPublish() {
			c.waiting.Store(false)
			break
		}
		t0 := time.Now()
		select {
		case <-c.wake:
		case <-stop:
			return waited, false
		}
		waited += time.Since(t0)
	}
	select {
	case <-stop:
		return waited, false
	default:
		return waited, true
	}
}

func (c *credits) signal() {
	if c.waiting.CompareAndSwap(true, false) {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// ack records that viewer has seen seq. The publisher is woken once the
// viewer is within half a window, so it publishes in bursts instead of
// being rescheduled for every packet.
func (c *credits) ack(viewer int, seq int64) {
	if seq+1 <= c.received[viewer].Load() {
		return // catch-up backlog the viewer has seen before
	}
	c.received[viewer].Store(seq + 1)
	if c.waiting.Load() && c.published.Load()-(seq+1) <= creditWindow/2 {
		c.signal()
	}
}

// enter makes viewer count against the window from the next packet on;
// leave makes the publisher stop waiting for it.
func (c *credits) enter(viewer int) {
	c.received[viewer].Store(c.published.Load())
	c.present.Add(1)
	c.signal()
}

func (c *credits) leave(viewer int) {
	c.received[viewer].Store(math.MaxInt64)
	c.present.Add(-1)
	c.signal()
}

// liveBench is the live_relay workload: the benchmark publishes a
// looped, re-stamped lecture into an origin channel, and viewers join
// through the registry, so every packet crosses origin fan-out, the
// edge's decode-and-republish relay, and the edge's fan-out.
type liveBench struct {
	c    *cluster
	e    env
	sdks []*client.Client

	src     []asf.Packet // one loop of the broadcast
	loopDur time.Duration
	channel *streaming.Channel

	credits    *credits
	stamps     [1 << 10]atomic.Int64 // publish time of every lagEvery-th packet
	creditWait atomic.Int64          // ns the publisher waited for credits
	stop       chan struct{}
	pubDone    chan struct{}
	heapAt     atomic.Int64  // sequence number at which the publisher reads the heap; 0: not asked
	heapMB     atomic.Uint64 // what it read, as float bits; 0: not yet

	lagMu sync.Mutex
	lagUs []float64
}

func setupLiveRelay(ctx context.Context, e env) (bench, error) {
	lec, err := encodeLecture(liveChannel, vodProfile, vodDuration, 0, true, e.seed*1000)
	if err != nil {
		return nil, err
	}
	header, packets, _, err := asf.ReadAll(bytes.NewReader(lec.data))
	if err != nil {
		return nil, err
	}
	b := &liveBench{e: e, src: packets, loopDur: header.Duration,
		credits: newCredits(e.subscribers), stop: make(chan struct{}), pubDone: make(chan struct{})}
	b.c, err = startCluster(ctx, e.scratch, 0, e.rec, func(c *cluster) error {
		b.channel, err = c.origin.CreateChannel(liveChannel, header)
		return err
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < e.subscribers; v++ {
		b.sdks = append(b.sdks, b.c.sdk())
	}
	go b.publish()

	// Warm-up: one verified session per viewer, all at once — the
	// publisher waits for every present viewer, so they must run
	// together. The first join also starts the edge's relay.
	count := liveSessionPackets
	if e.quick {
		count = liveQuickPackets
	}
	errs := make(chan error, e.subscribers)
	for v := 0; v < e.subscribers; v++ {
		go func(v int) {
			b.credits.enter(v)
			defer b.credits.leave(v)
			errs <- b.session(ctx, v, 0, count, new(progress)).err
		}(v)
	}
	for v := 0; v < e.subscribers; v++ {
		if err := <-errs; err != nil {
			b.close()
			return nil, fmt.Errorf("live warm-up: %w", err)
		}
	}
	return b, nil
}

// publish is the broadcast source: the lecture's packets in a loop,
// re-stamped so sequence numbers and timestamps keep growing.
func (b *liveBench) publish() {
	defer close(b.pubDone)
	defer b.channel.Close()
	n := int64(len(b.src))
	for {
		waited, ok := b.credits.acquire(b.stop)
		b.creditWait.Add(int64(waited))
		if !ok {
			return
		}
		k := b.credits.published.Load()
		p := b.src[k%n]
		p.Seq = uint32(k)
		p.PTS += time.Duration(k/n) * b.loopDur
		p.SendAt = p.PTS
		if k%lagEvery == 0 {
			b.stamps[(k/lagEvery)%int64(len(b.stamps))].Store(time.Now().UnixNano())
		}
		if err := b.channel.Publish(p); err != nil {
			return
		}
		b.credits.published.Store(k + 1)
		if k+1 == b.heapAt.Load() {
			b.measureHeap()
		}
	}
}

// measureHeap reads heap_mb at a fixed point of the broadcast, not at a
// fixed time. An origin's live handler keeps one index entry per
// keyframe it ever relayed (asf.Writer builds the index a live stream
// never writes), so this workload's heap grows with the packets
// published, and at the end of a window it would mostly say how many
// packets the host let through. The publisher waits, briefly, until the
// viewers present have everything published — the chain is then idle,
// no garbage is in flight — and reads the heap there.
func (b *liveBench) measureHeap() {
	k := b.credits.published.Load()
	for wait := 0; wait < 100; wait++ {
		idle := true
		for i := range b.credits.received {
			if b.credits.received[i].Load() < k {
				idle = false
			}
		}
		if idle {
			break
		}
		time.Sleep(time.Millisecond)
	}
	b.heapMB.Store(math.Float64bits(heapInuseMB()))
}

// session joins the broadcast through the registry, reads count packets
// with the SDK's raw Fetch and asf.Reader, and checks every one against
// the source: consecutive sequence numbers from the first packet on (a
// gap is a drop), the re-stamped timestamp, and the payload bytes.
func (b *liveBench) session(ctx context.Context, v int, id uint64, count int, prog *progress) played {
	res := played{begin: time.Now(), kind: "live"}
	rec := b.e.rec
	ctx, sp := beginSpan(ctx, rec, id, liveChannel)
	sess, err := b.sdks[v].Open(ctx, client.Spec{Kind: client.Live, Name: liveChannel})
	if err != nil {
		res.err = err
		return res
	}
	body, err := sess.Fetch()
	if err != nil {
		res.err = err
		return res
	}
	defer body.Close()
	probe := &bodyProbe{r: body, timed: rec != nil}
	r := asf.NewReader(probe)
	if _, err := r.ReadHeader(); err != nil {
		res.err = err
		return res
	}
	n := int64(len(b.src))
	var lags []float64
	prev := int64(-1)
	for i := 0; i < count; i++ {
		p, err := r.ReadPacket()
		if err != nil {
			res.err = fmt.Errorf("live packet %d: %w", i, err)
			return res
		}
		seq := int64(p.Seq)
		src := b.src[seq%n]
		switch {
		case prev >= 0 && seq != prev+1:
			res.err = fmt.Errorf("live: sequence %d follows %d: packets lost", seq, prev)
		case p.PTS != src.PTS+time.Duration(seq/n)*b.loopDur || p.Kind != src.Kind || !bytes.Equal(p.Payload, src.Payload):
			res.err = fmt.Errorf("live: packet %d differs from what was published", seq)
		}
		if res.err != nil {
			return res
		}
		prev = seq
		if seq%lagEvery == 0 {
			if at := b.stamps[(seq/lagEvery)%int64(len(b.stamps))].Load(); at > 0 {
				lags = append(lags, float64(time.Now().UnixNano()-at)/1e3)
			}
		}
		b.credits.ack(v, seq)
		res.payload += int64(len(p.Payload))
		prog.packets.Add(1)
		prog.payload.Add(int64(len(p.Payload)))
	}
	res.end = time.Now()
	res.packets, res.wire = count, probe.wire
	prog.wire.Add(probe.wire)
	res.startupMs = ms(probe.firstByte.Sub(res.begin))
	res.sessionMs = ms(res.end.Sub(res.begin))
	b.lagMu.Lock()
	b.lagUs = append(b.lagUs, lags...)
	b.lagMu.Unlock()
	endSpan(rec, sp, probe, count)
	return res
}

// dropped returns the drop counters of the origin channel and, summed,
// of its relays on the edges. The origin's only subscribers are the
// relays, which never leave, so an origin drop is a packet the chain
// lost. An edge channel also counts packets it could not queue for a
// viewer that had closed its session a moment before — the handler
// notices on its next write — which no one misses; a packet a present
// viewer misses shows as a sequence gap and fails that session.
func (b *liveBench) dropped() (origin, edges int64) {
	for _, e := range b.c.edges {
		if ch, ok := e.Server.Channel(liveChannel); ok {
			edges += ch.Dropped()
		}
	}
	return b.channel.Dropped(), edges
}

func (b *liveBench) run(ctx context.Context, window time.Duration) (*pass, error) {
	b.lagMu.Lock()
	b.lagUs = nil
	b.lagMu.Unlock()
	for v := 0; v < b.e.subscribers; v++ {
		b.credits.enter(v)
	}
	count := liveSessionPackets
	if b.e.quick {
		count = liveQuickPackets
	}
	b.heapAt.Store(b.credits.published.Load() + int64(liveHeapPackets*window.Seconds()))
	var origin0, edges0, published0, wait0 int64
	p := closedLoop(b.c, b.e.gauge, b.e.subscribers, window, loopHooks{
		begin: func() {
			origin0, edges0 = b.dropped()
			published0, wait0 = b.credits.published.Load(), b.creditWait.Load()
		},
		stop: func(p *pass) {
			p.published = b.credits.published.Load() - published0
			p.creditWait = time.Duration(b.creditWait.Load() - wait0)
		},
		leave: b.credits.leave,
	}, func(v, i int, prog *progress) played {
		return b.session(ctx, v, uint64(v+1)<<32|uint64(i+1), count, prog)
	})
	origin, edges := b.dropped()
	p.dropped, p.droppedLate = origin-origin0, edges-edges0
	if bits := b.heapMB.Load(); bits != 0 {
		p.heapMB = math.Float64frombits(bits)
	}
	b.lagMu.Lock()
	p.lagUs = b.lagUs
	b.lagMu.Unlock()
	return p, nil
}

func (b *liveBench) close() {
	close(b.stop)
	<-b.pubDone
	b.c.Close()
}
