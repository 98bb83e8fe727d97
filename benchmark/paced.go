package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/asf"
	"repro/internal/client"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/streaming"
)

// paced_class content: short lectures on the lean profile, two rate
// groups with a richer variant, one real-time live channel.
const (
	pacedLectures   = 6
	pacedGroups     = 2
	pacedLean       = "modem-56k"
	pacedRich       = "dsl-300k"
	pacedLive       = "lesson"
	pacedRate       = 10.0 // arrivals per second
	pacedStallLimit = 50 * time.Millisecond
	// pacedLiveLag is how far behind the broadcast a live viewer can end.
	// A join replays the channel's catch-up backlog — everything since
	// the last video keyframe, up to one 5 s GOP of the lean profile —
	// at presentation speed, so the viewer stays that far behind and
	// finishes that long after the channel closes.
	pacedLiveLag = 5 * time.Second
	// pacedLiveMax is the longest live broadcast ever needed: the longest
	// window the benchmark contract allows plus the drain.
	pacedLiveMax = 65 * time.Second

	leanBandwidth = 100_000   // selects a group's lean variant
	richBandwidth = 1_000_000 // selects the rich one
)

// pacedShape is the length of the class's lectures. The tests use a
// short shape; a real-time session cannot end sooner than its lecture.
type pacedShape struct {
	duration time.Duration // of every stored lecture
	lead     time.Duration // how far ahead of its timestamp the pacer sends a packet
}

var (
	pacedFull  = pacedShape{duration: 4 * time.Second, lead: 500 * time.Millisecond}
	pacedQuick = pacedShape{duration: 400 * time.Millisecond, lead: 50 * time.Millisecond}
)

// drain is how long after the last arrival the run goes on: one lecture
// length plus slack. The live channel ends then too.
func (s pacedShape) drain() time.Duration { return s.duration + s.duration/8 }

// seeks are the seek offsets: four points in the middle half of a
// lecture.
func (s pacedShape) seeks() []time.Duration {
	return []time.Duration{s.duration / 4, s.duration * 3 / 8, s.duration / 2, s.duration * 5 / 8}
}

// arrival is one student's click.
type arrival struct {
	at   time.Duration // offset into the window at which it is due
	spec client.Spec
}

func className(i int) string  { return fmt.Sprintf("class-%d", i) }
func courseName(i int) string { return fmt.Sprintf("course-%d", i) }

// pacedBlock is the kind mix dealt to every twenty arrivals: 50 % vod,
// 15 % seek, 20 % group, 15 % live.
var pacedBlock = []string{
	"vod", "vod", "vod", "vod", "vod", "vod", "vod", "vod", "vod", "vod",
	"seek", "seek", "seek", "group", "group", "group", "group", "live", "live", "live",
}

// pacedArrivals is the open-loop schedule: n = rate × window arrivals
// at seeded uniform times — a Poisson process given its count, so every
// seed offers the same load. Kinds are dealt block by block from a
// shuffled pacedBlock, and seek offsets, group bandwidths and lectures
// by turns from a seeded start, so every seed also carries the same
// mix, spread the same way over the window; only the order and the
// times differ.
func pacedArrivals(seed int64, window time.Duration, shape pacedShape) []arrival {
	seeks := shape.seeks()
	rng := rand.New(rand.NewSource(seed*1000003 + 77))
	n := int(math.Round(pacedRate * window.Seconds()))
	if n < 1 {
		n = 1
	}
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })

	var deck []string
	for len(deck) < n {
		block := append([]string(nil), pacedBlock...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		deck = append(deck, block...)
	}
	lecture, seek, course := rng.Intn(pacedLectures), rng.Intn(len(seeks)), rng.Intn(2*pacedGroups)
	out := make([]arrival, n)
	for i := range out {
		a := arrival{at: at[i]}
		switch deck[i] {
		case "vod":
			a.spec = client.Spec{Kind: client.VOD, Name: className(lecture % pacedLectures)}
			lecture++
		case "seek":
			a.spec = client.Spec{Kind: client.VOD, Name: className(lecture % pacedLectures),
				Start: seeks[seek%len(seeks)]}
			lecture++
			seek++
		case "group":
			a.spec = client.Spec{Kind: client.Group, Name: courseName(course / 2 % pacedGroups), Bandwidth: leanBandwidth}
			if course%2 == 1 {
				a.spec.Bandwidth = richBandwidth
			}
			course++
		case "live":
			a.spec = client.Spec{Kind: client.Live, Name: pacedLive}
		}
		out[i] = a
	}
	return out
}

// pacedBench is the paced_class workload on its cluster.
type pacedBench struct {
	c      *cluster
	e      env
	shape  pacedShape
	sdk    *client.Client
	expect map[opKey]expectation

	channel *streaming.Channel
	live    []asf.Packet // the whole live broadcast, in publish order
}

func setupPacedClass(ctx context.Context, e env) (bench, error) {
	b := &pacedBench{e: e, shape: pacedFull, expect: make(map[opKey]expectation)}
	if e.quick {
		b.shape = pacedQuick
	}
	var err error
	b.c, err = startCluster(ctx, e.scratch, 0, e.rec, b.populate)
	if err != nil {
		return nil, err
	}
	b.sdk = b.c.sdk()
	if err := b.verify(ctx); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *pacedBench) populate(c *cluster) error {
	seed := b.e.seed * 1000
	for i := 0; i < pacedLectures; i++ {
		l, err := encodeLecture(className(i), pacedLean, b.shape.duration, b.shape.lead, false, seed+int64(i))
		if err != nil {
			return err
		}
		if err := c.publish(l); err != nil {
			return err
		}
	}
	for i := 0; i < pacedGroups; i++ {
		g, err := c.origin.CreateRateGroup(courseName(i))
		if err != nil {
			return err
		}
		var variants []string
		for _, v := range []struct{ suffix, profile string }{{"-lean", pacedLean}, {"-rich", pacedRich}} {
			l, err := encodeLecture(courseName(i)+v.suffix, v.profile, b.shape.duration, b.shape.lead, false, seed+100+int64(i))
			if err != nil {
				return err
			}
			if err := c.publish(l); err != nil {
				return err
			}
			a, _ := c.origin.Asset(l.name)
			g.AddVariant(a)
			variants = append(variants, l.name)
		}
		if _, err := c.registry.PublishGroup(courseName(i), variants); err != nil {
			return err
		}
	}
	l, err := encodeLecture(pacedLive, pacedLean, pacedLiveMax, b.shape.lead, true, seed+200)
	if err != nil {
		return err
	}
	header, packets, _, err := asf.ReadAll(bytes.NewReader(l.data))
	if err != nil {
		return err
	}
	b.live = packets
	b.channel, err = c.origin.CreateChannel(pacedLive, header)
	return err
}

// verify checks one session per distinct stored request packet for
// packet. It runs with server pacing switched off — the bytes are the
// same, and a paced 4 s lecture would take 3.5 s per request — and
// leaves every lecture mirrored on its edge, as a class in progress
// would find them. No session is open while the switch is flipped.
func (b *pacedBench) verify(ctx context.Context) error {
	for _, e := range b.c.edges {
		e.Server.Pacing = false
	}
	defer func() {
		for _, e := range b.c.edges {
			e.Server.Pacing = true
		}
	}()
	check := func(spec client.Spec, assetName string) error {
		asset, ok := b.c.origin.Asset(assetName)
		if !ok {
			return fmt.Errorf("origin lost %s", assetName)
		}
		exp, err := verifyStored(ctx, b.sdk, spec, asset)
		if err != nil {
			return err
		}
		b.expect[keyOf(spec)] = exp
		return nil
	}
	for i := 0; i < pacedLectures; i++ {
		for _, start := range append([]time.Duration{0}, b.shape.seeks()...) {
			if err := check(client.Spec{Kind: client.VOD, Name: className(i), Start: start}, className(i)); err != nil {
				return err
			}
		}
	}
	for i := 0; i < pacedGroups; i++ {
		if err := check(client.Spec{Kind: client.Group, Name: courseName(i), Bandwidth: leanBandwidth}, courseName(i)+"-lean"); err != nil {
			return err
		}
		if err := check(client.Spec{Kind: client.Group, Name: courseName(i), Bandwidth: richBandwidth}, courseName(i)+"-rich"); err != nil {
			return err
		}
	}
	return nil
}

// pacedPlayer is the student's player: real time, anchored to the
// first packet, with lateness under 50 ms counted as timer noise, not
// as a stall.
var pacedPlayer = player.Options{Realtime: true, AnchorToFirstPacket: true, StallTolerance: pacedStallLimit}

// pacedResult is one session plus what the harness needs to judge it.
type pacedResult struct {
	played
	began time.Time // when the session goroutine actually started
}

func (b *pacedBench) run(ctx context.Context, window time.Duration) (*pass, error) {
	arrivals := pacedArrivals(b.e.seed, window, b.shape)
	total := window + b.shape.drain()
	lag := pacedLiveLag // a viewer cannot lag further than the broadcast is long
	if lag > total {
		lag = total
	}
	// The broadcast is the part of the encoded lesson that fits the run.
	cut := sort.Search(len(b.live), func(i int) bool { return b.live[i].PTS >= total })
	broadcast := b.live[:cut]

	p := &pass{openLoop: true}
	m := beginWindow(b.c)
	t0 := m.begin.at

	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		defer b.channel.Close()
		_ = b.channel.PublishPaced(ctx, nil, broadcast) // ends early only with ctx
	}()

	var (
		mu      sync.Mutex
		results []pacedResult
		wg      sync.WaitGroup
	)
	for i, a := range arrivals {
		due := t0.Add(a.at)
		time.Sleep(time.Until(due))
		p.genLagMs = append(p.genLagMs, ms(time.Since(due)))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			res := pacedResult{began: time.Now()}
			a.spec.Player = pacedPlayer
			if a.spec.Kind == client.Live {
				res.played = b.liveSession(ctx, uint64(i+1), a.spec, broadcast, due)
			} else {
				res.played = playStored(ctx, b.sdk, b.e.rec, uint64(i+1), a.spec, b.expect[keyOf(a.spec)], due)
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(i, a)
	}
	wg.Wait()
	<-pumpDone
	// Every run measures the same span, whenever its last session ended.
	time.Sleep(time.Until(t0.Add(total + lag)))
	m.stop(p)
	m.finish(p)
	p.gauge = b.e.gauge.between(p.begin.at, p.end.at)

	for _, r := range results {
		p.add(r.played)
		if r.err != nil {
			continue
		}
		stalled := r.stalls > 0
		if stalled {
			p.stalledSessions++
		}
		if !m.canary.disturbed(r.began, r.end) {
			p.undisturbed++
			if stalled {
				p.stalledUndisturbd++
			}
		}
		for _, ev := range r.metrics.Events {
			if ev.Kind != player.EventStall {
				p.lateMs = append(p.lateMs, math.Max(0, ms(ev.Skew())))
			}
		}
	}
	return p, nil
}

// liveSession plays the live channel from the join to the end of the
// broadcast and checks the delivery against what was published: the
// session must hold everything from its catch-up point — a video
// keyframe, or the very first packet — to the last packet.
func (b *pacedBench) liveSession(ctx context.Context, id uint64, spec client.Spec, broadcast []asf.Packet, due time.Time) played {
	return playSession(ctx, b.sdk, b.e.rec, id, spec, due, func(m *player.Metrics) (expectation, error) {
		var exp expectation
		from, err := catchUpPoint(m, broadcast)
		if err != nil {
			return exp, err
		}
		for _, p := range broadcast[from:] {
			exp.count(p)
		}
		return exp, nil
	})
}

// catchUpPoint finds where in the broadcast a live session started,
// from the first media event the player logged. A channel's catch-up
// backlog restarts at every video keyframe, so a session starts either
// on one or, before the first one was published, on the first packet.
func catchUpPoint(m *player.Metrics, broadcast []asf.Packet) (int, error) {
	for _, ev := range m.Events {
		var kind media.Kind
		switch ev.Kind {
		case player.EventVideoFrame:
			kind = media.KindVideo
		case player.EventAudioBlock:
			kind = media.KindAudio
		default:
			continue
		}
		for i, p := range broadcast {
			if p.Kind == kind && p.PTS == ev.PTS {
				if kind == media.KindVideo && p.Keyframe() {
					return i, nil
				}
				return 0, nil
			}
		}
		return 0, fmt.Errorf("live: first media event (pts %v) is not in the broadcast", ev.PTS)
	}
	return 0, fmt.Errorf("live: session delivered no media")
}

func (b *pacedBench) close() { b.c.Close() }
