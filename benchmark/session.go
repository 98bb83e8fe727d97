package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/asf"
	"repro/internal/client"
	"repro/internal/media"
	"repro/internal/player"
	"repro/internal/streaming"
)

// bodyProbe sits between the response body and whatever parses it: it
// stamps the first stream byte, counts wire bytes and — only in a traced
// pass — adds up the time spent waiting inside Read.
type bodyProbe struct {
	r         io.Reader
	timed     bool
	firstByte time.Time
	wire      int64
	blocked   time.Duration
}

func (b *bodyProbe) Read(p []byte) (int, error) {
	var t0 time.Time
	if b.timed {
		t0 = time.Now()
	}
	n, err := b.r.Read(p)
	if b.timed {
		b.blocked += time.Since(t0)
	}
	if n > 0 {
		if b.wire == 0 {
			b.firstByte = time.Now()
		}
		b.wire += int64(n)
	}
	return n, err
}

// expectation is what a verified session of one (stream, start) pair
// delivered; every later session of the pair must deliver the same.
type expectation struct {
	packets int
	payload int64
	wire    int64
	video   int
	audio   int
}

// opKey identifies one distinct request.
type opKey struct {
	spec  string // kind/name, plus bandwidth for groups
	start time.Duration
}

func keyOf(spec client.Spec) opKey {
	k := opKey{spec: string(spec.Kind) + "/" + spec.Name, start: spec.Start}
	if spec.Bandwidth > 0 {
		k.spec += fmt.Sprintf("@%d", spec.Bandwidth)
	}
	return k
}

// verifyStored opens spec through the SDK's raw Fetch and compares the
// delivered container packet for packet — sequence number, timestamp,
// payload bytes — with the origin's own copy of asset from
// SeekIndex(spec.Start), then returns what the session delivered.
func verifyStored(ctx context.Context, sdk *client.Client, spec client.Spec, asset *streaming.Asset) (expectation, error) {
	var exp expectation
	sess, err := sdk.Open(ctx, spec)
	if err != nil {
		return exp, err
	}
	body, err := sess.Fetch()
	if err != nil {
		return exp, err
	}
	defer body.Close()
	probe := &bodyProbe{r: body}
	r := asf.NewReader(probe)
	if _, err := r.ReadHeader(); err != nil {
		return exp, fmt.Errorf("verify %s: %w", sess.Target(), err)
	}
	// Without a start parameter the server plays from the first packet;
	// SeekIndex(0) would skip to the last of the keyframes stamped 0.
	want := asset.Packets
	if spec.Start > 0 {
		want = want[asset.SeekIndex(spec.Start):]
	}
	for i := 0; ; i++ {
		got, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			if i != len(want) {
				return exp, fmt.Errorf("verify %s: %d packets, origin has %d", sess.Target(), i, len(want))
			}
			break
		}
		if err != nil {
			return exp, fmt.Errorf("verify %s: packet %d: %w", sess.Target(), i, err)
		}
		if i >= len(want) {
			return exp, fmt.Errorf("verify %s: more than the origin's %d packets", sess.Target(), len(want))
		}
		w := want[i]
		if got.Seq != w.Seq || got.PTS != w.PTS || got.Kind != w.Kind || !bytes.Equal(got.Payload, w.Payload) {
			return exp, fmt.Errorf("verify %s: packet %d differs from origin (seq %d/%d pts %v/%v)",
				sess.Target(), i, got.Seq, w.Seq, got.PTS, w.PTS)
		}
		exp.count(got)
	}
	exp.wire = probe.wire
	return exp, nil
}

func (e *expectation) count(p asf.Packet) {
	e.packets++
	e.payload += int64(len(p.Payload))
	switch p.Kind {
	case media.KindVideo:
		e.video++
	case media.KindAudio:
		e.audio++
	}
}

// played is what one in-window session measured.
type played struct {
	begin     time.Time // request issued, or due time in the open loop
	startupMs float64   // begin → first stream byte
	sessionMs float64   // begin → stream verified
	end       time.Time
	packets   int
	payload   int64
	wire      int64 // container bytes received: header, packet framing, payload, index
	stalls    int
	kind      string // vod, seek, group or live
	video     int    // video frames the player decoded
	broken    int    // of those, frames its decoder reported broken
	metrics   *player.Metrics
	err       error
}

// kindOf names a session the way the workload mixes do.
func kindOf(spec client.Spec) string {
	switch {
	case spec.Kind == client.Group:
		return "group"
	case spec.Kind == client.Live:
		return "live"
	case spec.Start > 0:
		return "seek"
	}
	return "vod"
}

// beginSpan opens a session's client.session span in a traced pass and
// puts its identity into ctx for the client transport; untraced, it
// returns ctx and nil.
func beginSpan(ctx context.Context, rec *recorder, id uint64, key string) (context.Context, *span) {
	if rec == nil {
		return ctx, nil
	}
	sp := &span{ID: rec.newID(), Session: id, Name: spanSession, Role: "client", Key: key, Start: rec.now()}
	return withSession(ctx, sessionRef{session: id, span: sp.ID}), sp
}

// endSpan records a verified session's span; a nil span is an untraced
// pass.
func endSpan(rec *recorder, sp *span, probe *bodyProbe, packets int) {
	if sp == nil {
		return
	}
	sp.End = rec.now()
	sp.FirstWrite = int64(probe.firstByte.Sub(rec.epoch))
	sp.Blocked, sp.Bytes, sp.Packets = int64(probe.blocked), probe.wire, int64(packets)
	rec.add(*sp)
}

// playSession runs one session through Session.Play and checks what it
// delivered against what expect says it should have: the verified
// session of the same request for stored content, the published
// broadcast for a live join (whose wire size, 0, is not checked). begin
// is when the session counts as started — the due time in the open
// loop.
func playSession(ctx context.Context, sdk *client.Client, rec *recorder, id uint64, spec client.Spec,
	begin time.Time, expect func(m *player.Metrics) (expectation, error)) played {

	res := played{begin: begin, kind: kindOf(spec)}
	probe := &bodyProbe{timed: rec != nil}
	spec.WrapBody = func(r io.Reader) io.Reader { probe.r = r; return probe }
	ctx, sp := beginSpan(ctx, rec, id, spec.Name)
	sess, err := sdk.Open(ctx, spec)
	if err != nil {
		res.err = err
		return res
	}
	m, err := sess.Play()
	res.end = time.Now()
	res.metrics = m
	if err != nil {
		res.err = err
		return res
	}
	exp, err := expect(m)
	if err != nil {
		res.err = err
		return res
	}
	if m.BytesRead != exp.payload || m.VideoFrames != exp.video || m.AudioBlocks != exp.audio ||
		(exp.wire != 0 && probe.wire != exp.wire) {
		res.err = fmt.Errorf("%s: delivered payload %d wire %d video %d audio %d, want %d/%d/%d/%d",
			sess.Target(), m.BytesRead, probe.wire, m.VideoFrames, m.AudioBlocks, exp.payload, exp.wire, exp.video, exp.audio)
		return res
	}
	res.startupMs = ms(probe.firstByte.Sub(begin))
	res.sessionMs = ms(res.end.Sub(begin))
	res.packets, res.payload, res.wire, res.stalls = exp.packets, exp.payload, probe.wire, m.Stalls
	res.video, res.broken = m.VideoFrames, m.BrokenFrames
	endSpan(rec, sp, probe, exp.packets)
	return res
}

// playStored is playSession for stored content, whose expectation the
// verification pass recorded.
func playStored(ctx context.Context, sdk *client.Client, rec *recorder, id uint64,
	spec client.Spec, exp expectation, begin time.Time) played {

	return playSession(ctx, sdk, rec, id, spec, begin, func(*player.Metrics) (expectation, error) { return exp, nil })
}

// tally accumulates one goroutine's sessions; tallies are merged after
// the window so the hot path shares nothing.
type tally struct {
	attempted int
	failed    int
	packets   int64
	payload   int64
	wire      int64
	startup   []float64 // ms
	session   []float64 // ms
	// frames counts, per session kind, video frames decoded and those
	// the player's decoder reported broken.
	frames   map[string][2]int64
	firstErr error
}

func (t *tally) add(p played) {
	t.attempted++
	if p.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = p.err
		}
		return
	}
	t.packets += int64(p.packets)
	t.payload += p.payload
	t.wire += p.wire
	t.startup = append(t.startup, p.startupMs)
	t.session = append(t.session, p.sessionMs)
	if p.video > 0 {
		if t.frames == nil {
			t.frames = make(map[string][2]int64)
		}
		f := t.frames[p.kind]
		t.frames[p.kind] = [2]int64{f[0] + int64(p.video), f[1] + int64(p.broken)}
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.packets += o.packets
	t.payload += o.payload
	t.wire += o.wire
	t.startup = append(t.startup, o.startup...)
	t.session = append(t.session, o.session...)
	for k, f := range o.frames {
		if t.frames == nil {
			t.frames = make(map[string][2]int64)
		}
		g := t.frames[k]
		t.frames[k] = [2]int64{g[0] + f[0], g[1] + f[1]}
	}
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) sorted() {
	sort.Float64s(t.startup)
	sort.Float64s(t.session)
}
