package streaming

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/asf"
	"repro/internal/vclock"
)

// A channel's log keeps at least logKeep packets and the span since its
// latest seek point, and a drain round takes at most logKeep packets; it
// tracks at most retiredMax buffers (1 MB) that lagging viewers still
// read.
const (
	logKeep    = 128
	retiredMax = 16
)

// Channel is one live broadcast: an encoder publishes packets into a log
// at absolute positions, and each viewer is a cursor into it. A join
// starts at the latest seek point (asf.Header.SeekPoint), so its decoder
// can start at once. The log is cut at seek points only, and a viewer it
// has passed jumps to its tail: it loses whole GOPs or nothing, and the
// broadcast never waits for it. A packet becomes a wire image once, in
// the channel's slab, and images published one after another lie back to
// back and leave in runs (asf.Run). Nothing may mutate a *asf.Shared.
type Channel struct {
	Name string

	// pub serializes publishers and guards slab; it is taken before mu.
	pub  sync.Mutex
	slab asf.Slab
	// pool is where the slab's buffers come from and go back to: the
	// server's, or the channel's own for one made by NewChannel.
	pool *asf.Pool

	mu     sync.Mutex
	header asf.Header
	// wireHeader is header encoded once, the bytes every join sends
	// first; neither changes.
	wireHeader []byte
	log        []*asf.Shared // log[i] is the packet at position tail+i
	tail       int64
	latest     int64 // the latest seek point; -1 before the first
	cursors    []*cursor
	waiting    []*cursor // the cursors that found nothing to read
	// retired are the pool's buffers the slab has left, oldest first, and
	// carving says it carves one of the pool's now.
	retired []retiredBuffer
	carving bool
	// pinned is set once a Subscriber attached: its receivers may keep
	// what they were handed, so no buffer goes back to the pool again.
	pinned  bool
	closed  bool
	err     error // why the broadcast ended; nil while open or for a clean end
	dropped int64 // packets skipped by viewers the log passed
	resyncs int64 // the jumps that skipped them
}

// A retiredBuffer's packets all lie below position end.
type retiredBuffer struct {
	buf []byte
	end int64
}

// A cursor is a viewer's place in the log, the position it reads next.
// A token on wake means "look again"; the log is never cut past a
// lossless cursor.
type cursor struct {
	pos      int64
	wake     chan struct{}
	lossless bool
}

// NewChannel creates a live channel with the stream header clients will be
// sent on join. The header's live flag is forced on. Its slab buffers
// come from a pool of its own.
func NewChannel(name string, h asf.Header) (*Channel, error) {
	h.Flags |= asf.FlagLive
	wire, err := asf.EncodeHeader(h) // validates h
	if err != nil {
		return nil, err
	}
	c := &Channel{Name: name, header: h, wireHeader: wire, latest: -1, pool: new(asf.Pool)}
	c.slab.Renew = c.renew
	return c, nil
}

// Header returns the channel's stream header.
func (c *Channel) Header() asf.Header { return c.header }

// locked returns what f reads of c under c.mu.
func locked[T any](c *Channel, f func() T) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	return f()
}

// ClientCount returns the number of attached viewers.
func (c *Channel) ClientCount() int { return locked(c, func() int { return len(c.cursors) }) }

// Closed reports whether the broadcast has ended.
func (c *Channel) Closed() bool { return locked(c, func() bool { return c.closed }) }

// Err returns the error the broadcast was closed with: nil while it runs
// and after a clean end.
func (c *Channel) Err() error { return locked(c, func() error { return c.err }) }

// Published returns the number of packets published.
func (c *Channel) Published() int64 {
	return locked(c, func() int64 { return c.tail + int64(len(c.log)) })
}

// Dropped returns the packets skipped by viewers the log had passed.
func (c *Channel) Dropped() int64 { return locked(c, func() int64 { return c.dropped }) }

// Resyncs returns how often a viewer the log had passed jumped to it.
func (c *Channel) Resyncs() int64 { return locked(c, func() int64 { return c.resyncs }) }

// Publish is the origin-side entry: an encoder hands over a Packet and it
// is encoded once, into the channel's slab, and logged. The encode copies
// p.Payload, so the caller may reuse it at once.
func (c *Channel) Publish(p asf.Packet) error {
	return c.publish(func(s *asf.Slab) (*asf.Shared, error) { return s.NewShared(p) })
}

// Relay publishes every packet r reads, its wire image copied as it
// arrived (asf.Reader.ReadTo), until a read fails (io.EOF at a clean
// end) or the channel closes (ErrChanClosed), and returns that error.
func (c *Channel) Relay(r *asf.Reader) error {
	for {
		if err := c.publish(r.ReadTo); err != nil {
			return err
		}
	}
}

// publish logs the packet carve makes in the channel's slab. Logging a
// seek point cuts the log at the latest seek point with logKeep packets
// behind it, but not past a lossless cursor.
func (c *Channel) publish(carve func(*asf.Slab) (*asf.Shared, error)) error {
	c.pub.Lock()
	defer c.pub.Unlock()
	sp, err := carve(&c.slab)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrChanClosed
	}
	c.log = append(c.log, sp)
	if c.header.SeekPoint(sp.Packet()) {
		c.latest = c.tail + int64(len(c.log)) - 1
		i := len(c.log) - logKeep
		for _, cur := range c.cursors {
			if cur.lossless {
				i = min(i, int(cur.pos-c.tail))
			}
		}
		for ; i > 0 && !c.header.SeekPoint(c.log[i].Packet()); i-- {
		}
		if i > 0 {
			c.log, c.tail = slices.Delete(c.log, 0, i), c.tail+int64(i)
		}
	}
	c.wakeWaiting()
	return nil
}

// wakeWaiting hands every waiting cursor a token.
func (c *Channel) wakeWaiting() {
	for _, cur := range c.waiting {
		select {
		case cur.wake <- struct{}{}:
		default:
		}
	}
	clear(c.waiting)
	c.waiting = c.waiting[:0]
}

// renew is the slab's Renew, under c.pub; every packet in left is logged,
// or refused by a closed channel. It retires left, gives back what no
// one reads any more and takes the next buffer from the pool; once the
// channel has ended (end), a publish racing the end carves a buffer of
// its own.
func (c *Channel) renew(left []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed && len(c.cursors) == 0 {
		return nil
	}
	if left != nil {
		c.retired = append(c.retired, retiredBuffer{buf: left, end: c.tail + int64(len(c.log))})
	}
	c.giveBack()
	c.carving = true
	return c.pool.Get()
}

// giveBack, under c.mu, gives the pool the retired buffers no one reads
// again: those whose packets all lie below every cursor and, while
// viewers may still join, below the tail. No write is reading one, since
// a cursor passes a packet only once its write returned. Of the rest it
// tracks at most retiredMax and forgets the oldest beyond, so a stalled
// viewer costs memory the collector reclaims, never a stalled or corrupt
// broadcast. A pinned channel forgets every one.
func (c *Channel) giveBack() {
	low, keep := c.tail, retiredMax
	switch {
	case c.pinned:
		low, keep = math.MinInt64, 0
	case c.closed:
		low = math.MaxInt64
	}
	for _, cur := range c.cursors {
		low = min(low, cur.pos)
	}
	free := 0
	for ; free < len(c.retired) && c.retired[free].end <= low; free++ {
		c.pool.Put(c.retired[free].buf)
	}
	forget := max(len(c.retired)-free-keep, 0)
	c.pool.Forget(forget)
	c.retired = slices.Delete(c.retired, 0, free+forget)
}

// end, under c.mu, gives back what the channel holds once the broadcast
// is over and its last viewer has left: its retired buffers, and the one
// its slab carves, forgotten, since a publish racing the end may still
// carve in it.
func (c *Channel) end() {
	if c.closed && len(c.cursors) == 0 && c.carving {
		c.giveBack()
		c.pool.Forget(1)
		c.carving = false
	}
}

// join attaches a viewer at the latest seek point, or at the tail of a
// log that holds none.
func (c *Channel) join(lossless bool) (*cursor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrChanClosed
	}
	c.pinned = c.pinned || lossless
	cur := &cursor{pos: max(c.tail, c.latest), wake: make(chan struct{}, 1), lossless: lossless}
	c.cursors = append(c.cursors, cur)
	return cur, nil
}

// leave detaches cur. Safe to call more than once.
func (c *Channel) leave(cur *cursor) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.cursors, cur); i >= 0 {
		c.cursors = slices.Delete(c.cursors, i, i+1)
	}
	c.end()
}

// drain hands write what the log holds from cur on, a round at a time,
// and moves cur past a round only once write returned true, so no buffer
// the round lies in is reused while write may read it. A cursor the log
// has passed jumps to the tail first. idle runs before each wait. drain
// reports whether it read the broadcast to its end; done or a false
// write stops it early.
func (c *Channel) drain(cur *cursor, done <-chan struct{}, idle func() error, write func([]*asf.Shared) bool) bool {
	batch := make([]*asf.Shared, 0, logKeep)
	for {
		c.mu.Lock()
		cur.pos += int64(len(batch))
		if cur.pos < c.tail {
			c.dropped += c.tail - cur.pos
			c.resyncs++
			cur.pos = c.tail
		}
		from := c.log[cur.pos-c.tail:]
		batch = append(batch[:0], from[:min(len(from), logKeep)]...)
		closed := c.closed
		if len(batch) == 0 && !closed {
			c.waiting = append(c.waiting, cur)
		}
		c.mu.Unlock()
		switch {
		case len(batch) > 0:
			if !write(batch) {
				return false
			}
		case closed:
			return true
		default:
			idle()
			select {
			case <-cur.wake:
			case <-done:
				return false
			}
		}
	}
}

// Subscriber is an in-process viewer: C delivers the broadcast from the
// latest seek point on and is closed at its end or by Close. It loses
// nothing: the log is not cut past what it has yet to read. A receiver
// may keep what it is handed, so a channel that ever had a Subscriber
// gives no slab buffer back to its pool again. It leaves once C is
// closed.
type Subscriber struct {
	C     <-chan *asf.Shared
	close func()
}

// Subscribe attaches an in-process viewer.
func (c *Channel) Subscribe() (*Subscriber, error) {
	cur, err := c.join(true)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background()) //lodlint:allow bare-ctx the pump lives until Close
	send := make(chan *asf.Shared)
	go func() {
		defer close(send)
		defer c.leave(cur)
		c.drain(cur, ctx.Done(), func() error { return nil }, func(batch []*asf.Shared) bool {
			for _, sp := range batch {
				select {
				case send <- sp:
				case <-ctx.Done():
					return false
				}
			}
			return true
		})
	}()
	return &Subscriber{C: send, close: func() { stop(); c.leave(cur) }}, nil
}

// Close detaches the subscriber and closes C. Safe to call more than
// once.
func (s *Subscriber) Close() { s.close() }

// Close ends the broadcast cleanly: every viewer reads the packets
// already logged, then the end.
func (c *Channel) Close() { c.CloseWithError(nil) }

// CloseWithError ends the broadcast like Close and records err as why
// (see Err): a non-nil err says the broadcast broke off — a relay lost
// its upstream — so viewers must not take the end for a complete stream.
// Only the first close counts.
func (c *Channel) CloseWithError(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed, c.err = true, err
		c.wakeWaiting()
		c.end()
	}
}

// PublishPaced publishes the packets honoring their send times against the
// clock, stopping early if ctx is cancelled. It is the origin-side bridge
// between a stored/encoded packet sequence and a live broadcast.
func (c *Channel) PublishPaced(ctx context.Context, clock vclock.Clock, packets []asf.Packet) error {
	if clock == nil {
		clock = vclock.Real{}
	}
	start := clock.Now()
	for _, p := range packets {
		if !clock.SleepUntil(ctx, start.Add(p.SendAt)) || ctx.Err() != nil {
			return ctx.Err()
		}
		if err := c.Publish(p); err != nil {
			return err
		}
	}
	return nil
}

// CreateChannel registers a new live channel on the server, its slab
// buffers taken from the server's pool.
func (s *Server) CreateChannel(name string, h asf.Header) (*Channel, error) {
	ch, err := NewChannel(name, h)
	if err != nil {
		return nil, err
	}
	ch.pool = &s.pool
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.channels[name]; ok {
		return nil, fmt.Errorf("%w: channel %q", ErrDuplicate, name)
	}
	s.channels[name] = ch
	return ch, nil
}

// RemoveChannel unregisters an ended channel, if it is still the one
// registered under its name, so that the next join may create the name
// anew; it reports whether it did. Its viewers are not touched, and its
// counts stay in the server's lod_channel_* totals.
func (s *Server) RemoveChannel(ch *Channel) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.channels[ch.Name] != ch {
		return false
	}
	delete(s.channels, ch.Name)
	s.droppedRemoved += ch.Dropped()
	s.resyncsRemoved += ch.Resyncs()
	return true
}

// channelTotal sums count over the server's channels, plus removed,
// what the removed ones counted.
func (s *Server) channelTotal(removed *int64, count func(*Channel) int64) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := *removed
	for _, ch := range s.channels {
		n += count(ch)
	}
	return float64(n)
}

// Channel returns a registered live channel.
func (s *Server) Channel(name string) (*Channel, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ch, ok := s.channels[name]
	return ch, ok
}
