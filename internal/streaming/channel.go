package streaming

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/asf"
	"repro/internal/vclock"
)

// DefaultSubscriberBuffer is the per-subscriber packet queue depth. A slow
// client that falls further behind than this has packets dropped rather
// than stalling the broadcast (the server-side flow-control policy).
const DefaultSubscriberBuffer = 256

// Channel is one live broadcast: an encoder publishes packets, any number
// of subscribers receive them. New subscribers get a catch-up backlog
// starting at the most recent seek point (asf.Header.SeekPoint) so their
// decoder can start immediately.
//
// Fan-out is zero-copy: a packet becomes a wire image exactly once —
// encoded at the origin's Publish, or read off the origin's stream by a
// relaying edge (asf.Reader.ReadShared) — and every subscriber, and every
// late joiner's backlog replay, receives a pointer to the same immutable
// buffer. Nothing downstream may mutate a *asf.Shared.
type Channel struct {
	Name string

	mu     sync.Mutex
	header asf.Header
	// wireHeader is header encoded once, the bytes every join sends
	// first; it never changes.
	wireHeader []byte
	backlog    []*asf.Shared
	// slab is where Publish encodes; a stretch of broadcast shares its
	// buffers, which live as long as a backlog or a queue holds a packet
	// in them.
	slab      asf.Slab
	subs      map[int]*Subscriber
	nextID    int
	closed    bool
	err       error // why the broadcast ended; nil while open or for a clean end
	published int64
	dropped   int64
	// SubscriberBuffer overrides DefaultSubscriberBuffer when positive.
	SubscriberBuffer int
}

// Subscriber is one attached client.
type Subscriber struct {
	// C delivers live packets; closed when the broadcast ends. Packets
	// are shared immutable buffers — read-only for every receiver.
	C <-chan *asf.Shared
	// Backlog is the catch-up burst to send before live packets.
	Backlog []*asf.Shared

	ch   *Channel
	id   int
	send chan *asf.Shared
	once sync.Once
}

// NewChannel creates a live channel with the stream header clients will be
// sent on join. The header's live flag is forced on.
func NewChannel(name string, h asf.Header) (*Channel, error) {
	h.Flags |= asf.FlagLive
	wire, err := asf.EncodeHeader(h) // validates h
	if err != nil {
		return nil, err
	}
	return &Channel{
		Name:       name,
		header:     h,
		wireHeader: wire,
		subs:       make(map[int]*Subscriber),
	}, nil
}

// Header returns the channel's stream header.
func (c *Channel) Header() asf.Header {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.header
}

// ClientCount returns the number of attached subscribers.
func (c *Channel) ClientCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// Closed reports whether the broadcast has ended.
func (c *Channel) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Err returns why the broadcast ended: the error it was closed with, or
// nil while it runs and after a clean end.
func (c *Channel) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Published returns the number of packets published.
func (c *Channel) Published() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.published
}

// Dropped returns packets dropped across all slow subscribers.
func (c *Channel) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Publish is the origin-side entry: an encoder hands over a Packet, it
// is encoded once, into the channel's slab, and the shared form fanned
// out to every subscriber; see PublishShared. The publisher keeps
// ownership of p.Payload — the encode copies it — so callers may reuse
// their payload buffer immediately.
func (c *Channel) Publish(p asf.Packet) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrChanClosed
	}
	sp, err := c.slab.NewShared(p)
	if err != nil {
		return err
	}
	c.fanOut(sp)
	return nil
}

// PublishShared fans a pre-encoded packet out to every subscriber and
// maintains the seek-point-aligned backlog; a relaying edge calls it with
// the origin's wire images as read. Slow subscribers lose the packet.
// This is the allocation-free steady-state path: the shared buffer is
// handed out by pointer, and the backlog slice's capacity is reused
// across seek-point resets.
func (c *Channel) PublishShared(sp *asf.Shared) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrChanClosed
	}
	c.fanOut(sp)
	return nil
}

// fanOut is PublishShared under c.mu on an open channel.
func (c *Channel) fanOut(sp *asf.Shared) {
	c.published++
	// Reset the catch-up window at seek points so joins start clean.
	if c.header.SeekPoint(sp.Packet()) {
		c.backlog = c.backlog[:0]
	}
	c.backlog = append(c.backlog, sp)
	for _, sub := range c.subs {
		select {
		case sub.send <- sp:
		default:
			c.dropped++
		}
	}
}

// Subscribe attaches a new client, returning its live queue and the
// catch-up backlog.
func (c *Channel) Subscribe() (*Subscriber, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrChanClosed
	}
	depth := c.SubscriberBuffer
	if depth <= 0 {
		depth = DefaultSubscriberBuffer
	}
	send := make(chan *asf.Shared, depth)
	sub := &Subscriber{
		C:       send,
		send:    send,
		Backlog: append([]*asf.Shared(nil), c.backlog...),
		ch:      c,
		id:      c.nextID,
	}
	c.subs[c.nextID] = sub
	c.nextID++
	return sub, nil
}

// Close detaches the subscriber. Safe to call multiple times.
func (s *Subscriber) Close() {
	s.once.Do(func() {
		s.ch.mu.Lock()
		delete(s.ch.subs, s.id)
		s.ch.mu.Unlock()
	})
}

// Close ends the broadcast cleanly: all subscriber queues are closed
// after the packets already queued.
func (c *Channel) Close() { c.CloseWithError(nil) }

// CloseWithError ends the broadcast like Close and records err as why
// (see Err): a non-nil err says the broadcast broke off — a relay lost
// its upstream — so viewers must not take the end for a complete stream.
// Only the first close counts.
func (c *Channel) CloseWithError(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed, c.err = true, err
	for id, sub := range c.subs {
		close(sub.send)
		delete(c.subs, id)
	}
}

// PublishPaced publishes the packets honoring their send times against the
// clock, stopping early if ctx is cancelled. It is the origin-side bridge
// between a stored/encoded packet sequence and a live broadcast. Each
// packet is encoded into its shared form once, up front and into one
// slab, so the pacing loop's publishes are allocation-free.
func (c *Channel) PublishPaced(ctx context.Context, clock vclock.Clock, packets []asf.Packet) error {
	if clock == nil {
		clock = vclock.Real{}
	}
	var slab asf.Slab
	shared := make([]*asf.Shared, len(packets))
	for i, p := range packets {
		sp, err := slab.NewShared(p)
		if err != nil {
			return err
		}
		shared[i] = sp
	}
	start := clock.Now()
	for _, sp := range shared {
		due := start.Add(sp.SendAt())
		if wait := due.Sub(clock.Now()); wait > 0 {
			select {
			case <-clock.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.PublishShared(sp); err != nil {
			return err
		}
	}
	return nil
}

// CreateChannel registers a new live channel on the server.
func (s *Server) CreateChannel(name string, h asf.Header) (*Channel, error) {
	ch, err := NewChannel(name, h)
	if err != nil {
		return nil, err
	}
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
// anew; it reports whether it did. Sessions attached to the channel are
// not touched, and its dropped packets stay in lod_channel_dropped_total.
func (s *Server) RemoveChannel(ch *Channel) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.channels[ch.Name] != ch {
		return false
	}
	delete(s.channels, ch.Name)
	s.droppedRemoved += ch.Dropped()
	return true
}

// channelDropped sums Dropped over the server's channels, removed ones
// included.
func (s *Server) channelDropped() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.droppedRemoved
	for _, ch := range s.channels {
		n += ch.Dropped()
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
