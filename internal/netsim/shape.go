package netsim

import (
	"context"
	"io"
	"time"

	"repro/internal/vclock"
)

// maxRetransmits bounds the per-chunk retransmission loop; a valid
// LossRate (< 1) makes hitting it astronomically unlikely.
const maxRetransmits = 64

// linkSegment is the link's own segment: the most one Read of a shaped
// link delivers, whatever buffer the caller reads into. The delivery
// model belongs to the link, so a caller that reads into a larger buffer
// does not turn the link into one that delivers in bursts of that size.
const linkSegment = 16 << 10

// LinkReader shapes a byte stream through a Link: every Read, of at
// most linkSegment bytes, is modeled as one packet transmitted over the
// link (serialization at the link bandwidth, propagation latency,
// jitter), and the reader sleeps on its clock until the modeled arrival
// instant. A lost packet is treated as a TCP-style retransmission — the
// bytes are delivered, after the cost of transmitting them again — so
// stream contents are never corrupted, only delayed.
//
// Packets pipeline through the link the way they do on a real path:
// serialization delays accumulate in the link's queue, but propagation
// latency offsets each packet's arrival without blocking the next
// packet's departure (the reader is not store-and-forward). The
// reader's own shaping sleeps are therefore excluded from the modeled
// send times — without that, a stream of many small packets would pay
// the full latency per packet and drift unboundedly late even on an
// otherwise idle link.
//
// LinkReader takes exclusive ownership of its Link: Link is not safe
// for concurrent use, so the link must not be shared with any other
// reader or Transmit caller (clone a prototype with Link.Clone for
// each flow). The reader itself must also be confined to one goroutine,
// like any io.Reader.
type LinkReader struct {
	r     io.Reader
	link  *Link
	clock vclock.Clock

	started bool
	start   time.Time
	// slept is the artificial shaping delay injected so far; modeled
	// send times are wall elapsed minus this, so shaping sleeps never
	// push later packets' departures (pipelining).
	slept time.Duration
}

// NewLinkReader wraps r in the link's delivery model on the given
// clock (nil = real clock). A nil link returns an unshaped pass-through
// reader. The link must be exclusively owned by the returned reader.
func NewLinkReader(r io.Reader, link *Link, clock vclock.Clock) *LinkReader {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &LinkReader{r: r, link: link, clock: clock}
}

// Read implements io.Reader, delaying delivery of each chunk — at most
// linkSegment bytes — by the link's modeled transit time.
func (lr *LinkReader) Read(p []byte) (int, error) {
	if lr.link == nil {
		return lr.r.Read(p)
	}
	if len(p) > linkSegment {
		p = p[:linkSegment]
	}
	n, err := lr.r.Read(p)
	if n <= 0 {
		return n, err
	}
	if !lr.started {
		lr.started = true
		lr.start = lr.clock.Now()
	}
	now := lr.clock.Now().Sub(lr.start)
	// The sender had this data at `now` minus our own injected delays;
	// with send times on that timeline, the link's arrival instants map
	// back to wall time directly (transit = ArrivedAt - sendAt, and
	// sendAt is the wall availability).
	d := lr.link.Transmit(now-lr.slept, n)
	// Retransmit lost copies from their departure instants. The attempt
	// cap keeps a pathological link (LossRate at or near 1, constructed
	// without Validate) from spinning forever; past it the chunk is
	// delivered at its last departure plus the propagation latency.
	for tries := 0; d.Lost; tries++ {
		if tries >= maxRetransmits {
			d.ArrivedAt = d.DepartedAt + lr.link.Latency
			break
		}
		d = lr.link.Transmit(d.DepartedAt, n)
	}
	if wait := d.ArrivedAt - now; wait > 0 {
		//lodlint:allow bare-ctx Read takes no context; the modeled transit is not cancellable
		lr.clock.SleepUntil(context.TODO(), lr.start.Add(d.ArrivedAt))
		lr.slept += wait
	}
	return n, err
}
