// Package check holds oracles for the bodies the servers send: what a
// correct body is, stated once, in terms of the container format alone,
// so that tests and load harnesses judge every session by the same rule
// and none by a copy of the code it judges.
package check

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/asf"
)

// ErrBody is the error a body that breaks its invariant is reported
// with.
var ErrBody = errors.New("check: body breaks its invariant")

// LiveBody checks the invariant every live viewer's body keeps, whatever
// it lost to lag or failover: it is the channel's encoded header, then
// runs of packets whose sequence numbers rise by one, and every run after
// the first starts at a seek point (asf.Header.SeekPoint) with a
// sequence number above the run before it. A body that breaks it is
// reported with ErrBody; a body cut inside an object reads as
// io.ErrUnexpectedEOF; one that ends cleanly after a packet is nil.
func LiveBody(header []byte, got io.Reader) error {
	prefix := make([]byte, len(header))
	if _, err := io.ReadFull(got, prefix); err != nil {
		return fmt.Errorf("check: live header: %w", err)
	}
	if !bytes.Equal(prefix, header) {
		return fmt.Errorf("%w: the live header is not the channel's", ErrBody)
	}
	r := asf.NewReader(io.MultiReader(bytes.NewReader(header), got))
	h, err := r.ReadHeader()
	if err != nil {
		return fmt.Errorf("check: live header: %w", err)
	}
	prev := int64(-1)
	for i := 0; ; i++ {
		p, err := r.ReadPacket()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("check: live packet %d: %w", i, err)
		}
		switch seq := int64(p.Seq); {
		case prev < 0 || seq == prev+1:
		case seq <= prev:
			return fmt.Errorf("%w: live packet %d has sequence number %d after %d", ErrBody, i, seq, prev)
		case !h.SeekPoint(p):
			return fmt.Errorf("%w: live packet %d (sequence number %d after %d) starts a run but is no seek point", ErrBody, i, seq, prev)
		}
		prev = int64(p.Seq)
	}
}
