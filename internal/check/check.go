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
	"time"

	"repro/internal/asf"
)

// ErrBody is the error a body that breaks its invariant, or differs from
// the one it must be, is reported with.
var ErrBody = errors.New("check: body breaks its invariant")

// StoredBody returns the body a stored session of container must receive,
// derived from the container's bytes alone: its header, encoded again
// (asf.EncodeHeader), then the packets from the last seek point
// (asf.Header.SeekPoint) at or before start on, each as asf.EncodePacket
// encodes it. A start of 0 is a request with no ?start, the whole body,
// as client.Spec.Target sends it; so is a start before every seek point.
// A legacy index trailer is skipped, as the reader skips it. A Range
// resume from byte n must receive StoredBody(container, start)[n:].
func StoredBody(container []byte, start time.Duration) ([]byte, error) {
	r := asf.NewReader(bytes.NewReader(container))
	h, err := r.ReadHeader()
	if err != nil {
		return nil, fmt.Errorf("check: stored header: %w", err)
	}
	body, err := asf.EncodeHeader(h)
	if err != nil {
		return nil, fmt.Errorf("check: stored header: %w", err)
	}
	header := len(body)
	for i := 0; ; i++ {
		p, err := r.ReadPacket()
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, fmt.Errorf("check: stored packet %d: %w", i, err)
		}
		if start > 0 && p.PTS <= start && h.SeekPoint(p) {
			body = body[:header] // a later seek point at or before start
		}
		wire, err := asf.EncodePacket(p)
		if err != nil {
			return nil, fmt.Errorf("check: stored packet %d: %w", i, err)
		}
		body = append(body, wire...)
	}
}

// Body reads got to its end and checks that it is want, byte for byte.
// The first byte that differs is reported with ErrBody, together with the
// object of want it falls in (the header, or a packet by position and
// sequence number), found by walking want's own framing. A body that ends
// short of want is io.ErrUnexpectedEOF, one that runs past it ErrBody,
// and an error reading got is returned as it came.
func Body(got io.Reader, want []byte) error {
	body, err := io.ReadAll(got)
	for i := 0; i < min(len(body), len(want)); i++ {
		if body[i] != want[i] {
			return fmt.Errorf("%w: byte %d is %#02x, want %#02x, in %s", ErrBody, i, body[i], want[i], object(want, i))
		}
	}
	switch {
	case len(body) > len(want):
		return fmt.Errorf("%w: the body runs past its %d bytes", ErrBody, len(want))
	case err != nil:
		return fmt.Errorf("check: body after %d bytes: %w", len(body), err)
	case len(body) < len(want):
		return fmt.Errorf("check: the body ends after %d of its %d bytes, in %s: %w",
			len(body), len(want), object(want, len(body)), io.ErrUnexpectedEOF)
	}
	return nil
}

// object names the object of body that byte off falls in, walking body's
// own framing with asf.Reader: the header, as asf.EncodeHeader encodes
// it, then each packet's wire image as it arrived.
func object(body []byte, off int) string {
	r := asf.NewReader(bytes.NewReader(body))
	h, err := r.ReadHeader()
	if err != nil {
		return "the header"
	}
	header, err := asf.EncodeHeader(h)
	if err != nil || off < len(header) {
		return "the header"
	}
	end := len(header)
	for i := 0; ; i++ {
		sp, err := r.ReadShared()
		if err != nil {
			return fmt.Sprintf("no packet: the framing ends at byte %d", end)
		}
		next := end + len(sp.Wire())
		if off < next {
			return fmt.Sprintf("packet %d (sequence number %d, bytes %d to %d)", i, sp.Packet().Seq, end, next)
		}
		end = next
	}
}

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
