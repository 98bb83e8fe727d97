package client

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/player"
	"repro/internal/relay"
	"repro/internal/vclock"
)

// Session is one logical stream through the cluster, opened from a
// Spec. A session is single-use: call Play (scripted playback) or
// Fetch (raw packet reads), then read Stats. It is not safe for
// concurrent use.
type Session interface {
	// Play streams to completion through the scripted player and
	// returns the merged metrics of every segment (never nil). Failover
	// happens inside: a dead edge is reported to the registry, excluded
	// from the next pick, and stored streams resume at the last
	// received media offset — never earlier than the spec's Start.
	Play() (*player.Metrics, error)
	// Fetch resolves the stream and returns its raw container body
	// (header, packets, trailing index) for callers that parse packets
	// themselves. Failures before the body starts — a dead edge, a
	// momentary no-edge 503 — fail over within the spec's budget, but a
	// stream severed mid-read is the caller's to handle: resume by
	// opening a new session with Start at the last offset read. An
	// asf.Reader over the body lends each packet until the next read;
	// see the asf package documentation for who may keep one.
	Fetch() (io.ReadCloser, error)
	// Stats reports what the session has measured so far: the serving
	// edge and its failover counters.
	Stats() Stats
	// Target is the /v1 request path the session resolves, as built
	// from the spec.
	Target() string
}

// Stats is a session's failover accounting.
type Stats struct {
	// Edge is the host that served the stream — the last one, when the
	// session failed over.
	Edge string
	// Failovers counts serving-edge failures the session rode out: the
	// edge refused the connection, answered 5xx, or severed the stream
	// mid-play, and the session went back to the registry.
	Failovers int
	// Retries counts every extra registry round trip, failovers plus
	// no-edge (503) backoffs.
	Retries int
}

// session is the SDK's one Session implementation, wrapping the shared
// relay failover machinery.
type session struct {
	ctx     context.Context
	spec    Spec
	fetcher *relay.StreamFetcher
	target  string
	// clock times failover backoff: the spec's player clock, so a
	// session waits on the same clock it plays on.
	clock vclock.Clock

	mu    sync.Mutex
	stats Stats
}

func newSession(ctx context.Context, c *Client, spec Spec) *session {
	clock := spec.Player.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	return &session{
		ctx:     ctx,
		spec:    spec,
		fetcher: relay.NewStreamFetcher(c.registry, c.http),
		target:  spec.Target(),
		clock:   clock,
	}
}

func (s *session) Target() string { return s.target }

func (s *session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *session) setEdge(edge string) {
	if edge == "" {
		return
	}
	s.mu.Lock()
	s.stats.Edge = edge
	s.mu.Unlock()
}

// onRetry books one retried failure and forwards it to the spec's
// observer.
func (s *session) onRetry(edge string, err error) {
	s.mu.Lock()
	s.stats.Retries++
	if edge != "" {
		s.stats.Failovers++
	}
	s.mu.Unlock()
	if f := s.spec.OnRetry; f != nil {
		f(edge, err)
	}
}

func (s *session) Play() (*player.Metrics, error) {
	fs := &relay.FailoverSession{
		Fetcher:  s.fetcher,
		Target:   s.target,
		Live:     s.spec.Kind == Live,
		Attempts: s.spec.Failover,
		Player:   s.spec.Player,
		WrapBody: s.spec.WrapBody,
		OnRetry:  s.onRetry,
		Clock:    s.clock,
	}
	m, edge, err := fs.Run(s.ctx)
	s.setEdge(edge)
	return m, err
}

func (s *session) Fetch() (io.ReadCloser, error) {
	attempts := s.spec.Failover + 1
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		resp, edge, err := s.fetcher.Fetch(s.ctx, s.target)
		s.setEdge(edge)
		if err == nil {
			return resp.Body, nil
		}
		lastErr = err
		if !relay.Retryable(err) || attempt == attempts || s.ctx.Err() != nil {
			break
		}
		var fe *relay.FetchError
		errors.As(err, &fe)
		s.onRetry(fe.Edge, err)
		if !vclock.SleepCtx(s.ctx, s.clock, relay.FailoverBackoff(0, attempt)) {
			break
		}
	}
	return nil, lastErr
}
