package relay

// This file is the failover half of the client: one churn-tolerant
// session behind internal/client (cmd/lodplay -failover, the
// benchmark), so the retry/resume protocol exists exactly once. It
// lives in relay (not player) because the streaming package's tests
// import player, and player importing relay would close an import
// cycle through relay's streaming dependency.

import (
	"context"
	"errors"
	"io"

	"repro/internal/player"
	"repro/internal/vclock"
)

// FailoverSession plays one stream through a cluster registry with
// churn tolerance: each attempt resolves Target via the fetcher (which
// reports dead edges and excludes them from the next pick), a stream
// severed mid-play resumes stored content at the last received media
// offset via ?start= (live sessions just rejoin), and the segments'
// metrics merge into one session. The resume offset is seeded from any
// start offset already in Target, so a seek session severed before its
// first media packet resumes at the original seek point, not 0:00.
type FailoverSession struct {
	// Fetcher resolves Target through the registry; required.
	Fetcher *StreamFetcher
	// Target is the stream path plus optional query, e.g.
	// /vod/lec-1?start=2s, in either the /v1 or the legacy form
	// (internal/client builds it with proto.StreamPath).
	Target string
	// Live marks a broadcast join: a severed live session rejoins the
	// channel as-is instead of seeking.
	Live bool
	// Attempts is how many extra registry round trips are made after a
	// failure; zero means the first failure ends the session.
	Attempts int
	// Player configures each segment's playback.
	Player player.Options
	// WrapBody, when set, wraps each attempt's response body before it
	// reaches the player — link shaping, a first-byte stamp.
	WrapBody func(io.Reader) io.Reader
	// OnRetry, when set, observes each failure that will be retried:
	// edge names the failed edge host, empty when the registry leg
	// failed (no live edge, transport error).
	OnRetry func(edge string, err error)
	// Clock times the backoff between attempts; nil uses the real
	// clock. A simulated clock makes failover schedules deterministic
	// under test.
	Clock vclock.Clock
}

// Run executes the session until clean end, exhausted attempts, or ctx
// cancellation. It returns the merged metrics of every segment (never
// nil), the last edge host contacted, and the final error (nil when
// the stream completed).
func (s *FailoverSession) Run(ctx context.Context) (*player.Metrics, string, error) {
	clock := s.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	agg := &player.Metrics{}
	attempts := s.Attempts + 1
	resumeAt := StartOf(s.Target)
	resuming := false
	var lastEdge string
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		cur := s.Target
		if resuming && !s.Live {
			cur = WithStart(s.Target, resumeAt)
		}
		resp, edge, err := s.Fetcher.Fetch(ctx, cur)
		if edge != "" {
			lastEdge = edge
		}
		if err != nil {
			lastErr = err
			if !Retryable(err) || attempt == attempts || ctx.Err() != nil {
				break
			}
			if s.OnRetry != nil {
				var fe *FetchError
				errors.As(err, &fe)
				s.OnRetry(fe.Edge, err)
			}
			if !vclock.SleepCtx(ctx, clock, FailoverBackoff(0, attempt)) {
				break
			}
			continue
		}

		body := io.Reader(resp.Body)
		if s.WrapBody != nil {
			body = s.WrapBody(body)
		}
		m, err := player.New(s.Player).Play(body)
		resp.Body.Close()
		if m != nil {
			if m.FinalURL == "" && resp.Request != nil && resp.Request.URL != nil {
				m.FinalURL = resp.Request.URL.String()
			}
			if last := m.LastPTS(); last > resumeAt {
				resumeAt = last
			}
			agg.Merge(m)
		}
		if err == nil {
			return agg, lastEdge, nil
		}
		// The stream severed mid-play: the edge died under us. Tell the
		// registry, never go back there, resume elsewhere.
		lastErr = err
		s.Fetcher.Fail(edge)
		if attempt == attempts || ctx.Err() != nil {
			break
		}
		if s.OnRetry != nil {
			s.OnRetry(edge, err)
		}
		resuming = true
		if !vclock.SleepCtx(ctx, clock, FailoverBackoff(0, attempt)) {
			break
		}
	}
	return agg, lastEdge, lastErr
}
