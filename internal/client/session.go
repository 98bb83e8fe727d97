package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/player"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// failoverBackoff is the base of the bounded exponential backoff between
// a session's attempts (vclock.Backoff).
const failoverBackoff = 50 * time.Millisecond

// ErrStreamChanged ends a stored session whose body a failover could not
// continue from the byte reached: it never splices two bodies.
var ErrStreamChanged = errors.New("client: stream changed under the session")

// Session is one logical stream, opened from a Spec, and its one body:
// read it through Read, or play it with Play. A session is single-use and
// not safe for concurrent use, except that Stats may be read while it runs.
//
// Each attempt asks the base URL for the stream and follows a 307 to the
// edge it names, sending the edges the session escaped in
// proto.ExcludeHeader. An edge that refuses the connection or severs the
// stream is excluded and reported dead to the registry (POST
// /v1/registry/report-failure); an edge answering 5xx is only excluded;
// a registry 503 (no edge live) clears the exclude list, which may be
// stale. Either way the session backs off on the player's clock and
// tries again, within Spec.Failover. A stored body severed after n bytes
// continues from byte n: the same target, asked for with Range and
// If-Range (proto's doc, "Ranges"). A live body severed after its first
// byte ends the session. A viewer leaving (ctx done) is never blamed on
// the node: nothing is reported, nothing retried.
type Session struct {
	ctx     context.Context
	c       *Client
	spec    Spec
	target  string
	exclude []string

	body      io.ReadCloser // the serving node's (stats.Edge) response; nil between attempts
	etag      string        // the first response's ETag, which a resume continues
	delivered int64         // body bytes Read has returned
	err       error         // the session's end, which every later Read returns

	mu    sync.Mutex
	stats Stats
}

// Stats is a session's failover accounting.
type Stats struct {
	// Edge is the host that served the stream — the last one, when the
	// session failed over; the base URL's own host when that is a
	// serving node.
	Edge string
	// Failovers counts serving-node failures the session rode out: the
	// edge refused the connection, answered 5xx, or severed the stream
	// mid-play, and the session went back to the base URL.
	Failovers int
	// Retries counts every extra round trip, failovers plus no-edge (503)
	// and first-leg transport backoffs.
	Retries int
}

// fetchError is one failed attempt, classified for retry: edge is the
// serving host that failed (empty when the first leg did), retry whether
// another attempt may succeed (connection refused, stream severed, no
// edge momentarily live — not a missing asset).
type fetchError struct {
	edge  string
	retry bool
	err   error
}

func (e *fetchError) Error() string {
	if e.edge != "" {
		return fmt.Sprintf("client: edge %s: %v", e.edge, e.err)
	}
	return fmt.Sprintf("client: %v", e.err)
}

func (e *fetchError) Unwrap() error { return e.err }

// Target is the /v1 request path the session resolves, as built from
// the spec.
func (s *Session) Target() string { return s.target }

// Stats reports what the session has measured so far: the serving node
// and its failover counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Play streams the session's body to completion through the scripted
// player, once, and returns its metrics (never nil). Failover happens
// inside Read: the player sees one container, and the outage as
// rebuffering.
func (s *Session) Play() (*player.Metrics, error) {
	defer s.Close()
	body := io.Reader(s)
	if s.spec.WrapBody != nil {
		body = s.spec.WrapBody(body)
	}
	m, err := player.New(s.spec.Player).Play(body)
	if m == nil {
		m = &player.Metrics{}
	}
	return m, err
}

// Fetch opens the stream and returns the session as its raw container
// body (header and packets) for callers that parse packets
// themselves. Failures before the body starts are returned here; reads
// fail over as in Play. An asf.Reader over the body lends each packet
// until the next read; see the asf package documentation for who may
// keep one.
func (s *Session) Fetch() (io.ReadCloser, error) {
	if err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

// Read reads the stream's one body, failing over inside (see Session).
func (s *Session) Read(p []byte) (int, error) {
	for s.err == nil {
		if s.body == nil {
			if s.err = s.connect(); s.err != nil {
				break
			}
		}
		n, err := s.body.Read(p)
		s.delivered += int64(n)
		if err == nil || err == io.EOF {
			return n, err
		}
		s.body.Close()
		s.body = nil
		s.err = s.died(s.stats.Edge, err)
		if s.spec.Kind != Live || s.delivered == 0 {
			s.err = s.retry(s.err)
		}
		if n > 0 {
			return n, s.err
		}
	}
	return 0, s.err
}

// Close ends the session and closes the body being read: every later
// Read fails.
func (s *Session) Close() error {
	if s.body != nil {
		s.body.Close()
	}
	s.body, s.err = nil, http.ErrBodyReadAfterClose
	return nil
}

// connect opens the stream, again after a backoff while retry allows,
// and makes the serving node's response the session's body: past the
// body's first byte, only a 206 continuing from the byte reached.
func (s *Session) connect() error {
	for {
		resp, edge, err := s.open()
		if edge != "" {
			s.mu.Lock()
			s.stats.Edge = edge
			s.mu.Unlock()
		}
		if err == nil {
			if s.delivered == 0 {
				s.etag = resp.Header.Get("Etag")
			} else if resp.StatusCode != http.StatusPartialContent ||
				!strings.HasPrefix(resp.Header.Get("Content-Range"), "bytes "+strconv.FormatInt(s.delivered, 10)+"-") {
				resp.Body.Close()
				return fmt.Errorf("%w: %s answered %s to a resume from byte %d", ErrStreamChanged, edge, resp.Status, s.delivered)
			}
			s.body = resp.Body
			return nil
		}
		if err = s.retry(err); err != nil {
			return err
		}
	}
}

// retry decides whether a failed attempt is made again: the failure is
// retryable, the budget lasts and ctx is live. It then counts the retry,
// tells OnRetry, backs off on the player's clock and returns nil; else
// it returns err.
func (s *Session) retry(err error) error {
	var fe *fetchError
	if !errors.As(err, &fe) || !fe.retry || s.stats.Retries >= s.spec.Failover || s.ctx.Err() != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Retries++
	if fe.edge != "" {
		s.stats.Failovers++
	}
	attempt := s.stats.Retries
	s.mu.Unlock()
	if s.spec.OnRetry != nil {
		s.spec.OnRetry(fe.edge, err)
	}
	clock := s.spec.Player.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	if !clock.SleepUntil(s.ctx, clock.Now().Add(vclock.Backoff(failoverBackoff, attempt))) {
		return err
	}
	return nil
}

// request is an attempt's GET of url; past the body's first byte it asks
// for the rest of the same body.
func (s *Session) request(url string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, url, nil)
	if err == nil && s.delivered > 0 {
		req.Header.Set("Range", proto.FormatRange(s.delivered))
		req.Header.Set("If-Range", s.etag)
	}
	return req, err
}

// open makes one attempt's requests: GET the target from the base URL
// without following redirects, then GET the 307's Location from the edge
// it names. It returns the serving node's response and host.
func (s *Session) open() (*http.Response, string, error) {
	req, err := s.request(s.c.base + s.target)
	if err != nil {
		return nil, "", err
	}
	if len(s.exclude) > 0 {
		req.Header.Set(proto.ExcludeHeader, proto.JoinExclude(s.exclude))
	}
	resp, err := s.c.noFollow.Do(req)
	if err != nil {
		// The first leg itself failed; transient networks recover, so let
		// the bounded loop decide when to give up.
		return nil, "", &fetchError{retry: true, err: err}
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		return resp, s.c.host, nil // the base URL is a serving node
	case http.StatusTemporaryRedirect:
		loc := resp.Header.Get("Location")
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		u, err := url.Parse(loc)
		if err != nil || u.Host == "" {
			// Not an edge to blame: nothing is excluded or reported.
			return nil, "", &fetchError{err: fmt.Errorf("bad redirect %q", loc)}
		}
		return s.openEdge(u)
	case http.StatusServiceUnavailable:
		// No live edge. The exclude list may be stale (an excluded edge
		// could have restarted); drop it so the next attempt can use
		// whatever the registry has.
		s.exclude = nil
		return nil, "", &fetchError{retry: true, err: proto.ReadError(resp)}
	default:
		return nil, "", &fetchError{err: proto.ReadError(resp)}
	}
}

// openEdge performs the redirected leg against the edge u names.
func (s *Session) openEdge(u *url.URL) (*http.Response, string, error) {
	req, err := s.request(u.String())
	if err != nil {
		return nil, u.Host, &fetchError{edge: u.Host, err: err}
	}
	resp, err := s.c.noFollow.Do(req)
	if err != nil {
		return nil, u.Host, s.died(u.Host, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent:
		return resp, u.Host, nil
	case resp.StatusCode >= 500:
		// Refused but reachable (over capacity, origin pull failed):
		// exclude it for this session without declaring it dead.
		s.excludeHost(u.Host)
		return nil, u.Host, &fetchError{edge: u.Host, retry: true, err: proto.ReadError(resp)}
	default:
		return nil, u.Host, &fetchError{edge: u.Host, err: proto.ReadError(resp)}
	}
}

// died classifies a transport or stream failure on the serving node
// host. Unless the viewer left (ctx done — the node is blameless), the
// node is excluded from the session's next picks and reported dead to
// the registry so other clients stop being routed there, and the
// failure is retryable.
func (s *Session) died(host string, err error) error {
	if s.ctx.Err() != nil {
		return err
	}
	if host != s.c.host { // a directly played node has no registry to tell
		s.excludeHost(host)
		s.report(host)
	}
	return &fetchError{edge: host, retry: true, err: err}
}

func (s *Session) excludeHost(host string) {
	for _, h := range s.exclude {
		if h == host {
			return
		}
	}
	s.exclude = append(s.exclude, host)
}

// report tells the registry the edge at host failed (best effort), so it
// marks the node dead at once instead of waiting out its TTL.
func (s *Session) report(host string) {
	body, _ := json.Marshal(proto.FailureReport{Node: host})
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost,
		s.c.base+proto.Versioned(proto.PathReportFailure), bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := s.c.http.Do(req); err == nil {
		resp.Body.Close()
	}
}
