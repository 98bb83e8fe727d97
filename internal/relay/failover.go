package relay

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/proto"
)

// StreamFetcher is the client half of cluster failover: it resolves a
// stream path through the registry by following the 307 manually, so it
// always knows which edge host is serving — the piece an automatic
// redirect-following client loses, and exactly what a failure report
// needs to name. Across attempts it accumulates an exclude list (sent
// as the proto.ExcludeHeader) so the registry never bounces it back to
// a node it just escaped, and it reports mid-stream deaths back to the
// registry so the next client is spared the corpse.
//
// A fetcher serves one client session at a time; it is not safe for
// concurrent use. internal/client sessions run their retry loops on
// top of it.
type StreamFetcher struct {
	// Registry is the registry's base URL, without a trailing slash.
	Registry string
	// Client supplies the transport for registry and edge requests; nil
	// uses http.DefaultClient. Its redirect policy is ignored — the
	// fetcher follows the registry's 307 itself.
	Client *http.Client

	noFollow *http.Client
	exclude  []string
}

// NewStreamFetcher creates a fetcher resolving streams through the
// registry at base. A nil client uses http.DefaultClient's transport.
func NewStreamFetcher(base string, client *http.Client) *StreamFetcher {
	if client == nil {
		client = http.DefaultClient
	}
	return &StreamFetcher{
		Registry: strings.TrimSuffix(base, "/"),
		Client:   client,
		noFollow: &http.Client{
			Transport: client.Transport,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

// FetchError is one failed fetch attempt, classified for the caller's
// retry loop.
type FetchError struct {
	// Edge is the edge host that failed; empty when the registry leg
	// failed instead.
	Edge string
	// Retryable reports whether another attempt through the registry
	// can reasonably succeed (connection refused, stream severed, no
	// edge momentarily live) as opposed to a deterministic failure
	// (missing asset, malformed request).
	Retryable bool
	Err       error
}

// Error implements error.
func (e *FetchError) Error() string {
	if e.Edge != "" {
		return fmt.Sprintf("relay: fetch via edge %s: %v", e.Edge, e.Err)
	}
	return fmt.Sprintf("relay: fetch via registry: %v", e.Err)
}

// Unwrap exposes the underlying cause.
func (e *FetchError) Unwrap() error { return e.Err }

// Retryable reports whether err is a fetch failure another registry
// round trip may cure.
func Retryable(err error) bool {
	var fe *FetchError
	return errors.As(err, &fe) && fe.Retryable
}

// Fetch resolves target (a path plus optional query, e.g.
// /vod/lec-1?start=2s, in either the /v1 or the legacy form) through
// the registry and returns the serving
// edge's 200 response, with the edge host it landed on. The caller owns
// the response body. Failures return a *FetchError; retryable ones have
// already updated the fetcher's exclude list and, for dead edges, the
// registry — call Fetch again after backing off.
func (f *StreamFetcher) Fetch(ctx context.Context, target string) (*http.Response, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.Registry+target, nil)
	if err != nil {
		return nil, "", &FetchError{Err: err}
	}
	if len(f.exclude) > 0 {
		req.Header.Set(proto.ExcludeHeader, proto.JoinExclude(f.exclude))
	}
	resp, err := f.noFollow.Do(req)
	if err != nil {
		// The registry leg itself failed; transient networks recover, so
		// let the bounded retry loop decide when to give up.
		return nil, "", &FetchError{Retryable: true, Err: err}
	}
	switch resp.StatusCode {
	case http.StatusTemporaryRedirect:
		loc := resp.Header.Get("Location")
		drain(resp)
		return f.fetchEdge(ctx, loc)
	case http.StatusServiceUnavailable:
		msg := readErr(resp)
		// No live edge. If we were excluding nodes, our knowledge may be
		// stale (an excluded edge could have restarted); drop it so the
		// next attempt can use whatever the registry has.
		f.exclude = nil
		return nil, "", &FetchError{Retryable: true, Err: fmt.Errorf("no edge live: %s", msg)}
	default:
		msg := readErr(resp)
		return nil, "", &FetchError{Err: fmt.Errorf("registry status %s: %s", resp.Status, msg)}
	}
}

// fetchEdge performs the redirected leg against one edge.
func (f *StreamFetcher) fetchEdge(ctx context.Context, loc string) (*http.Response, string, error) {
	u, err := url.Parse(loc)
	if err != nil {
		return nil, "", &FetchError{Err: fmt.Errorf("bad redirect %q: %w", loc, err)}
	}
	host := u.Host
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, loc, nil)
	if err != nil {
		return nil, host, &FetchError{Edge: host, Err: err}
	}
	resp, err := f.noFollow.Do(req)
	if err != nil {
		// The edge refused the connection: it is dead or unreachable.
		// Tell the registry so it stops redirecting everyone else there,
		// and never ask for this host again ourselves.
		f.Fail(host)
		return nil, host, &FetchError{Edge: host, Retryable: true, Err: err}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return resp, host, nil
	case resp.StatusCode >= 500:
		// Refused but reachable (draining, over capacity, origin pull
		// failed): exclude it for this session without declaring it dead.
		msg := readErr(resp)
		f.Exclude(host)
		return nil, host, &FetchError{Edge: host, Retryable: true, Err: fmt.Errorf("edge status %s: %s", resp.Status, msg)}
	default:
		msg := readErr(resp)
		return nil, host, &FetchError{Edge: host, Err: fmt.Errorf("edge status %s: %s", resp.Status, msg)}
	}
}

// Fail records that an edge died serving this session: it is excluded
// from future picks and reported to the registry (best effort) so other
// clients stop being routed there. Callers invoke it when a stream they
// were playing severs mid-session; Fetch calls it itself for connection
// failures.
func (f *StreamFetcher) Fail(host string) {
	f.Exclude(host)
	_ = ReportFailure(f.Client, f.Registry, host)
}

// Exclude adds a host to the session's exclude list without reporting
// it dead (used for refusals that are load, not death).
func (f *StreamFetcher) Exclude(host string) {
	for _, h := range f.exclude {
		if h == host {
			return
		}
	}
	f.exclude = append(f.exclude, host)
}

// Excluded returns the hosts this session will not be redirected to.
func (f *StreamFetcher) Excluded() []string { return append([]string(nil), f.exclude...) }

// WithStart returns target with its start query parameter set to at —
// the resume form of a stream path, seeking the server to the last
// media offset a failed-over client had received. Any prior start (a
// seek workload's original offset) is overridden: resuming clients
// seed their resume offset from StartOf(target), so at is never
// earlier than the original seek point.
func WithStart(target string, at time.Duration) string {
	path, query, _ := strings.Cut(target, "?")
	vals, err := url.ParseQuery(query)
	if err != nil {
		vals = url.Values{}
	}
	vals.Set(proto.ParamStart, proto.FormatStart(at))
	return path + "?" + vals.Encode()
}

// StartOf returns the start offset already present in target's query
// (a seek workload's seeded offset, or lodplay's -start), zero when
// absent or malformed. A failing-over client seeds its resume offset
// with it so a stream severed before any media arrived resumes at the
// original seek point instead of rewinding to 0:00.
func StartOf(target string) time.Duration {
	_, query, _ := strings.Cut(target, "?")
	vals, err := url.ParseQuery(query)
	if err != nil {
		return 0
	}
	at, err := proto.ParseStart(vals.Get(proto.ParamStart))
	if err != nil {
		return 0
	}
	return at
}

// FailoverBackoff returns the delay before retry attempt n (1-based):
// bounded exponential, base·2^(n-1), capped at 2s so a failing-over
// client rejoins within human reaction time rather than minutes. A
// base <= 0 takes the 50ms default — what client sessions use.
func FailoverBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(attempt-1)
	if max := 2 * time.Second; d > max || d <= 0 {
		return max
	}
	return d
}

// drain discards and closes a response body so its connection can be
// reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// readErr returns a short error body and closes the response.
func readErr(resp *http.Response) string {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	return strings.TrimSpace(string(b))
}
