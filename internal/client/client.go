// Package client is the Lecture-on-Demand session SDK: the one code path
// that opens a stream. Every consumer — cmd/lodplay, examples, the
// benchmark's sessions, integration tests, the next workload someone
// invents — goes through it.
//
// A Client is configured once per base URL and is safe for concurrent
// use; each Open returns a single-use Session:
//
//	cl := client.New("http://registry:9090")
//	sess, err := cl.Open(ctx, client.Spec{
//		Kind:     client.VOD,
//		Name:     "lecture 1",
//		Start:    30 * time.Second,
//		Failover: 3,
//	})
//	m, err := sess.Play()          // scripted playback, failover inside
//	st := sess.Stats()             // node served, failovers, retries
//
// The base URL is usually a cluster registry: the session follows its
// 307 by hand, so it always knows which edge serves — the name a failure
// report and the exclude list need. A 200 on that first leg means the
// base URL is itself a serving node (a lone lodserver, an origin, an
// edge), and the session is served there. A Session is the stream's one
// body; failover lives in its Read (see Session). Paths, query parameters
// and headers come from internal/proto, always in the /v1 form, with
// names percent-encoded by construction ("week 1/intro" just works).
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/player"
	"repro/internal/proto"
)

// Re-exported stream kinds, so callers spell client.VOD rather than
// importing proto alongside the SDK. (proto.StreamFetch is the relay
// tier's mirror path, not a viewer stream, and has no alias here.)
const (
	VOD   = proto.StreamVOD
	Live  = proto.StreamLive
	Group = proto.StreamGroup
)

// Client opens sessions through one base URL. It carries only
// configuration and is safe for concurrent use; per-stream state lives
// on the Session.
type Client struct {
	base string
	host string // base's host: a serving node when it answers 200 itself
	http *http.Client
	// noFollow is http's transport with redirects returned, not followed:
	// the session follows the registry's 307 itself.
	noFollow *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient supplies the transport for registry and edge requests
// (an in-process netsim.MemNet client, say). Nil keeps
// proto.DefaultClient, which has dial and response-header timeouts.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) {
		if h != nil {
			c.http = h
		}
	}
}

// New creates a client opening streams through baseURL
// (scheme://host, no trailing slash needed): a cluster registry, or a
// serving node played directly.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimSuffix(baseURL, "/"), http: proto.DefaultClient}
	if u, err := url.Parse(c.base); err == nil {
		c.host = u.Host
	}
	for _, o := range opts {
		o(c)
	}
	c.noFollow = &http.Client{
		Transport: c.http.Transport,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	return c
}

// Registry returns the base URL the client opens streams through.
func (c *Client) Registry() string { return c.base }

// Spec names one stream to open. Zero values mean "not set": a VOD
// spec with Start 0 plays from the top, a Group spec with Bandwidth 0
// receives the richest variant.
type Spec struct {
	// Kind selects the route family: VOD, Live, or Group.
	Kind proto.StreamKind
	// Name is the raw asset/channel/group name; the SDK percent-encodes
	// it into the path.
	Name string
	// Start seeks a stored stream (VOD or Group) to a presentation
	// offset: the body starts at the last seek point at or before it.
	Start time.Duration
	// Bandwidth declares the client's link bandwidth in bits/s on a
	// Group request; the server streams the richest variant that fits.
	Bandwidth int64
	// Failover is how many extra round trips the session makes after an
	// edge refuses its connection, answers 5xx, or severs the stream
	// mid-play; zero means the first failure ends the session.
	Failover int

	// Player configures scripted playback (Session.Play).
	Player player.Options
	// WrapBody, when set, wraps the session's one body before it reaches
	// the player — link shaping, a first-byte stamp.
	WrapBody func(r io.Reader) io.Reader
	// OnRetry, when set, observes each failure that will be retried:
	// edge names the failed edge host, empty when the first leg failed.
	// The session counts failovers and retries itself (Stats) whether or
	// not OnRetry is set.
	OnRetry func(edge string, err error)
}

// Target renders the spec as its /v1 request path plus query — the form
// the session sends and the registry redirects.
func (s Spec) Target() string {
	path := proto.StreamPath(s.Kind, s.Name)
	q := url.Values{}
	if s.Start > 0 {
		q.Set(proto.ParamStart, proto.FormatStart(s.Start))
	}
	if s.Bandwidth > 0 {
		q.Set(proto.ParamBandwidth, strconv.FormatInt(s.Bandwidth, 10))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return proto.Versioned(path)
}

// validate reports the first structural problem with the spec.
func (s Spec) validate() error {
	switch s.Kind {
	case VOD, Live, Group:
	case "":
		return fmt.Errorf("client: spec has no kind")
	default:
		return fmt.Errorf("client: kind %q is not openable (want vod, live, or group)", s.Kind)
	}
	if s.Name == "" {
		return fmt.Errorf("client: spec has no name")
	}
	if s.Start < 0 {
		return fmt.Errorf("client: negative start %v", s.Start)
	}
	if s.Kind == Live && s.Start != 0 {
		return fmt.Errorf("client: live streams have no seek offset (start %v)", s.Start)
	}
	if s.Bandwidth < 0 {
		return fmt.Errorf("client: negative bandwidth %d", s.Bandwidth)
	}
	if s.Bandwidth > 0 && s.Kind != Group {
		return fmt.Errorf("client: bandwidth is a group parameter, not %s", s.Kind)
	}
	if s.Failover < 0 {
		return fmt.Errorf("client: negative failover budget %d", s.Failover)
	}
	return nil
}

// Open validates the spec and returns a Session bound to ctx. Opening
// performs no I/O — the first round trip happens on Play, Fetch or Read.
// Sessions are single-use and not safe for concurrent use.
func (c *Client) Open(ctx context.Context, spec Spec) (*Session, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &Session{ctx: ctx, c: c, spec: spec, target: spec.Target()}, nil
}

// Nodes fetches the registry's per-node health listing
// (GET /v1/registry/nodes): identity, load, and health
// (alive/dead/draining) with heartbeat age for every registered node.
func (c *Client) Nodes(ctx context.Context) ([]proto.NodeStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+proto.Versioned(proto.PathNodes), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, proto.ReadError(resp) // closes the body
	}
	defer resp.Body.Close()
	var nodes []proto.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		return nil, fmt.Errorf("client: decoding node listing: %w", err)
	}
	return nodes, nil
}
