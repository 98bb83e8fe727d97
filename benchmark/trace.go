package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"
)

// Span names. A span is one crossing of a layer boundary, recorded by
// the benchmark's own wrappers around each role's Handler() and each
// role's outbound RoundTripper; the program under test is not touched.
const (
	spanSession      = "client.session"    // one viewer session, open → last byte
	spanResolve      = "client.resolve"    // SDK → registry, request → response headers
	spanEdgeOpen     = "client.edge_open"  // SDK → edge, request → response headers
	spanRedirect     = "registry.redirect" // registry handler, stream routes
	spanHeartbeat    = "registry.heartbeat"
	spanRegistryMisc = "registry.other"
	spanEdgeVOD      = "edge.vod" // edge handler; FirstWrite splits ttfb from the write loop
	spanEdgeLive     = "edge.live"
	spanEdgeGroup    = "edge.group"
	spanEdgeMisc     = "edge.other"
	spanPull         = "edge.pull" // edge → origin, request → body EOF
	spanEdgeControl  = "edge.control"
	spanOriginFetch  = "origin.fetch"
	spanOriginLive   = "origin.live"
	spanOriginMisc   = "origin.other"
)

// Request headers the client transport adds so server-side spans can
// name their session and parent.
const (
	headerSession = "X-Bench-Session"
	headerParent  = "X-Bench-Parent"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. A layer's self time is its span minus the part its
// children cover.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Session uint64 `json:"session,omitempty"`
	Name    string `json:"name"`
	Role    string `json:"role"`
	Key     string `json:"key,omitempty"` // stream name, when the route has one
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	// FirstWrite is when a handler first wrote body bytes (0: never);
	// for client.session, when the first stream byte arrived.
	FirstWrite int64 `json:"firstWrite,omitempty"`
	// Blocked is, for client.session, the time spent waiting inside
	// body reads — what is left of the span is client-side work.
	Blocked int64 `json:"blocked,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	Packets int64 `json:"packets,omitempty"`
	// Hit is, for edge stream handlers, whether the content was already
	// resident when the request arrived.
	Hit bool `json:"hit,omitempty"`
}

// recorder keeps every span of a traced pass in memory; nothing is
// written until the pass is over.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span

	// pending maps edge-role/asset to the handler span that is waiting
	// on a pull, so the pull span can name its parent even though the
	// edge's own outbound request carries no header.
	pending sync.Map
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64    { return int64(time.Since(r.epoch)) }
func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// sessionRef travels in a session's context so the client transport
// can stamp its requests.
type sessionRef struct{ session, span uint64 }

type sessionKey struct{}

func withSession(ctx context.Context, ref sessionRef) context.Context {
	return context.WithValue(ctx, sessionKey{}, ref)
}

// tracedWriter notes the first body write and counts bytes. It forwards
// Flush, which the streaming handlers call after every packet.
type tracedWriter struct {
	http.ResponseWriter
	rec   *recorder
	first int64
	bytes int64
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	if w.first == 0 {
		w.first = w.rec.now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *tracedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// classifier names the span of one request to a role, with the stream
// name and residency when the route has them.
type classifier func(r *http.Request) (name, key string, hit bool)

// handler wraps one role's Handler() with a span per request.
func (r *recorder) handler(role string, classify classifier, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name, key, hit := classify(req)
		s := span{ID: r.newID(), Name: name, Role: role, Key: key, Hit: hit}
		s.Session, _ = strconv.ParseUint(req.Header.Get(headerSession), 10, 64)
		s.Parent, _ = strconv.ParseUint(req.Header.Get(headerParent), 10, 64)
		waiting := ""
		if !hit && key != "" && (name == spanEdgeVOD || name == spanEdgeLive) {
			waiting = role + "/" + key
			r.pending.Store(waiting, s.ID)
		}
		tw := &tracedWriter{ResponseWriter: w, rec: r}
		s.Start = r.now()
		h.ServeHTTP(tw, req)
		s.End = r.now()
		s.FirstWrite, s.Bytes = tw.first, tw.bytes
		if waiting != "" {
			r.pending.CompareAndDelete(waiting, s.ID)
		}
		r.add(s)
	})
}

// streamRoute splits a request path into its stream kind and name.
func streamRoute(req *http.Request) (proto.StreamKind, string, bool) {
	return proto.SplitStreamPath(proto.Unversioned(req.URL.Path))
}

func classifyRegistry(req *http.Request) (string, string, bool) {
	if _, name, ok := streamRoute(req); ok {
		return spanRedirect, name, false
	}
	if proto.Unversioned(req.URL.Path) == proto.PathHeartbeat {
		return spanHeartbeat, "", false
	}
	return spanRegistryMisc, "", false
}

func classifyOrigin(req *http.Request) (string, string, bool) {
	switch kind, name, _ := streamRoute(req); kind {
	case proto.StreamFetch:
		return spanOriginFetch, name, false
	case proto.StreamLive:
		return spanOriginLive, name, false
	}
	return spanOriginMisc, "", false
}

// tracedTransport wraps one role's outbound RoundTripper.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
	role string
	// name classifies an outbound request; body reports whether the
	// span should run to the end of the response body, not just to the
	// response headers.
	name func(req *http.Request) (name, key string, body bool)
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, key, body := t.name(req)
	s := span{ID: t.rec.newID(), Name: name, Role: t.role, Key: key}
	if ref, ok := req.Context().Value(sessionKey{}).(sessionRef); ok {
		s.Session, s.Parent = ref.session, ref.span
	} else if p, ok := t.rec.pending.Load(t.role + "/" + key); ok {
		s.Parent = p.(uint64)
	}
	// A RoundTripper must not modify the caller's request.
	out := req.Clone(req.Context())
	if s.Session != 0 {
		out.Header.Set(headerSession, strconv.FormatUint(s.Session, 10))
	}
	out.Header.Set(headerParent, strconv.FormatUint(s.ID, 10))
	s.Start = t.rec.now()
	resp, err := t.base.RoundTrip(out)
	s.End = t.rec.now()
	if err != nil || !body {
		t.rec.add(s)
		return resp, err
	}
	s.FirstWrite = s.End
	resp.Body = &tracedBody{ReadCloser: resp.Body, rec: t.rec, span: s}
	return resp, nil
}

// tracedBody ends its span when the body is drained or closed.
type tracedBody struct {
	io.ReadCloser
	rec  *recorder
	span span
	once sync.Once
}

func (b *tracedBody) finish() {
	b.once.Do(func() {
		b.span.End = b.rec.now()
		b.rec.add(b.span)
	})
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.span.Bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// clientTransport traces the SDK's two legs: the registry leg and the
// redirected edge leg, each request → response headers.
func (r *recorder) clientTransport(base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{base: base, rec: r, role: "client",
		name: func(req *http.Request) (string, string, bool) {
			_, key, _ := streamRoute(req)
			if req.URL.Host == registryHost {
				return spanResolve, key, false
			}
			return spanEdgeOpen, key, false
		}}
}

// edgeTransport traces an edge's outbound requests: origin pulls run to
// body EOF, everything else (heartbeats, catalog syncs, group listings)
// to the response headers.
func (r *recorder) edgeTransport(role string, base http.RoundTripper) http.RoundTripper {
	return &tracedTransport{base: base, rec: r, role: role,
		name: func(req *http.Request) (string, string, bool) {
			if kind, key, ok := streamRoute(req); ok && req.URL.Host == originHost {
				// A live pull never ends; its span closes with the relay.
				return spanPull, key, kind == proto.StreamFetch
			}
			return spanEdgeControl, "", false
		}}
}

// writeSpans dumps spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
