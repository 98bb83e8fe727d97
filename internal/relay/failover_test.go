package relay

// The relay tier's half of client failover, driven through the one
// client stack (internal/client; test files may import it — the
// layering rule constrains relay's non-test files only). The client's
// own tests pin its failover; these pin what the registry and the
// edges must do for a failed-over session to land well.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/streaming"
)

// failoverCluster is a registry over two edges mirroring one origin
// asset, with the edge the ring prefers for the asset already a corpse
// (its listener closed) that the registry has not heard about.
type failoverCluster struct {
	g        *Registry
	regURL   string
	corpse   string // host of the dead preferred edge
	live     *httptest.Server
	excludes *queryLog // exclude headers the registry's redirects saw
	liveReqs *queryLog // queries of the stream requests the live edge saw
	ranges   *queryLog // Range headers of the stream requests the live edge saw
	full     int       // packets in the whole stored stream
}

type queryLog struct {
	mu  sync.Mutex
	got []string
}

func (l *queryLog) wrap(h http.Handler, field func(*http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, _, ok := proto.SplitStreamPath(r.URL.Path); ok {
			l.mu.Lock()
			l.got = append(l.got, field(r))
			l.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

func (l *queryLog) seen() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.got...)
}

func newFailoverCluster(t *testing.T) *failoverCluster {
	t.Helper()
	_, originTS, _ := newOriginWithAsset(t, "lec")
	c := &failoverCluster{g: NewRegistry(nil), excludes: &queryLog{}, liveReqs: &queryLog{}, ranges: &queryLog{}}
	reg := httptest.NewServer(c.excludes.wrap(c.g.Handler(),
		func(r *http.Request) string { return r.Header.Get(proto.ExcludeHeader) }))
	t.Cleanup(reg.Close)
	c.regURL = reg.URL

	edges := make([]*httptest.Server, 2)
	for i := range edges {
		srv := streaming.NewServer(nil)
		srv.Pacing = false
		edge := c.liveReqs.wrap(NewEdge(originTS.URL, srv).Handler(),
			func(r *http.Request) string { return r.URL.RawQuery })
		edges[i] = httptest.NewServer(c.ranges.wrap(edge,
			func(r *http.Request) string { return r.Header.Get("Range") }))
		t.Cleanup(edges[i].Close)
	}
	mustRegister(t, c.g,
		NodeInfo{ID: "edge-a", URL: edges[0].URL},
		NodeInfo{ID: "edge-b", URL: edges[1].URL})
	preferred, err := c.g.PickFor(proto.StreamPath(proto.StreamVOD, "lec"))
	if err != nil {
		t.Fatal(err)
	}
	dead, live := edges[0], edges[1]
	if preferred.ID == "edge-b" {
		dead, live = live, dead
	}
	c.corpse = strings.TrimPrefix(dead.URL, "http://")
	c.live = live
	dead.Close() // connection refused from now on

	_, pkts := readStream(t, originTS.URL+"/v1/vod/lec")
	c.full = len(pkts)
	return c
}

// fetch opens spec through the registry and counts the packets of the
// body the serving edge returned.
func (c *failoverCluster) fetch(t *testing.T, spec client.Spec) (client.Stats, int) {
	t.Helper()
	sess, err := client.New(c.regURL).Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := sess.Fetch()
	if err != nil {
		t.Fatalf("failover never succeeded: %v", err)
	}
	defer body.Close()
	r := asf.NewReader(body)
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	return sess.Stats(), n
}

// TestStreamFetcherFailsOverToLiveEdge (named for the relay-side fetcher
// internal/client replaced): a stream whose preferred edge is a corpse
// is served whole by the live edge, the registry's second redirect
// excluded exactly the corpse, and the report marks it dead for
// everyone.
func TestStreamFetcherFailsOverToLiveEdge(t *testing.T) {
	c := newFailoverCluster(t)
	st, n := c.fetch(t, client.Spec{Kind: client.VOD, Name: "lec", Failover: 3})
	if want := strings.TrimPrefix(c.live.URL, "http://"); st.Edge != want || st.Failovers != 1 {
		t.Fatalf("stats = %+v, want served by the live edge %s after one failover", st, want)
	}
	if n != c.full {
		t.Fatalf("live edge served %d packets, the stream has %d", n, c.full)
	}
	if got := c.excludes.seen(); len(got) != 2 || got[0] != "" || got[1] != c.corpse {
		t.Fatalf("registry redirects saw excludes %q, want [\"\" %q]", got, c.corpse)
	}
	for _, n := range c.g.Nodes() {
		if n.URL == "http://"+c.corpse && !n.Dead {
			t.Fatal("dead edge not reported to the registry")
		}
	}
}

// TestStartOf: a seek survives a failover before any byte arrived —
// the live edge is asked for the spec's own start, not 0:00, and no
// byte range, and serves from the seek point; an unseeked spec carries
// no start at all.
func TestStartOf(t *testing.T) {
	for _, start := range []time.Duration{0, 5 * time.Second, 5500 * time.Millisecond} {
		c := newFailoverCluster(t)
		st, n := c.fetch(t, client.Spec{Kind: client.VOD, Name: "lec", Start: start, Failover: 3})
		if st.Failovers != 1 {
			t.Fatalf("start %v: stats = %+v, want one failover off the corpse", start, st)
		}
		reqs := c.liveReqs.seen()
		if len(reqs) != 1 {
			t.Fatalf("start %v: live edge saw %q, want one stream request", start, reqs)
		}
		if got := c.ranges.seen(); got[0] != "" {
			t.Fatalf("start %v: a failover before any byte asked for Range %q", start, got[0])
		}
		if start == 0 {
			if reqs[0] != "" || n != c.full {
				t.Fatalf("unseeked failover asked %q and got %d/%d packets", reqs[0], n, c.full)
			}
			continue
		}
		raw, ok := strings.CutPrefix(reqs[0], proto.ParamStart+"=")
		if !ok {
			t.Fatalf("start %v: live edge asked %q, want the seek point", start, reqs[0])
		}
		if at, err := proto.ParseStart(raw); err != nil || at != start {
			t.Fatalf("start %v: failover asked start=%s (%v, %v)", start, raw, at, err)
		}
		if n == 0 || n >= c.full {
			t.Fatalf("start %v: live edge served %d of %d packets, want the seeked tail", start, n, c.full)
		}
	}
}

// TestWithStart: a seeked target as the client renders it — its start,
// a group's bandwidth kept — crosses the registry's redirect verbatim,
// and the ring keys on the path alone, so a seek never moves the stream
// to another (cold) edge.
func TestWithStart(t *testing.T) {
	g := NewRegistry(nil)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	for _, id := range []string{"e1", "e2", "e3", "e4"} {
		mustRegister(t, g, NodeInfo{ID: id, URL: "http://" + id + ":8081"})
	}
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	redirect := func(target string) (host, rest string) {
		t.Helper()
		resp, err := noFollow.Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("GET %s status = %d, want 307", target, resp.StatusCode)
		}
		loc := strings.TrimPrefix(resp.Header.Get("Location"), "http://")
		i := strings.IndexByte(loc, '/')
		return loc[:i], loc[i:]
	}
	for _, tc := range []struct {
		spec client.Spec
		want string
	}{
		{client.Spec{Kind: client.VOD, Name: "lec", Start: 1500 * time.Millisecond}, "/v1/vod/lec?start=1500ms"},
		{client.Spec{Kind: client.VOD, Name: "lec", Start: 250 * time.Millisecond}, "/v1/vod/lec?start=250ms"},
		{client.Spec{Kind: client.Group, Name: "g", Bandwidth: 768000, Start: 1500 * time.Millisecond},
			"/v1/group/g?bw=768000&start=1500ms"},
	} {
		if got := tc.spec.Target(); got != tc.want {
			t.Fatalf("%+v renders %q, want %q", tc.spec, got, tc.want)
		}
		host, rest := redirect(tc.want)
		if rest != tc.want {
			t.Errorf("redirect of %q names %q: the target was altered", tc.want, rest)
		}
		plain := tc.spec
		plain.Start = 0
		if home, _ := redirect(plain.Target()); home != host {
			t.Errorf("%q went to %s, its unseeked stream to %s", tc.want, host, home)
		}
	}
}
