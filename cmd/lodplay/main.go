// Command lodplay is the headless player: it fetches a stream from a file
// or HTTP URL, executes its script commands, and reports render metrics
// (frames, slide flips, annotations, skew, stalls).
//
// Usage:
//
//	lodplay -in published.asf
//	lodplay -url http://localhost:8080/vod/lecture1 -realtime
//	lodplay -url http://localhost:8080/vod/lecture1 -server-status
//	lodplay -url http://registry:9090/vod/lecture1 -failover 3
//
// Both the /v1 and the legacy unversioned URL forms are accepted.
//
// With -server-status the player also fetches the serving node's JSON
// GET /status snapshot after playback and prints it — the client-side
// view of the server's counters (sessions, bytes, cache traffic on an
// edge; see internal/metrics). When the played URL was a cluster
// registry (-failover), the registry's per-node health listing
// (GET /v1/registry/nodes: alive/dead/draining, heartbeat age, load)
// is printed too.
//
// With -failover N (the -url must point at a cluster registry), the
// player opens the stream through the internal/client session SDK and
// survives edge churn: when the edge serving it refuses the connection
// or drops the stream mid-play, the session reports the failure to the
// registry, asks for another edge — excluding the one it escaped — and
// resumes a VOD stream at the last media offset it received, up to N
// times. The same SDK the benchmark's sessions run.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/player"
	"repro/internal/proto"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lodplay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lodplay", flag.ContinueOnError)
	in := fs.String("in", "", "stored container to play")
	rawURL := fs.String("url", "", "HTTP URL to play (e.g. http://host:8080/vod/name)")
	realtime := fs.Bool("realtime", false, "present at PTS on the wall clock")
	jitter := fs.Int("jitter-buffer", 0, "jitter buffer depth in packets")
	drm := fs.Bool("license", false, "hold a DRM playback license")
	verbose := fs.Bool("v", false, "print every slide flip and annotation")
	start := fs.Duration("start", 0, "seek a -url VOD stream to this offset (server-side)")
	serverStatus := fs.Bool("server-status", false, "after playing a -url stream, fetch and print the server's /status snapshot (plus per-node health through a registry)")
	failover := fs.Int("failover", 0, "retry a -url stream through its registry up to N times when the serving edge dies, resuming VOD at the last received offset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*in == "") == (*rawURL == "") {
		return fmt.Errorf("exactly one of -in or -url is required")
	}
	if *serverStatus && *rawURL == "" {
		return fmt.Errorf("-server-status requires -url")
	}
	if *failover < 0 {
		return fmt.Errorf("-failover must be >= 0, got %d", *failover)
	}
	if *failover > 0 && *rawURL == "" {
		return fmt.Errorf("-failover requires -url pointing at a cluster registry")
	}
	if *start > 0 {
		if *rawURL == "" {
			return fmt.Errorf("-start requires -url")
		}
		u, err := url.Parse(*rawURL)
		if err != nil {
			return err
		}
		q := u.Query()
		q.Set(proto.ParamStart, proto.FormatStart(*start))
		u.RawQuery = q.Encode()
		*rawURL = u.String()
	}

	opts := player.Options{
		Realtime:          *realtime,
		JitterBufferDepth: *jitter,
		LicenseDRM:        *drm,
	}

	var m *player.Metrics
	var err error
	if *rawURL != "" && *failover > 0 {
		m, err = playFailover(opts, *rawURL, *failover)
	} else if *rawURL != "" {
		m, err = player.New(opts).PlayURL(context.Background(), *rawURL)
	} else {
		var f *os.File
		f, err = os.Open(*in)
		if err != nil {
			return err
		}
		defer func() {
			_ = f.Close()
		}()
		m, err = player.New(opts).Play(bufio.NewReader(f))
	}
	if err != nil {
		return err
	}

	fmt.Printf("played: %d video frames (%d decodable, %d broken), %d audio blocks\n",
		m.VideoFrames, m.Decodable, m.BrokenFrames, m.AudioBlocks)
	fmt.Printf("scripts: %d slide flips, %d annotations\n", m.SlidesShown, m.Annotations)
	fmt.Printf("bytes: %d, stalls: %d (%v total)\n", m.BytesRead, m.Stalls, m.StallTime)
	if *realtime {
		fmt.Printf("skew: max %v, mean %v\n", m.MaxSkew, m.MeanSkew)
	}
	if *verbose {
		for _, e := range m.Events {
			if e.Kind == player.EventSlideShown || e.Kind == player.EventAnnotation {
				fmt.Printf("  %-10s pts=%-8v %q\n", e.Kind, e.PTS, e.Param)
			}
		}
	}
	if *serverStatus {
		// Ask the node that actually served the stream: through a relay
		// registry the play followed a 307, so the final URL names the
		// edge whose counters the session landed on.
		target := m.FinalURL
		if target == "" {
			target = *rawURL
		}
		if err := printServerStatus(target); err != nil {
			return fmt.Errorf("server status: %w", err)
		}
		// When the -url host is a cluster registry, print its per-node
		// health view too — which edges are alive, dead, or draining,
		// and how stale their heartbeats are. A host that doesn't serve
		// the node listing (a plain server, an edge) is silently skipped.
		if u, err := url.Parse(*rawURL); err == nil {
			printRegistryNodesIfAny(client.New(u.Scheme + "://" + u.Host))
		}
	}
	return nil
}

// playFailover plays a registry URL with churn tolerance through the
// shared session SDK (internal/client): each attempt resolves the
// stream through the registry, dead edges are reported and excluded
// from the next pick, and segments after a mid-stream failure resume at
// the last received media offset — never earlier than any -start the
// user gave. The merged metrics of every segment are returned as one
// session.
func playFailover(opts player.Options, rawURL string, attempts int) (*player.Metrics, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	spec, err := specFromURL(u)
	if err != nil {
		return nil, err
	}
	spec.Failover = attempts
	spec.Player = opts
	spec.OnRetry = func(edge string, err error) {
		if edge == "" {
			fmt.Fprintf(os.Stderr, "lodplay: %v; retrying through registry\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "lodplay: edge %s failed (%v); failing over\n", edge, err)
	}
	cl := client.New(u.Scheme + "://" + u.Host)
	session, err := cl.Open(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	m, err := session.Play()
	if err != nil {
		return m, fmt.Errorf("lodplay: failover exhausted: %w", err)
	}
	return m, nil
}

// specFromURL recognizes a stream URL (versioned or legacy) as a
// session spec: route family, decoded name, and any seek offset or
// bandwidth declaration in the query.
func specFromURL(u *url.URL) (client.Spec, error) {
	kind, name, ok := proto.SplitStreamPath(u.Path)
	if !ok || kind == proto.StreamFetch {
		return client.Spec{}, fmt.Errorf("lodplay: %s is not a vod/live/group stream path", u.Path)
	}
	spec := client.Spec{Kind: kind, Name: name}
	q := u.Query()
	if raw := q.Get(proto.ParamStart); raw != "" {
		at, err := proto.ParseStart(raw)
		if err != nil {
			return client.Spec{}, err
		}
		spec.Start = at
	}
	if raw := q.Get(proto.ParamBandwidth); raw != "" {
		bw, err := proto.ParseBandwidth(raw)
		if err != nil {
			return client.Spec{}, err
		}
		spec.Bandwidth = bw
	}
	return spec, nil
}

// printServerStatus fetches the /status snapshot of the node that served
// streamURL and writes the JSON to stdout.
func printServerStatus(streamURL string) error {
	u, err := url.Parse(streamURL)
	if err != nil {
		return err
	}
	statusURL := u.Scheme + "://" + u.Host + proto.Versioned(proto.PathStatus)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, statusURL, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", statusURL, resp.Status)
	}
	fmt.Printf("server status (%s):\n", statusURL)
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// printRegistryNodesIfAny prints the host's per-node health listing —
// one line per node with its health label, heartbeat age, load score,
// and sessions — when the host serves one; non-registry hosts are
// silently skipped.
func printRegistryNodesIfAny(cl *client.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nodes, err := cl.Nodes(ctx)
	if err != nil {
		return // not a registry
	}
	fmt.Printf("registry nodes (%s):\n", cl.Registry())
	for _, n := range nodes {
		fmt.Printf("  %-12s %-9s heartbeat %.1fs ago  load %.2f  sessions %d  %s\n",
			n.ID, n.Health, n.HeartbeatAgeSec, n.Load, n.Stats.ActiveClients, n.URL)
	}
}
