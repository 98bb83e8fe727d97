// Command lodplay is the headless player: it plays a stored container
// file, or a stream from a lecture-on-demand server, executes its script
// commands, and reports render metrics (frames, slide flips, annotations,
// skew, stalls).
//
// Usage:
//
//	lodplay -in published.asf
//	lodplay -url http://localhost:8080/v1/vod/lecture1 -realtime
//	lodplay -url http://localhost:8080/v1/vod/lecture1 -server-status
//	lodplay -url http://registry:9090/v1/vod/lecture1 -failover 3
//
// The -url names a stream by its /v1 route; lodplay reads the stream's
// kind, name, seek offset and bandwidth from it, and the SDK requests
// that route.
//
// Every -url is played through the internal/client session SDK — the
// same code the benchmark's sessions run. The URL's host may be a
// cluster registry (the session follows its 307 to an edge) or a serving
// node played directly (a lone lodserver, an origin, an edge).
//
// With -server-status the player also fetches the JSON GET /v1/status
// snapshot of the node that served the stream and prints it — the
// client-side view of the server's counters (sessions, bytes, cache
// traffic on an edge; see internal/metrics). When the -url host is a
// cluster registry, its per-node health listing (GET /v1/registry/nodes:
// alive/dead/draining, heartbeat age, load) is printed too.
//
// With -failover N the session survives churn: when the node serving it
// refuses the connection or drops the stream mid-play, it goes back to
// the -url host — through a registry, reporting the failed edge and
// excluding it from the next pick — and continues a stored stream from
// the byte it had reached, up to N times.
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
	rawURL := fs.String("url", "", "HTTP URL to play (e.g. http://host:8080/v1/vod/name)")
	realtime := fs.Bool("realtime", false, "present at PTS on the wall clock, counted from the first packet")
	jitter := fs.Int("jitter-buffer", 0, "jitter buffer depth in packets")
	drm := fs.Bool("license", false, "hold a DRM playback license")
	verbose := fs.Bool("v", false, "print every slide flip and annotation")
	start := fs.Duration("start", 0, "seek a -url VOD stream to this offset (server-side)")
	serverStatus := fs.Bool("server-status", false, "after playing a -url stream, fetch and print the serving node's status snapshot (plus per-node health through a registry)")
	failover := fs.Int("failover", 0, "retry a -url stream up to N times when the serving node dies (through the registry, when the -url host is one), continuing a stored stream from the byte reached")
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
		return fmt.Errorf("-failover requires -url")
	}
	if *start > 0 && *rawURL == "" {
		return fmt.Errorf("-start requires -url")
	}

	// A realtime play starts its schedule at the first packet, so a
	// seeked tail or a live join presents at once instead of first
	// sleeping through the presentation time it skipped.
	opts := player.Options{
		Realtime:            *realtime,
		AnchorToFirstPacket: *realtime,
		JitterBufferDepth:   *jitter,
		LicenseDRM:          *drm,
	}

	var m *player.Metrics
	var served string // scheme://host of the node that served a -url stream
	if *rawURL != "" {
		var err error
		if m, served, err = playURL(opts, *rawURL, *start, *failover); err != nil {
			return err
		}
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer func() {
			_ = f.Close()
		}()
		if m, err = player.New(opts).Play(bufio.NewReader(f)); err != nil {
			return err
		}
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
		if err := printServerStatus(served); err != nil {
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

// playURL plays a stream URL through the session SDK (internal/client)
// and returns its metrics and the scheme://host of the node that served
// it — an edge the registry redirected to, or the URL's own host when
// that is a serving node. start, when set, seeks the stream; failover is
// the session's retry budget: dead edges are reported and excluded from
// the next pick, and a stored stream cut mid-play continues from the
// byte it had reached.
func playURL(opts player.Options, rawURL string, start time.Duration, failover int) (*player.Metrics, string, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, "", err
	}
	spec, err := specFromURL(u)
	if err != nil {
		return nil, "", err
	}
	if start > 0 {
		spec.Start = start
	}
	spec.Failover = failover
	spec.Player = opts
	spec.OnRetry = func(edge string, err error) {
		if edge == "" {
			fmt.Fprintf(os.Stderr, "lodplay: %v; retrying\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "lodplay: edge %s failed (%v); failing over\n", edge, err)
	}
	session, err := client.New(u.Scheme+"://"+u.Host).Open(context.Background(), spec)
	if err != nil {
		return nil, "", err
	}
	m, err := session.Play()
	if err != nil {
		return nil, "", err
	}
	return m, u.Scheme + "://" + session.Stats().Edge, nil
}

// specFromURL recognizes a stream URL as a session spec: route family,
// decoded name, and any seek offset or bandwidth declaration in the
// query.
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

// printServerStatus fetches the /v1/status snapshot of the node at base
// (scheme://host) and writes the JSON to stdout.
func printServerStatus(base string) error {
	statusURL := base + proto.Versioned(proto.PathStatus)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, statusURL, nil)
	if err != nil {
		return err
	}
	resp, err := proto.DefaultClient.Do(req)
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
