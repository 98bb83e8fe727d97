// Command lodserver runs the Lecture-on-Demand streaming server: stored
// assets are served at /v1/vod/{name}, live channels at
// /v1/live/{channel}, with JSON listings at /v1/assets and /v1/channels,
// and whole-container mirror transfers at /v1/fetch/{name}. Every
// endpoint is served under /v1 only; the route constants live in
// internal/proto.
//
// The server can run standalone or as part of a distributed origin→edge
// cluster (internal/relay):
//
//	lodserver -addr :8080 -asset lecture1=published.asf
//	lodserver -addr :8080 -demo              # generate and serve a demo asset
//
//	# origin that also hosts the cluster registry on :9090
//	lodserver -addr :8080 -demo -registry :9090
//
//	# edge pulling through from the origin, registered with the registry,
//	# mirroring at most 256 MiB of assets (frequency-gated eviction beyond that)
//	lodserver -addr :8081 -origin http://origin:8080 \
//	    -edge http://edge1:8081 -registry http://origin:9090 \
//	    -cache-bytes 268435456
//
// Clients then connect to the registry's /v1/vod/... and /v1/live/...
// URLs and are 307-redirected to an edge.
//
// Every role serves GET /v1/metrics (Prometheus text) and GET /v1/status
// (JSON snapshot) on its listener; the registry listener exposes its own
// counters the same way. See internal/metrics.
//
// On SIGINT/SIGTERM the server exits along one path: a node registered
// with a registry deregisters first (so no new client is redirected at
// it), then its listeners stop accepting connections and in-flight
// responses get up to -drain to finish before the rest are closed.
// Clients cut off then, like those of a node that dies, fail over
// through the registry (see internal/client).
//
// Both listeners drop a connection that has not sent its request headers
// within 10 s and close keep-alive connections idle for 2 min; responses
// have no deadline, a lecture being one long response.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/relay"
	"repro/internal/streaming"
)

// assetFlags collects repeated -asset name=path flags.
type assetFlags map[string]string

func (a assetFlags) String() string { return fmt.Sprintf("%v", map[string]string(a)) }

func (a assetFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	a[parts[0]] = parts[1]
	return nil
}

// config is the parsed, validated command line.
type config struct {
	addr       string
	demo       bool
	pacing     bool
	assets     assetFlags
	capacity   int64
	origin     string // non-empty: run as an edge of this origin
	edgeURL    string // advertised URL for registry registration
	registry   string // URL → register with it; listen address → host it
	stateDir   string // non-empty: hosted registry persists its state here
	heartbeat  time.Duration
	pprofOn    bool
	cacheBytes int64
	drain      time.Duration
}

// hostsRegistry reports whether -registry names a listen address to serve
// a registry on (as opposed to a remote registry URL to register with).
func (c *config) hostsRegistry() bool {
	return c.registry != "" && !strings.Contains(c.registry, "://")
}

func parseConfig(args []string) (*config, error) {
	c := &config{assets: assetFlags{}}
	fs := flag.NewFlagSet("lodserver", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&c.demo, "demo", false, "register a generated demo asset as 'demo'")
	fs.BoolVar(&c.pacing, "pacing", true, "pace VOD packets by their send times")
	fs.Var(c.assets, "asset", "register a stored asset, name=path (repeatable)")
	fs.Int64Var(&c.capacity, "capacity-bps", 0, "admission-control uplink capacity in bits/s (0 = unlimited)")
	fs.StringVar(&c.origin, "origin", "", "origin base URL; serve as an edge relaying live channels and mirroring assets from it")
	fs.StringVar(&c.edgeURL, "edge", "", "advertised base URL of this node, required when registering with a registry")
	fs.StringVar(&c.registry, "registry", "", `cluster registry: a URL ("http://host:9090") registers this node with it, a listen address (":9090") hosts a registry there`)
	fs.StringVar(&c.stateDir, "state-dir", "", "directory where a hosted registry persists node membership and the content catalog; restored on restart (requires hosting the registry)")
	fs.DurationVar(&c.heartbeat, "heartbeat", 5*time.Second, "registry heartbeat interval")
	fs.BoolVar(&c.pprofOn, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the main listener (profile a live node without restarting it)")
	fs.Int64Var(&c.cacheBytes, "cache-bytes", 0, "edge mirror cache capacity in payload bytes (0 = unbounded; requires -origin)")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "how long in-flight responses may run on SIGINT/SIGTERM before the rest are closed (0 = close at once)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.drain < 0 {
		return nil, fmt.Errorf("-drain must be >= 0, got %v", c.drain)
	}
	if c.registry != "" && !c.hostsRegistry() && c.edgeURL == "" {
		return nil, fmt.Errorf("-registry %s needs -edge with this node's advertised URL", c.registry)
	}
	if c.origin != "" && (c.demo || len(c.assets) > 0) {
		return nil, fmt.Errorf("an edge (-origin) mirrors origin assets; drop -demo/-asset")
	}
	if c.cacheBytes < 0 {
		return nil, fmt.Errorf("-cache-bytes must be >= 0, got %d", c.cacheBytes)
	}
	if c.cacheBytes > 0 && c.origin == "" {
		return nil, fmt.Errorf("-cache-bytes bounds the edge mirror cache; it requires -origin")
	}
	if c.stateDir != "" && !c.hostsRegistry() {
		return nil, fmt.Errorf(`-state-dir persists registry state; it requires -registry with a listen address (":9090")`)
	}
	return c, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lodserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	c, err := parseConfig(args)
	if err != nil {
		return err
	}

	srv := streaming.NewServer(nil)
	srv.Pacing = c.pacing
	srv.CapacityBps = c.capacity

	for name, path := range c.assets {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("open asset %s: %w", name, err)
		}
		_, err = srv.RegisterAsset(name, asf.NewReader(f))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
		fmt.Printf("registered asset %q from %s\n", name, path)
	}

	if c.demo {
		if err := registerDemo(srv); err != nil {
			return err
		}
		fmt.Println("registered generated asset \"demo\"")
	}

	handler := http.Handler(nil)
	var edge *relay.Edge
	if c.origin != "" {
		edge = relay.NewEdge(c.origin, srv)
		edge.CacheBytes = c.cacheBytes
		handler = edge.Handler()
		fmt.Printf("edge mode: pulling through from origin %s\n", c.origin)
		if c.cacheBytes > 0 {
			fmt.Printf("edge mirror cache bounded at %d bytes\n", c.cacheBytes)
		}
	} else {
		handler = srv.Handler()
	}
	if c.pprofOn {
		// Mounted explicitly rather than via DefaultServeMux so the debug
		// surface exists only when asked for.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		fmt.Printf("pprof serving on %s/debug/pprof/\n", c.addr)
		handler = mux
	}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	errc := make(chan error, 2)
	var servers []*http.Server
	serve := func(addr string, h http.Handler) {
		hs := newHTTPServer(addr, h)
		servers = append(servers, hs)
		go func() { errc <- hs.ListenAndServe() }()
	}
	if c.hostsRegistry() {
		store, err := catalog.Open(c.stateDir)
		if err != nil {
			return fmt.Errorf("open -state-dir: %w", err)
		}
		reg := relay.NewRegistryWithStore(nil, store)
		if c.stateDir != "" {
			fmt.Printf("registry state persisted under %s (restored version %d)\n",
				c.stateDir, reg.CatalogVersion())
		}
		fmt.Printf("cluster registry listening on %s\n", c.registry)
		serve(c.registry, reg.Handler())
	} else if c.registry != "" {
		hb := &relay.Heartbeats{
			Registry: c.registry,
			Info:     relay.NodeInfo{ID: c.edgeURL, URL: c.edgeURL},
			Snapshot: func() relay.NodeStats { return relay.SnapshotStats(srv) },
			Interval: c.heartbeat,
		}
		if edge != nil {
			// Heartbeat answers carry the registry's catalog version; when
			// it moves, re-fetch the catalog and invalidate stale mirrors.
			hb.OnCatalog = func(uint64) {
				if err := edge.SyncCatalogFrom(nil, c.registry); err != nil {
					fmt.Fprintln(os.Stderr, "lodserver: catalog sync:", err)
				}
			}
		}
		fmt.Printf("registering %s with registry %s\n", c.edgeURL, c.registry)
		go func() { errc <- hb.Run(sigCtx) }()
	}

	fmt.Printf("LOD server listening on %s (assets: %v)\n", c.addr, srv.AssetNames())
	serve(c.addr, handler)
	select {
	case err := <-errc:
		if sigCtx.Err() != nil {
			break // heartbeat loop reporting the signal cancellation
		}
		return err
	case <-sigCtx.Done():
	}
	shutdown(c, servers)
	return nil
}

// Connection limits every listener runs under. There is deliberately no
// WriteTimeout: a lecture is one long response.
const (
	// readHeaderTimeout bounds how long a connection may take to send its
	// request headers, so one that connects and says nothing is dropped
	// instead of holding a goroutine and a descriptor for good.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections no request has used.
	idleTimeout = 2 * time.Minute
	// deregisterTimeout bounds telling the registry about a shutdown, so
	// a registry that stopped answering cannot hold up the exit.
	deregisterTimeout = 5 * time.Second
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// shutdown is a node's one exit. It tells the registry first, so no new
// client is redirected here. Then every listener stops at once: it
// accepts no new connection, closes its idle ones, and gives in-flight
// responses up to -drain to finish; whatever is still busy after that is
// closed. A viewer cut off at the close fails over through the registry,
// and a stored body continues from the byte it reached.
func shutdown(c *config, servers []*http.Server) {
	if c.registry != "" && !c.hostsRegistry() {
		fmt.Printf("deregistering %s from registry %s\n", c.edgeURL, c.registry)
		ctx, cancel := context.WithTimeout(context.Background(), deregisterTimeout)
		err := relay.Deregister(ctx, nil, c.registry, c.edgeURL)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lodserver: deregister:", err)
		}
	}
	fmt.Printf("draining for up to %v\n", c.drain)
	ctx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	var wg sync.WaitGroup
	for _, hs := range servers {
		wg.Add(1)
		go func(hs *http.Server) {
			defer wg.Done()
			if err := hs.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "lodserver: %s: closing what is still busy: %v\n", hs.Addr, err)
			}
			hs.Close()
		}(hs)
	}
	wg.Wait()
}

func registerDemo(srv *streaming.Server) error {
	profile, err := codec.ByName("dsl-300k")
	if err != nil {
		return err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Demo lecture", Duration: 60 * time.Second, Profile: profile,
		SlideCount: 12, AnnotationEvery: 20 * time.Second, Seed: 2002,
	})
	if err != nil {
		return err
	}
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := encoder.EncodeLecture(lec, encoder.Config{LeadTime: time.Second}, pw)
		pw.CloseWithError(err)
		errc <- err
	}()
	if _, err := srv.RegisterAsset("demo", asf.NewReader(pr)); err != nil {
		return err
	}
	return <-errc
}
