package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/streaming"
)

// Host names on the in-process network.
const (
	originHost   = "origin.lod"
	registryHost = "registry.lod"
	registryURL  = "http://" + registryHost
	originURL    = "http://" + originHost
)

const (
	edgeCount         = 2
	heartbeatInterval = 250 * time.Millisecond
)

// cluster is the system under test: an origin, a registry on a durable
// catalog store, and edgeCount edges with heartbeat loops, every role a
// real HTTP server on one netsim.MemNet, built from the same public
// constructors cmd/lodserver uses. With a recorder, every role's
// Handler() and outbound transport is wrapped with span recording;
// without one the wrappers are absent, not disabled.
type cluster struct {
	net      *netsim.MemNet
	origin   *streaming.Server
	registry *relay.Registry
	edges    []*relay.Edge
	edgeURLs []string
	rec      *recorder

	stateDir string
	cancel   context.CancelFunc
	servers  []*http.Server
	clients  []*http.Client
	wg       sync.WaitGroup // heartbeat loops and workload pumps
}

// startCluster brings up origin and registry, lets populate register
// the workload's content on them, then starts the edges and waits until
// the registry sees every edge alive. Content goes in before the edges
// so their first catalog sync already sees all of it.
func startCluster(ctx context.Context, scratch string, cacheBytes int64, rec *recorder,
	populate func(c *cluster) error) (*cluster, error) {

	ctx, cancel := context.WithCancel(ctx)
	c := &cluster{
		net:    netsim.NewMemNet(),
		origin: streaming.NewServer(nil),
		rec:    rec,
		cancel: cancel,
	}
	fail := func(err error) (*cluster, error) {
		c.Close()
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "catalog-")
	if err != nil {
		return fail(err)
	}
	c.stateDir = dir
	store, err := catalog.Open(dir)
	if err != nil {
		return fail(err)
	}
	c.registry = relay.NewRegistryWithStore(nil, store)
	if err := populate(c); err != nil {
		return fail(err)
	}

	originHandler, registryHandler := c.origin.Handler(), c.registry.Handler()
	if rec != nil {
		originHandler = rec.handler("origin", classifyOrigin, originHandler)
		registryHandler = rec.handler("registry", classifyRegistry, registryHandler)
	}
	if err := c.serve(originHost, originHandler); err != nil {
		return fail(err)
	}
	if err := c.serve(registryHost, registryHandler); err != nil {
		return fail(err)
	}

	for i := 0; i < edgeCount; i++ {
		id := fmt.Sprintf("edge-%d", i+1)
		host := id + ".lod"
		edge := relay.NewEdge(originURL, streaming.NewServer(nil))
		edge.CacheBytes = cacheBytes
		edge.Client = c.httpClient()
		handler := edge.Handler()
		if rec != nil {
			edge.Client.Transport = rec.edgeTransport(id, edge.Client.Transport)
			handler = rec.handler(id, classifyEdge(edge), handler)
		}
		if err := c.serve(host, handler); err != nil {
			return fail(err)
		}
		c.edges = append(c.edges, edge)
		c.edgeURLs = append(c.edgeURLs, "http://"+host)

		hb := &relay.Heartbeats{
			Client:   edge.Client,
			Registry: registryURL,
			Info:     relay.NodeInfo{ID: id, URL: "http://" + host},
			Snapshot: func() relay.NodeStats { return relay.SnapshotStats(edge.Server) },
			Interval: heartbeatInterval,
			// A moved catalog version is the edge's cue to re-fetch the
			// catalog and drop stale mirrors, as in cmd/lodserver.
			OnCatalog: func(uint64) { _ = edge.SyncCatalogFrom(edge.Client, registryURL) },
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = hb.Run(ctx) // ends with ctx; a protocol rejection shows up in awaitReady
		}()
	}
	if err := c.awaitReady(5 * time.Second); err != nil {
		return fail(err)
	}
	return c, nil
}

// classifyEdge names an edge request's span and notes, before the
// handler runs, whether the content was already resident — the hit/miss
// split, read from outside through the edge server's public lookups.
func classifyEdge(edge *relay.Edge) classifier {
	return func(req *http.Request) (string, string, bool) {
		switch kind, name, _ := streamRoute(req); kind {
		case proto.StreamVOD:
			_, hit := edge.Server.Asset(name)
			return spanEdgeVOD, name, hit
		case proto.StreamLive:
			_, hit := edge.Server.Channel(name)
			return spanEdgeLive, name, hit
		case proto.StreamGroup:
			_, hit := edge.Server.RateGroup(name)
			return spanEdgeGroup, name, hit
		}
		return spanEdgeMisc, "", false
	}
}

func (c *cluster) serve(host string, h http.Handler) error {
	l, err := c.net.Listen(host)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	go func() { _ = srv.Serve(l) }() // returns when Close shuts the listener
	return nil
}

// httpClient returns a fresh HTTP client (own connection pool) on the
// cluster's network.
func (c *cluster) httpClient() *http.Client {
	hc := c.net.Client()
	c.clients = append(c.clients, hc)
	return hc
}

// sdk returns a session SDK client with its own connection pool, its
// transport traced when the cluster is. Failover backoff is irrelevant:
// no workload grants a failover budget, so a failure is a failed op.
func (c *cluster) sdk() *client.Client {
	hc := c.httpClient()
	if c.rec != nil {
		hc.Transport = c.rec.clientTransport(hc.Transport)
	}
	return client.New(registryURL, client.WithHTTPClient(hc))
}

func (c *cluster) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		alive := 0
		for _, n := range c.registry.Nodes() {
			if n.Alive {
				alive++
			}
		}
		if alive >= edgeCount {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d/%d edges alive after %v", alive, edgeCount, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// edgeFor returns the edge the registry's ring assigns a stream to.
func (c *cluster) edgeFor(kind proto.StreamKind, name string) (*relay.Edge, error) {
	node, err := c.registry.PickFor(proto.StreamPath(kind, name))
	if err != nil {
		return nil, err
	}
	for i, u := range c.edgeURLs {
		if u == node.URL {
			return c.edges[i], nil
		}
	}
	return nil, fmt.Errorf("cluster: registry picked unknown node %s", node.URL)
}

// Close stops heartbeats and pumps, closes every server and connection
// and removes the catalog state. Safe on a partly built cluster.
func (c *cluster) Close() {
	c.cancel()
	for _, srv := range c.servers {
		_ = srv.Close()
	}
	c.net.Close()
	c.wg.Wait()
	for _, hc := range c.clients {
		hc.CloseIdleConnections()
	}
	if c.registry != nil {
		c.registry.Close()
	}
	if c.stateDir != "" {
		_ = os.RemoveAll(c.stateDir)
	}
}

// lecture is one encoded container and what is needed to publish it.
type lecture struct {
	name string
	data []byte
}

// encodeLecture renders one synthetic lecture to a stored (or live)
// container. The seed picks the content, so a run's bytes are a
// function of --seed alone.
func encodeLecture(name, profile string, dur, lead time.Duration, live bool, seed int64) (lecture, error) {
	p, err := codec.ByName(profile)
	if err != nil {
		return lecture{}, err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: name, Duration: dur, Profile: p, SlideCount: 3, Seed: seed,
	})
	if err != nil {
		return lecture{}, err
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{Live: live, LeadTime: lead}, &buf); err != nil {
		return lecture{}, err
	}
	return lecture{name: name, data: buf.Bytes()}, nil
}

// publish registers a lecture on the origin and announces it in the
// registry's durable catalog, the two steps of cmd/lodpublish.
func (c *cluster) publish(l lecture) error {
	if _, err := c.origin.RegisterAsset(l.name, asf.NewReader(bytes.NewReader(l.data))); err != nil {
		return err
	}
	_, err := c.registry.PublishAsset(l.name)
	return err
}
