package relay

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/vclock"
)

// DefaultNodeTTL is how long a node stays eligible for redirects after
// its last registration or heartbeat.
const DefaultNodeTTL = 15 * time.Second

// pruneAfterTTLs is how many TTLs a node may go unseen before its entry
// is removed entirely. Dead and draining nodes stay listed (health
// reporting) for this grace window so operators can watch a shutdown,
// but a registry that outlives generations of edges on ephemeral
// addresses must not grow its node table forever — Deregister marks
// rather than deletes, so pruning is the only removal path.
const pruneAfterTTLs = 4

// Registry is the cluster's client entry point: edges register and
// heartbeat their load, clients request streams and are redirected (307)
// to the least-loaded live edge. Redirect counts per node, lost
// redirects (no live edge), live-node count, node deaths (failure
// reports and graceful drains), and per-node heartbeat ages are
// published on Metrics().
//
// Liveness is two-signal: a node expires passively when its heartbeats
// stop for TTL, and dies actively the moment a client reports a failed
// fetch (ReportFailure) or the node itself drains (Deregister) — so the
// cluster stops routing at a corpse in one round trip instead of one
// TTL. A dead node revives on its next heartbeat or registration; a
// draining node stays listed (health "draining" on GET /v1/registry/
// nodes) but takes no redirects until it explicitly re-registers —
// heartbeats alone cannot resurrect it, so a heartbeat racing a
// deliberate shutdown never undoes the drain.
//
// Redirects for asset-keyed requests route through a consistent-hash
// ring (hashRing) over the eligible nodes, so each asset concentrates
// on one edge and Pick is a binary search instead of a table scan; the
// ring is rebuilt on membership changes and swapped atomically, and
// PickFor falls back to the least-loaded eligible node when the ring's
// choice is dead, draining, expired, or excluded.
type Registry struct {
	clock vclock.Clock
	// TTL overrides DefaultNodeTTL when positive.
	TTL time.Duration

	// store is the durable control-plane state (internal/catalog): the
	// persisted node table the registry restores on start plus the
	// published-content catalog. Never nil — a registry without a state
	// dir runs on a memory-only store with identical semantics.
	store *catalog.Store

	metrics       *metrics.Registry
	redirects     *metrics.Counter
	noNode        *metrics.Counter
	reports       *metrics.Counter
	deathFailure  *metrics.Counter
	deathDrain    *metrics.Counter
	ringHits      *metrics.Counter
	ringFallback  *metrics.Counter
	snapRedirects *metrics.Counter

	// ring is the consistent-hash ring over the eligible nodes, swapped
	// atomically on every membership change so PickFor can do its
	// lookup without g.mu (a reader never sees a torn ring; staleness is
	// handled by re-validating the chosen node under the lock).
	ring atomic.Pointer[hashRing]

	mu    sync.Mutex
	nodes map[string]*regNode
	// eligible is the incrementally maintained not-dead, not-draining
	// subset of nodes — the least-loaded fallback scans it instead of
	// re-filtering the whole table (TTL expiry is still checked per
	// candidate: it is passive and cannot maintain a list). Membership
	// invariant: n is in eligible iff !n.dead && !n.draining.
	eligible []*regNode
	// byRef resolves every name a client may know a node by — ID, URL,
	// and URL host — in O(1), replacing the per-request scan the
	// exclude-list handling and failure reports used to do.
	byRef map[string]*regNode

	// nodesCache holds the rendered GET /v1/registry/nodes body so the
	// listing is served from stored bytes instead of re-marshaling per
	// request. Invalidated (set nil) by every node-table mutation, and
	// additionally bounded by nodesListingMaxAge because TTL expiry is
	// passive — time alone changes the health labels.
	nodesCache atomic.Pointer[nodesListing]
}

// nodesListing is one rendered node listing and when it was rendered.
type nodesListing struct {
	body []byte
	at   time.Time
}

// nodesListingMaxAge bounds how stale a cached node listing may be:
// heartbeat ages and TTL-derived health change with nothing but the
// clock, so mutation-invalidation alone would serve a frozen view.
const nodesListingMaxAge = time.Second

type regNode struct {
	info NodeInfo
	// host is the node URL's host part, the form clients know a failed
	// edge by (they hold a redirect target, not a node ID).
	host     string
	stats    NodeStats
	lastSeen time.Time
	// dead marks a node reported unreachable; it is skipped by Pick
	// until the next heartbeat or registration revives it.
	dead bool
	// draining marks a node that deregistered for a graceful shutdown:
	// skipped by Pick and reported with health "draining", revived only
	// by an explicit re-registration (never by a stray heartbeat).
	draining bool
	// assigned counts redirects issued since the last heartbeat, so that
	// a burst of joins between heartbeats still spreads across edges
	// (least-connections with local accounting).
	assigned int64
	// redirects is the node's lod_registry_node_redirects_total series,
	// created once at registration so the redirect hot path never takes
	// the metric registry's lookup lock.
	redirects *metrics.Counter
	// restored marks a node recreated from the durable snapshot rather
	// than a live registration: the restored registry redirects at it on
	// faith (its process most likely outlived the registry restart) and
	// clears the mark on its first post-restart registration or
	// heartbeat. Redirects issued while the mark is up are counted on
	// lod_registry_snapshot_redirects_total — the proof that the snapshot
	// carried traffic before the heartbeat round caught up.
	restored bool
}

// refs returns every name a client may know this node by: its ID, its
// URL, and its URL's host.
func (n *regNode) refs() [3]string {
	return [3]string{n.info.ID, n.info.URL, n.host}
}

// NewRegistry creates a registry on the given clock (nil = real clock)
// with a memory-only state store — nothing survives the process.
func NewRegistry(clock vclock.Clock) *Registry {
	return NewRegistryWithStore(clock, nil)
}

// NewRegistryWithStore creates a registry on the given clock (nil =
// real clock) backed by a durable state store (nil = memory-only). The
// store's persisted node table is restored immediately: every recorded
// node comes back marked `restored` with its liveness clock reset, so
// the registry serves redirects from the snapshot before the first
// post-restart heartbeat arrives; recorded draining marks are kept —
// a drain deliberately survives a registry restart. The registry owns
// the store from here on; Close releases it.
func NewRegistryWithStore(clock vclock.Clock, store *catalog.Store) *Registry {
	if clock == nil {
		clock = vclock.Real{}
	}
	if store == nil {
		// Open("") cannot fail: there is no directory to create or read.
		store, _ = catalog.Open("")
	}
	g := &Registry{
		clock:   clock,
		store:   store,
		nodes:   make(map[string]*regNode),
		byRef:   make(map[string]*regNode),
		metrics: metrics.NewRegistry(),
	}
	g.redirects = g.metrics.Counter("lod_registry_redirects_total", "Client redirects issued to edges.")
	g.noNode = g.metrics.Counter("lod_registry_no_edge_total", "Client requests refused because no edge was live.")
	g.reports = g.metrics.Counter("lod_registry_failure_reports_total", "Client reports of a failed edge fetch.")
	g.ringHits = g.metrics.Counter("lod_registry_ring_hits_total", "Keyed redirects served by the consistent-hash ring's preferred node.")
	g.ringFallback = g.metrics.Counter("lod_registry_ring_fallbacks_total", "Keyed redirects that fell back to least-loaded (preferred node dead, draining, expired, or excluded).")
	deaths := "Nodes marked dead before TTL expiry, by reason."
	g.deathFailure = g.metrics.Counter("lod_registry_node_deaths_total", deaths, metrics.Label{Key: "reason", Value: "failure"})
	g.deathDrain = g.metrics.Counter("lod_registry_node_deaths_total", deaths, metrics.Label{Key: "reason", Value: "drain"})
	g.snapRedirects = g.metrics.Counter("lod_registry_snapshot_redirects_total",
		"Redirects served at nodes restored from the durable snapshot before their first post-restart heartbeat.")
	g.metrics.GaugeFunc("lod_registry_nodes_alive", "Registered nodes within their TTL.", func() float64 {
		var alive float64
		for _, n := range g.Nodes() {
			if n.Alive {
				alive++
			}
		}
		return alive
	})
	g.metrics.GaugeFunc("lod_registry_catalog_version", "Current control-plane state version.", func() float64 {
		return float64(g.store.Version())
	})
	for _, rec := range g.store.State().Nodes {
		// A record that no longer parses as a node is skipped, not fatal —
		// the rest of the snapshot still restores.
		_ = g.addNode(NodeInfo{ID: rec.ID, URL: rec.URL}, rec.Draining, true)
	}
	return g
}

// Close releases the registry's durable store. The registry itself
// keeps answering (memory-state only) — Close is for the shutdown path
// and for handing the state directory to a successor registry.
func (g *Registry) Close() { g.store.Close() }

// Metrics returns the registry's metric registry; cmd/lodserver mounts
// it next to the redirect endpoints when hosting the registry role.
func (g *Registry) Metrics() *metrics.Registry { return g.metrics }

func (g *Registry) ttl() time.Duration {
	if g.TTL > 0 {
		return g.TTL
	}
	return DefaultNodeTTL
}

// syncEligibilityLocked reconciles n's membership in the eligible list
// with its dead/draining flags and rebuilds the ring when membership
// changed. Callers capture `was` (the membership before mutating the
// flags) and call this after. Holding g.mu is required.
func (g *Registry) syncEligibilityLocked(n *regNode, was bool) {
	is := !n.dead && !n.draining
	if is == was {
		return
	}
	if is {
		g.eligible = append(g.eligible, n)
	} else {
		g.dropEligibleLocked(n)
	}
	g.rebuildRingLocked()
}

// dropEligibleLocked removes n from the eligible list (no-op when
// absent). Mutation-path only; the pick path never calls it.
func (g *Registry) dropEligibleLocked(n *regNode) {
	for i, e := range g.eligible {
		if e == n {
			g.eligible = append(g.eligible[:i], g.eligible[i+1:]...)
			return
		}
	}
}

// rebuildRingLocked rebuilds the consistent-hash ring from the current
// eligible list and publishes it atomically. Holding g.mu serializes
// writers; readers load the pointer lock-free.
func (g *Registry) rebuildRingLocked() {
	g.ring.Store(buildRing(g.eligible))
}

// setRefsLocked points every ref of n (ID, URL, host) at n in the byRef
// index; dropRefsLocked removes them, but only where the index still
// points at n — two nodes registered on the same URL must not unhook
// each other.
func (g *Registry) setRefsLocked(n *regNode) {
	for _, ref := range n.refs() {
		if ref != "" {
			g.byRef[ref] = n
		}
	}
}

func (g *Registry) dropRefsLocked(n *regNode) {
	for _, ref := range n.refs() {
		if ref != "" && g.byRef[ref] == n {
			delete(g.byRef, ref)
		}
	}
}

// pruneLocked drops nodes not seen for pruneAfterTTLs TTLs — long-dead
// corpses and drained nodes that never came back. Callers hold g.mu.
// Alive nodes are never eligible: staying alive requires heartbeats,
// and every heartbeat refreshes lastSeen. A pruned node that was merely
// partitioned re-registers on its next heartbeat's ErrUnknownNode,
// exactly like after a registry restart.
func (g *Registry) pruneLocked() {
	cut := g.clock.Now().Add(-time.Duration(pruneAfterTTLs) * g.ttl())
	var pruned []string
	for id, n := range g.nodes {
		if n.lastSeen.Before(cut) {
			delete(g.nodes, id)
			g.dropRefsLocked(n)
			g.dropEligibleLocked(n)
			pruned = append(pruned, id)
		}
	}
	if pruned == nil {
		return
	}
	g.rebuildRingLocked()
	g.invalidateNodesListing()
	// Drop the pruned nodes from the durable record too, or a restart
	// would resurrect corpses the live registry already forgot. Apply
	// under g.mu is safe: the store goroutine takes no registry locks.
	_, _ = g.store.Apply(func(st *catalog.State) {
		for _, id := range pruned {
			st.RemoveNode(id)
		}
	})
}

// Register adds or refreshes a node. Re-registering an existing ID
// updates its URL and resets its liveness. The registration is recorded
// in the durable store (clearing any persisted draining mark), so a
// restarted registry restores the node table instead of waiting for
// every edge to stumble over ErrUnknownNode.
func (g *Registry) Register(info NodeInfo) error {
	if err := g.addNode(info, false, false); err != nil {
		return err
	}
	// A persist failure is not a registration failure: the in-memory
	// table already routes to the node, and the store kept its previous
	// consistent state. The durable record simply lags until the next
	// successful mutation.
	_, _ = g.store.Apply(func(st *catalog.State) {
		st.UpsertNode(catalog.NodeRecord{ID: info.ID, URL: info.URL})
	})
	return nil
}

// addNode is the shared in-memory half of Register and the
// restore-from-snapshot path: validate, create metric series, and
// insert/update the node under g.mu.
//
// The node's metric series are created OUTSIDE g.mu: scrapes hold the
// metrics registry's lock while calling gauge functions that take g.mu,
// so taking the locks in the opposite order here would deadlock the
// registry against a concurrent /metrics scrape.
func (g *Registry) addNode(info NodeInfo, draining, restored bool) error {
	if info.ID == "" {
		return &badNodeError{"empty node id"}
	}
	u, err := url.Parse(info.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return &badNodeError{"node URL must be absolute, got " + info.URL}
	}
	id := info.ID
	redirects := g.metrics.Counter("lod_registry_node_redirects_total",
		"Client redirects issued, by target node.",
		metrics.Label{Key: "node", Value: id})
	// Scrape-time gauge: how stale is this node's last heartbeat? A node
	// that re-registers simply refreshes the closure; series are never
	// unregistered, so a TTL-expired node keeps reporting its growing age.
	g.metrics.GaugeFunc("lod_registry_heartbeat_age_seconds",
		"Seconds since each node's last registration or heartbeat.",
		func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			n, ok := g.nodes[id]
			if !ok {
				return -1
			}
			return g.clock.Now().Sub(n.lastSeen).Seconds()
		},
		metrics.Label{Key: "node", Value: id})

	g.mu.Lock()
	defer g.mu.Unlock()
	g.pruneLocked()
	n := g.nodes[info.ID]
	was := false
	if n == nil {
		n = &regNode{}
		g.nodes[info.ID] = n
	} else {
		was = !n.dead && !n.draining
		// Re-registration may move the node to a new URL; unhook the old
		// refs before indexing the new ones.
		g.dropRefsLocked(n)
	}
	n.info = info
	n.host = u.Host
	n.redirects = redirects
	n.lastSeen = g.clock.Now()
	n.dead = false
	n.draining = draining
	n.restored = restored
	g.setRefsLocked(n)
	g.syncEligibilityLocked(n, was)
	g.invalidateNodesListing()
	return nil
}

// Heartbeat records a node's load snapshot and refreshes its liveness.
// A heartbeat revives a node marked dead — the node is demonstrably
// back — but never a draining one: draining was the node's own
// deliberate exit, and a heartbeat racing the deregistration must not
// undo it. A drained node that restarts re-registers (Heartbeats.Run
// always registers first), which clears the mark.
func (g *Registry) Heartbeat(id string, stats NodeStats) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pruneLocked()
	n, ok := g.nodes[id]
	if !ok {
		return ErrUnknownNode
	}
	was := !n.dead && !n.draining
	n.stats = stats
	n.assigned = 0
	n.lastSeen = g.clock.Now()
	n.dead = false
	// The node has spoken for itself; it is no longer running on
	// snapshot faith.
	n.restored = false
	g.syncEligibilityLocked(n, was)
	g.invalidateNodesListing()
	return nil
}

// ReportFailure marks the node named by ref (node ID, URL, or URL host)
// dead right now, instead of letting it soak up redirects until its TTL
// runs out. It reports whether a live node was actually killed; reports
// about unknown, already-dead, or draining nodes are counted but
// otherwise ignored, so concurrent failing-over clients can all report
// the same corpse.
func (g *Registry) ReportFailure(ref string) bool {
	g.reports.Inc()
	g.mu.Lock()
	var killed bool
	if n := g.byRef[ref]; n != nil && !n.dead && !n.draining {
		n.dead = true
		g.syncEligibilityLocked(n, true)
		g.invalidateNodesListing()
		killed = true
	}
	g.mu.Unlock()
	if killed {
		g.deathFailure.Inc()
	}
	return killed
}

// Deregister marks a node draining — the graceful half of death, used
// by an edge shutting down so no client is redirected at it during its
// final seconds. The node stays listed (health "draining" in Nodes) so
// operators can watch the shutdown, then falls out entirely once it has
// been unseen for pruneAfterTTLs TTLs; only an explicit re-registration
// brings it back into rotation before that. Idempotent: draining an
// unknown or already-draining ID reports false.
func (g *Registry) Deregister(id string) bool {
	g.mu.Lock()
	n, ok := g.nodes[id]
	marked := ok && !n.draining
	if marked {
		was := !n.dead
		n.draining = true
		g.syncEligibilityLocked(n, was)
		g.invalidateNodesListing()
	}
	g.mu.Unlock()
	if marked {
		g.deathDrain.Inc()
		// The drain is durable: a registry restart must not resurrect a
		// node that deliberately exited rotation.
		_, _ = g.store.Apply(func(st *catalog.State) {
			st.SetNodeDraining(id, true)
		})
	}
	return marked
}

func (n *regNode) load() float64 {
	return n.stats.Load() + float64(n.assigned)
}

// health folds a node's liveness into the contract's one-word label.
func (n *regNode) health(cut time.Time) string {
	switch {
	case n.draining:
		return proto.HealthDraining
	case n.dead || n.lastSeen.Before(cut):
		return proto.HealthDead
	default:
		return proto.HealthAlive
	}
}

// Nodes returns the state of every registered node, sorted by ID, with
// each node's health (alive/dead/draining) and heartbeat age — the
// per-node view GET /v1/registry/nodes serves and lodplay
// -server-status prints.
func (g *Registry) Nodes() []NodeStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pruneLocked()
	now := g.clock.Now()
	cut := now.Add(-g.ttl())
	out := make([]NodeStatus, 0, len(g.nodes))
	for _, n := range g.nodes {
		health := n.health(cut)
		out = append(out, NodeStatus{
			NodeInfo:        n.info,
			Stats:           n.stats,
			Assigned:        n.assigned,
			Load:            n.load(),
			Alive:           health == proto.HealthAlive,
			Dead:            n.dead,
			Health:          health,
			HeartbeatAgeSec: now.Sub(n.lastSeen).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// invalidateNodesListing drops the cached node-listing bytes; the next
// NodesJSON re-renders. Safe with or without g.mu — the pointer store
// is atomic.
func (g *Registry) invalidateNodesListing() {
	g.nodesCache.Store(nil)
}

// NodesJSON returns the GET /v1/registry/nodes body: the Nodes()
// listing rendered once per node-table change (plus a one-second
// staleness bound for the purely clock-driven fields) and served as
// stored bytes from then on — the listing hot path does zero marshal
// work per request. Callers must not mutate the returned slice.
func (g *Registry) NodesJSON() []byte {
	now := g.clock.Now()
	if l := g.nodesCache.Load(); l != nil && now.Sub(l.at) < nodesListingMaxAge && !l.at.After(now) {
		return l.body
	}
	body, err := json.Marshal(g.Nodes())
	if err != nil {
		// []NodeStatus holds only plain data; Marshal cannot fail on it.
		panic("relay: marshal node listing: " + err.Error())
	}
	body = append(body, '\n')
	g.nodesCache.Store(&nodesListing{body: body, at: now})
	return body
}

// CatalogVersion returns the current control-plane state version — the
// value of the CatalogVersionHeader on every control response.
func (g *Registry) CatalogVersion() uint64 { return g.store.Version() }

// CatalogJSON returns the GET /v1/registry/catalog body: the persisted
// catalog bytes, pre-marshaled by the store at swap time. Callers must
// not mutate the returned slice.
func (g *Registry) CatalogJSON() []byte { return g.store.CatalogJSON() }

// PublishAsset records an asset in the durable catalog (insert or
// republish — a republish bumps the entry's Rev, which is what tells
// edges their mirrored copy went stale). Returns the catalog version
// carrying the change.
func (g *Registry) PublishAsset(name string) (uint64, error) {
	if name == "" {
		return 0, &badNodeError{"empty asset name"}
	}
	st, err := g.store.Apply(func(st *catalog.State) { st.PublishAsset(name) })
	return st.Version, err
}

// UnpublishAsset removes an asset from the durable catalog, reporting
// whether it was published, and the catalog version after the call.
func (g *Registry) UnpublishAsset(name string) (uint64, bool, error) {
	var removed bool
	st, err := g.store.Apply(func(st *catalog.State) { removed = st.UnpublishAsset(name) })
	return st.Version, removed, err
}

// PublishGroup records a multi-rate group (and implicitly its variant
// list) in the durable catalog; semantics mirror PublishAsset.
func (g *Registry) PublishGroup(name string, variants []string) (uint64, error) {
	if name == "" {
		return 0, &badNodeError{"empty group name"}
	}
	st, err := g.store.Apply(func(st *catalog.State) { st.PublishGroup(name, variants) })
	return st.Version, err
}

// UnpublishGroup removes a group from the durable catalog; semantics
// mirror UnpublishAsset.
func (g *Registry) UnpublishGroup(name string) (uint64, bool, error) {
	var removed bool
	st, err := g.store.Apply(func(st *catalog.State) { removed = st.UnpublishGroup(name) })
	return st.Version, removed, err
}

// RollbackCatalog restores the published content of a retained catalog
// snapshot through the store's apply goroutine and returns the catalog
// version carrying the restore. Node membership is untouched and the
// version keeps growing; catalog.ErrNoSnapshot reports an unknown or
// pruned version.
func (g *Registry) RollbackCatalog(version uint64) (uint64, error) {
	st, err := g.store.Rollback(version)
	return st.Version, err
}

// Pick selects the least-loaded live node and counts the assignment.
// Ties break on node ID for determinism. Nodes named in exclude (by ID,
// URL, or URL host) are skipped, so a failing-over client is never
// bounced back to the node it just escaped; when every live node is
// excluded Pick returns ErrNoNodes and the client should drop its
// stale exclusions and retry.
func (g *Registry) Pick(exclude ...string) (NodeInfo, error) {
	return g.PickFor("", exclude...)
}

// PickFor selects the node serving key — a stream path in its
// unversioned form (proto.StreamPath), e.g. "/vod/lec-3" — and counts
// the assignment. A non-empty key routes through the consistent-hash
// ring: the preferred node is an O(log n) lookup, computable without
// scanning the node table, and stable across requests, so each asset
// concentrates on one edge and the cluster mirrors it once instead of
// once per edge. When the preferred node is dead, draining, expired,
// or excluded — or the key is empty — PickFor falls back to the
// least-loaded eligible node, exactly the old Pick behaviour.
//
// The ring lookup runs lock-free on an atomically published ring; only
// the validation and load accounting take g.mu. The whole path is
// allocation-free for exclude lists up to 8 entries (the failover SDK
// never accumulates more than the edge count).
func (g *Registry) PickFor(key string, exclude ...string) (NodeInfo, error) {
	var preferred *regNode
	if key != "" {
		if r := g.ring.Load(); r != nil {
			preferred = r.pick(key)
		}
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	cut := g.clock.Now().Add(-g.ttl())
	// Resolve the exclude refs to nodes once, O(1) each via the byRef
	// index — the old code re-matched every node against every ref on
	// every request. The stack buffer keeps the hot path alloc-free.
	var exclBuf [8]*regNode
	excl := exclBuf[:0]
	for _, ref := range exclude {
		if n := g.byRef[ref]; n != nil {
			excl = append(excl, n)
		}
	}
	usable := func(n *regNode) bool {
		if n.dead || n.draining || n.lastSeen.Before(cut) {
			return false
		}
		for _, x := range excl {
			if x == n {
				return false
			}
		}
		return true
	}

	if preferred != nil {
		if usable(preferred) {
			preferred.assigned++
			preferred.redirects.Inc()
			g.ringHits.Inc()
			if preferred.restored {
				g.snapRedirects.Inc()
			}
			return preferred.info, nil
		}
		g.ringFallback.Inc()
	}

	// Least-loaded fallback (and the whole path for unkeyed picks): scan
	// the incrementally maintained eligible list — dead and draining
	// nodes never appear in it, so a table full of corpses costs nothing.
	var best *regNode
	for _, n := range g.eligible {
		if !usable(n) {
			continue
		}
		if best == nil || n.load() < best.load() ||
			(n.load() == best.load() && n.info.ID < best.info.ID) {
			best = n
		}
	}
	if best == nil {
		return NodeInfo{}, ErrNoNodes
	}
	best.assigned++
	best.redirects.Inc()
	if best.restored {
		g.snapRedirects.Inc()
	}
	return best.info, nil
}

// Handler returns the registry's HTTP interface. Every route serves
// under the /v1 prefix and its legacy unversioned alias:
//
//	POST {/v1}/registry/register       — body: proto.NodeInfo JSON
//	POST {/v1}/registry/heartbeat      — body: proto.HeartbeatMsg JSON
//	POST {/v1}/registry/report-failure — body: proto.FailureReport JSON;
//	                                     marks the node dead immediately
//	POST {/v1}/registry/deregister     — body: proto.DeregisterMsg JSON;
//	                                     marks a shutting-down node
//	                                     draining
//	GET  {/v1}/registry/nodes          — JSON list of proto.NodeStatus
//	                                     (health + heartbeat age per node),
//	                                     served from cached bytes
//	GET  {/v1}/registry/catalog        — proto.Catalog JSON, the persisted
//	                                     bytes verbatim
//	POST {/v1}/registry/publish        — body: proto.PublishMsg JSON;
//	                                     records an asset or group in the
//	                                     durable catalog
//	POST {/v1}/registry/unpublish      — body: proto.UnpublishMsg JSON;
//	                                     404 when not in the catalog
//	GET  {/v1}/vod/..., /live/..., /group/...
//	                                   — 307 redirect to the edge the
//	                                     consistent-hash ring assigns the
//	                                     stream path (least-loaded when
//	                                     that node is down), path and
//	                                     query preserved; nodes named in
//	                                     the proto.ExcludeHeader are
//	                                     skipped; 503 when no edge is
//	                                     live
func (g *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	proto.HandleFunc(mux, proto.PathRegister, g.handleRegister)
	proto.HandleFunc(mux, proto.PathHeartbeat, g.handleHeartbeat)
	proto.HandleFunc(mux, proto.PathReportFailure, g.handleReportFailure)
	proto.HandleFunc(mux, proto.PathDeregister, g.handleDeregister)
	proto.HandleFunc(mux, proto.PathNodes, g.handleNodes)
	proto.HandleFunc(mux, proto.PathCatalog, g.handleCatalog)
	proto.HandleFunc(mux, proto.PathCatalogPublish, g.handleCatalogPublish)
	proto.HandleFunc(mux, proto.PathCatalogUnpublish, g.handleCatalogUnpublish)
	proto.HandleFunc(mux, proto.PathCatalogRollback, g.handleCatalogRollback)
	proto.HandleFunc(mux, proto.PrefixVOD, g.handleRedirect)
	proto.HandleFunc(mux, proto.PrefixLive, g.handleRedirect)
	proto.HandleFunc(mux, proto.PrefixGroup, g.handleRedirect)
	return mux
}

// setCatalogVersion stamps the response with the current catalog
// version. The string is pre-rendered at state-swap time, so this costs
// one atomic load on the redirect hot path.
func (g *Registry) setCatalogVersion(w http.ResponseWriter) {
	w.Header().Set(proto.CatalogVersionHeader, g.store.Current().VersionString)
}

// maxControlBody bounds the JSON body of a control-plane POST. The largest
// honest one is a group publish naming its variants — kilobytes.
const maxControlBody = 1 << 20

// decodePost reads a control-plane POST's JSON body into msg. It answers
// every refusal itself — 405 for another method, 413 for a body over
// maxControlBody, 400 for malformed JSON — and reports whether the
// handler may go on.
func decodePost(w http.ResponseWriter, r *http.Request, msg any) bool {
	if r.Method != http.MethodPost {
		proto.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(msg)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		proto.WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
	case err != nil:
		proto.WriteError(w, http.StatusBadRequest, err.Error())
	}
	return err == nil
}

func (g *Registry) handleRegister(w http.ResponseWriter, r *http.Request) {
	var info NodeInfo
	if !decodePost(w, r, &info) {
		return
	}
	if err := g.Register(info); err != nil {
		proto.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var msg proto.HeartbeatMsg
	if !decodePost(w, r, &msg) {
		return
	}
	if err := g.Heartbeat(msg.ID, msg.Stats); err != nil {
		status := http.StatusBadRequest
		if err == ErrUnknownNode {
			// An edge that outlived a registry restart must re-register.
			status = http.StatusNotFound
		}
		proto.WriteError(w, status, err.Error())
		return
	}
	// The heartbeat answer doubles as the catalog-change signal: an edge
	// seeing the version move re-fetches the catalog and invalidates
	// stale mirrors, with no extra polling round trip.
	g.setCatalogVersion(w)
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleReportFailure(w http.ResponseWriter, r *http.Request) {
	var msg proto.FailureReport
	if !decodePost(w, r, &msg) {
		return
	}
	if msg.Node == "" {
		proto.WriteError(w, http.StatusBadRequest, "relay: empty node reference")
		return
	}
	// Reports about unknown or already-dead nodes succeed too: the
	// report is advisory, and racing clients all report the same corpse.
	g.ReportFailure(msg.Node)
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var msg proto.DeregisterMsg
	if !decodePost(w, r, &msg) {
		return
	}
	if msg.ID == "" {
		proto.WriteError(w, http.StatusBadRequest, "relay: empty node id")
		return
	}
	g.Deregister(msg.ID)
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleNodes(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g.setCatalogVersion(w)
	_, _ = w.Write(g.NodesJSON())
}

func (g *Registry) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g.setCatalogVersion(w)
	_, _ = w.Write(g.CatalogJSON())
}

func (g *Registry) handleCatalogPublish(w http.ResponseWriter, r *http.Request) {
	var msg proto.PublishMsg
	if !decodePost(w, r, &msg) {
		return
	}
	var err error
	switch {
	case msg.Asset != nil && msg.Group == nil:
		_, err = g.PublishAsset(msg.Asset.Name)
	case msg.Group != nil && msg.Asset == nil:
		_, err = g.PublishGroup(msg.Group.Name, msg.Group.Variants)
	default:
		proto.WriteError(w, http.StatusBadRequest, "relay: publish wants exactly one of asset or group")
		return
	}
	if err != nil {
		proto.WriteErr(w, err)
		return
	}
	g.setCatalogVersion(w)
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleCatalogUnpublish(w http.ResponseWriter, r *http.Request) {
	var msg proto.UnpublishMsg
	if !decodePost(w, r, &msg) {
		return
	}
	var (
		removed bool
		err     error
	)
	switch {
	case msg.Asset != "" && msg.Group == "":
		_, removed, err = g.UnpublishAsset(msg.Asset)
	case msg.Group != "" && msg.Asset == "":
		_, removed, err = g.UnpublishGroup(msg.Group)
	default:
		proto.WriteError(w, http.StatusBadRequest, "relay: unpublish wants exactly one of asset or group")
		return
	}
	if err != nil {
		proto.WriteErr(w, err)
		return
	}
	if !removed {
		proto.WriteError(w, http.StatusNotFound, "relay: not in catalog")
		return
	}
	g.setCatalogVersion(w)
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleCatalogRollback(w http.ResponseWriter, r *http.Request) {
	var msg proto.RollbackMsg
	if !decodePost(w, r, &msg) {
		return
	}
	if msg.Version == 0 {
		proto.WriteError(w, http.StatusBadRequest, "relay: rollback wants a snapshot version")
		return
	}
	if _, err := g.RollbackCatalog(msg.Version); err != nil {
		if errors.Is(err, catalog.ErrNoSnapshot) {
			proto.WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		proto.WriteErr(w, err)
		return
	}
	g.setCatalogVersion(w)
	w.WriteHeader(http.StatusNoContent)
}

func (g *Registry) handleRedirect(w http.ResponseWriter, r *http.Request) {
	exclude := proto.SplitExclude(r.Header.Get(proto.ExcludeHeader))
	// The ring key is the unversioned escaped path, so /v1/vod/x and its
	// legacy alias /vod/x land on the same edge, and the query (seek
	// offsets, bandwidth) never splits an asset across nodes.
	node, err := g.PickFor(proto.Unversioned(r.URL.EscapedPath()), exclude...)
	if err != nil {
		g.noNode.Inc()
		proto.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	g.redirects.Inc()
	// EscapedPath keeps percent-encoded names intact in the Location.
	target := strings.TrimSuffix(node.URL, "/") + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	g.setCatalogVersion(w)
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
}

type badNodeError struct{ msg string }

func (e *badNodeError) Error() string { return "relay: " + e.msg }
