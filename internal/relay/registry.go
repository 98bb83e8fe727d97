package relay

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/relay/membership"
	"repro/internal/vclock"
)

// DefaultNodeTTL is how long a node stays eligible for redirects after
// its last registration or heartbeat.
const DefaultNodeTTL = membership.TTL

// Registry is the cluster's client entry point: edges register and
// heartbeat their load, clients request streams and are redirected (307)
// to an edge. The decisions — who is alive, who serves which stream —
// are membership.Table's; Registry is the shell around it that holds the
// lock, reads the clock, counts outcomes on Metrics(), persists node
// changes in the durable store and serves the HTTP routes.
//
// Liveness is two-signal: a node expires passively when its heartbeats
// stop for the TTL, and dies actively the moment a client reports a
// failed fetch (ReportFailure) or the node itself drains (Deregister).
//
// Reads never write: Nodes, the listing and the gauges leave the table
// and the store alone. Pruning, and its store write, happen on Register
// and Heartbeat.
type Registry struct {
	clock vclock.Clock

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

	mu      sync.Mutex
	members *membership.Table
	// nodeRedirects holds each registered node's
	// lod_registry_node_redirects_total series, created once at
	// registration so the redirect path never takes the metric
	// registry's lookup lock.
	nodeRedirects map[string]*metrics.Counter
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
		clock:         clock,
		store:         store,
		members:       membership.New(),
		nodeRedirects: make(map[string]*metrics.Counter),
		metrics:       metrics.NewRegistry(),
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
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(g.members.Alive(g.clock.Now()))
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

// Metrics returns the registry's metric registry, which Handler serves
// at /v1/metrics and /v1/status.
func (g *Registry) Metrics() *metrics.Registry { return g.metrics }

// pruneLocked removes the nodes due for pruning from the table and from
// the durable record, or a restart would resurrect corpses the live
// registry already forgot. A pruned node that was merely partitioned
// re-registers on its next heartbeat's ErrUnknownNode, exactly like
// after a registry restart. Callers hold g.mu; Apply under it is safe,
// since the store's lock is innermost: a mutation takes no registry lock.
func (g *Registry) pruneLocked() {
	pruned := g.members.Prune(g.clock.Now())
	if pruned == nil {
		return
	}
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
// restore-from-snapshot path: validate, create metric series, and add
// the node to the table under g.mu.
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
	// unregistered, so a node reads -1 once it is out of the listing.
	g.metrics.GaugeFunc("lod_registry_heartbeat_age_seconds",
		"Seconds since each node's last registration or heartbeat.",
		func() float64 {
			for _, n := range g.Nodes() {
				if n.ID == id {
					return n.HeartbeatAgeSec
				}
			}
			return -1
		},
		metrics.Label{Key: "node", Value: id})

	g.mu.Lock()
	defer g.mu.Unlock()
	g.pruneLocked()
	g.nodeRedirects[id] = redirects
	g.members.Add(g.clock.Now(), info, draining, restored)
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
	if !g.members.Heartbeat(g.clock.Now(), id, stats) {
		return ErrUnknownNode
	}
	return nil
}

// ReportFailure marks every node ref names (by node ID, URL, or URL
// host) dead right now, instead of letting it soak up redirects until
// its TTL runs out. It reports whether a live node was killed; reports
// about unknown, already-dead, or draining nodes are counted but
// otherwise ignored, so concurrent failing-over clients can all report
// the same corpse.
func (g *Registry) ReportFailure(ref string) bool {
	g.reports.Inc()
	g.mu.Lock()
	killed := g.members.Fail(ref)
	g.mu.Unlock()
	g.deathFailure.Add(int64(killed))
	return killed > 0
}

// Deregister marks a node draining — the graceful half of death, used
// by an edge shutting down so no client is redirected at it during its
// final seconds. The node stays listed (health "draining" in Nodes) so
// operators can watch the shutdown, then falls out entirely once it is
// due for pruning; only an explicit re-registration brings it back into
// rotation before that. Idempotent: draining an unknown or
// already-draining ID reports false.
func (g *Registry) Deregister(id string) bool {
	g.mu.Lock()
	marked := g.members.Drain(id)
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

// Nodes returns the state of every registered node, sorted by ID, with
// each node's health (alive/dead/draining) and heartbeat age — the
// per-node view GET /v1/registry/nodes serves and lodplay
// -server-status prints.
func (g *Registry) Nodes() []NodeStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members.List(g.clock.Now())
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
// snapshot through the store's Apply and returns the catalog
// version carrying the restore. Node membership is untouched and the
// version keeps growing; catalog.ErrNoSnapshot reports an unknown or
// pruned version.
func (g *Registry) RollbackCatalog(version uint64) (uint64, error) {
	st, err := g.store.Rollback(version)
	return st.Version, err
}

// PickFor selects the node serving key — a stream path in its
// unversioned form (proto.StreamPath), e.g. "/vod/lec-3", or "" for
// none — and counts the assignment. A keyed pick routes through the
// consistent-hash ring, so each asset concentrates on one edge and the
// cluster mirrors it once instead of once per edge; when the ring's
// node is dead, draining, expired, or excluded — or the key is empty —
// PickFor falls back to the least-loaded usable node (see
// membership.Table.Pick). Nodes named in exclude (by ID, URL, or URL
// host) are skipped, so a failing-over client is never bounced back to
// the node it just escaped; when every live node is excluded PickFor
// returns ErrNoNodes and the client should drop its stale exclusions
// and retry. Allocation-free.
func (g *Registry) PickFor(key string, exclude ...string) (NodeInfo, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.members.Pick(g.clock.Now(), key, exclude)
	switch c.Reason {
	case membership.RingHit:
		g.ringHits.Inc()
	case membership.Fallback:
		g.ringFallback.Inc()
	}
	if !c.Found {
		return NodeInfo{}, ErrNoNodes
	}
	g.nodeRedirects[c.Node.ID].Inc()
	if c.Restored {
		g.snapRedirects.Inc()
	}
	return c.Node, nil
}

// Handler returns the registry's HTTP interface, every route once under
// the /v1 prefix: the control-plane POSTs (register, heartbeat,
// report-failure, deregister, publish, unpublish, rollback; bodies are
// the proto DTOs), GET registry/nodes (the Nodes listing) and
// registry/catalog (the persisted bytes verbatim), the registry's own
// metrics and status, and a 307 redirect for every /v1/vod/, /v1/live/
// and /v1/group/ request to the edge PickFor chooses, path and query
// preserved — 503 when none is usable.
func (g *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	proto.Handle(mux, proto.PathRegister, http.HandlerFunc(g.handleRegister))
	proto.Handle(mux, proto.PathHeartbeat, http.HandlerFunc(g.handleHeartbeat))
	proto.Handle(mux, proto.PathReportFailure, http.HandlerFunc(g.handleReportFailure))
	proto.Handle(mux, proto.PathDeregister, http.HandlerFunc(g.handleDeregister))
	proto.Handle(mux, proto.PathNodes, http.HandlerFunc(g.handleNodes))
	proto.Handle(mux, proto.PathCatalog, http.HandlerFunc(g.handleCatalog))
	proto.Handle(mux, proto.PathCatalogPublish, http.HandlerFunc(g.handleCatalogPublish))
	proto.Handle(mux, proto.PathCatalogUnpublish, http.HandlerFunc(g.handleCatalogUnpublish))
	proto.Handle(mux, proto.PathCatalogRollback, http.HandlerFunc(g.handleCatalogRollback))
	proto.Handle(mux, proto.PrefixVOD, http.HandlerFunc(g.handleRedirect))
	proto.Handle(mux, proto.PrefixLive, http.HandlerFunc(g.handleRedirect))
	proto.Handle(mux, proto.PrefixGroup, http.HandlerFunc(g.handleRedirect))
	g.metrics.Expose(mux)
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
	_ = json.NewEncoder(w).Encode(g.Nodes())
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
	// The ring key is the unversioned escaped path (proto.StreamPath's
	// form, what PickFor's callers pass), and the query (seek offsets,
	// bandwidth) never splits an asset across nodes.
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
