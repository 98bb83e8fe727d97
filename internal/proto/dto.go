package proto

// This file holds the typed JSON DTOs of the registry control plane —
// the messages edges, the registry, and clients marshal through. Both
// sides of every exchange use these types (relay.Registry's handlers
// decode them, the relay client helpers and internal/client encode
// them), so a field added or renamed here changes the whole cluster in
// one step.

// NodeInfo identifies one edge node in the cluster; it is the POST
// PathRegister body.
type NodeInfo struct {
	// ID names the node uniquely within the cluster.
	ID string `json:"id"`
	// URL is the node's advertised base URL, reachable by clients,
	// e.g. "http://10.0.0.2:8081".
	URL string `json:"url"`
}

// NodeStats is the load snapshot a node reports on each heartbeat.
type NodeStats struct {
	ActiveClients int64 `json:"activeClients"`
	// CapacityBps is the node's admission capacity (0: none set).
	CapacityBps int64 `json:"capacityBps"`
	PacketsSent int64 `json:"packetsSent"`
	BytesSent   int64 `json:"bytesSent"`
	// InFlightBps is the summed declared bandwidth of the node's active
	// sessions — the primary balancing signal, since one rich DSL
	// session costs the uplink more than several modem sessions.
	InFlightBps int64 `json:"inFlightBps"`
}

// Load folds the snapshot into one comparable score, lower meaning less
// loaded — the contract half of the registry's balancing: a node
// reporting bandwidth in flight is scored on it, in megabits/s so one
// unit is roughly one rich session (and comparable to the +1 the
// registry adds per unheartbeated redirect); nodes that report no
// in-flight bandwidth fall back to their raw session count. Either
// way, a node enforcing an admission capacity adds the fraction of
// that capacity in flight, so of two otherwise-equal nodes the one
// closer to its budget ranks as more loaded.
func (s NodeStats) Load() float64 {
	var load float64
	if s.InFlightBps > 0 {
		load = float64(s.InFlightBps) / 1e6
	} else {
		load = float64(s.ActiveClients)
	}
	if s.CapacityBps > 0 {
		load += float64(s.InFlightBps) / float64(s.CapacityBps)
	}
	return load
}

// Node health labels reported in NodeStatus.Health.
const (
	// HealthAlive: within its heartbeat TTL and carrying no death mark;
	// eligible for redirects.
	HealthAlive = "alive"
	// HealthDead: a client reported a failed fetch, or the heartbeats
	// went silent past the TTL. Revived by the next heartbeat.
	HealthDead = "dead"
	// HealthDraining: the node deregistered for a graceful shutdown; it
	// finishes its in-flight sessions but takes no new redirects.
	// Revived only by an explicit re-registration.
	HealthDraining = "draining"
)

// NodeStatus is the externally visible state of one registered node,
// the GET PathNodes element type.
type NodeStatus struct {
	NodeInfo
	Stats NodeStats `json:"stats"`
	// Assigned is the number of redirects issued since the node's last
	// heartbeat.
	Assigned int64 `json:"assigned"`
	// Load is the score redirects are balanced on (lower wins).
	Load float64 `json:"load"`
	// Alive reports whether the node is eligible for redirects
	// (Health == HealthAlive).
	Alive bool `json:"alive"`
	// Dead reports an active death mark (failure report) that the next
	// heartbeat will clear.
	Dead bool `json:"dead,omitempty"`
	// Health folds liveness into one label: alive, dead, or draining.
	Health string `json:"health"`
	// HeartbeatAgeSec is how long ago the node last registered or
	// heartbeated, in seconds.
	HeartbeatAgeSec float64 `json:"heartbeatAgeSec"`
}

// HeartbeatMsg is the POST PathHeartbeat body: one node's load
// snapshot.
type HeartbeatMsg struct {
	ID    string    `json:"id"`
	Stats NodeStats `json:"stats"`
}

// FailureReport is the POST PathReportFailure body. Node names the
// failed edge by node ID, URL, or URL host — whichever the reporting
// client knows.
type FailureReport struct {
	Node string `json:"node"`
}

// DeregisterMsg is the POST PathDeregister body: a graceful removal
// for a draining node.
type DeregisterMsg struct {
	ID string `json:"id"`
}

// CatalogAsset is one published stored asset in the cluster catalog.
type CatalogAsset struct {
	Name string `json:"name"`
	// Rev is the catalog version at which this entry was last published.
	// A republish under the same name bumps it, which is what tells an
	// edge that a mirrored copy went stale even though the name is
	// unchanged.
	Rev uint64 `json:"rev"`
}

// CatalogGroup is one published multi-rate group in the cluster
// catalog. Variants lists its member asset names lean-to-rich.
type CatalogGroup struct {
	Name     string   `json:"name"`
	Variants []string `json:"variants"`
	Rev      uint64   `json:"rev"`
}

// Catalog is the GET PathCatalog body: the full published-content
// listing at one version. Version is the registry's catalog version
// (the CatalogVersionHeader value), which also moves on node-membership
// changes — so entries carry their own Rev and consumers diff on those,
// not on Version alone.
type Catalog struct {
	Version uint64         `json:"version"`
	Assets  []CatalogAsset `json:"assets"`
	Groups  []CatalogGroup `json:"groups"`
}

// PublishMsg is the POST PathCatalogPublish body. Exactly one of Asset
// or Group is set; the Rev fields are assigned by the registry and
// ignored on input.
type PublishMsg struct {
	Asset *CatalogAsset `json:"asset,omitempty"`
	Group *CatalogGroup `json:"group,omitempty"`
}

// UnpublishMsg is the POST PathCatalogUnpublish body. Exactly one of
// Asset or Group names the entry to remove.
type UnpublishMsg struct {
	Asset string `json:"asset,omitempty"`
	Group string `json:"group,omitempty"`
}

// RollbackMsg is the POST PathCatalogRollback body: Version names the
// on-disk catalog snapshot whose published content (assets and groups)
// is restored. Node membership is untouched, and the restore lands as
// a fresh mutation — the catalog version keeps growing. Only retained
// snapshots qualify; rolling back to a pruned version is a 404.
type RollbackMsg struct {
	Version uint64 `json:"version"`
}
