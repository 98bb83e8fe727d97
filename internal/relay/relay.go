// Package relay implements the distributed origin→edge tier of the
// Lecture-on-Demand system: the paper's single streaming server scaled
// out to a cluster, as its §1 "distributed" deployment implies.
//
// Three roles cooperate:
//
//   - The origin is a plain streaming.Server holding the published assets
//     and live encoder channels.
//   - An Edge wraps its own streaming.Server and pulls content through
//     from the origin on first demand: live channels are subscribed once
//     over HTTP (/live/{channel}) and re-fanned-out locally, stored
//     assets are mirrored once (/fetch/{asset}) and then served from the
//     edge's memory, and multi-rate groups are mirrored variant by
//     variant (/groups).
//   - The Registry tracks the cluster's edges via registration and
//     periodic heartbeats carrying per-node load (ServerStats plus
//     admission-control reservations) and redirects incoming clients
//     (HTTP 307) to the least-loaded live edge. Load is compared on
//     reported bytes-in-flight — the summed declared bandwidth of the
//     node's active sessions — falling back to raw session count for
//     nodes that do not report it (see NodeStats.Load).
//
// Clients need no cluster awareness: they request /vod/... or /live/...
// from the registry and follow the redirect.
//
// The cluster is churn-tolerant: a client whose edge refuses the
// connection or severs the stream reports the node dead
// (POST /registry/report-failure) and retries through the registry,
// excluding the nodes it escaped (StreamFetcher); a draining node
// deregisters itself (POST /registry/deregister); and a dead node
// revives on its next heartbeat, so membership re-converges
// incrementally as edges die, restart, and rejoin.
//
// Both roles are observable: an Edge counts its mirror cache (hits,
// misses, evictions, admission rejects, resident and origin-pulled
// bytes) on its server's metrics registry, and the Registry counts
// redirects and exposes per-node heartbeat ages on its own
// (Registry.Metrics). When Edge.CacheBytes is set, internal/edgecache
// decides which mirrors go once the budget is exceeded, with in-use and
// grouped assets pinned — see Edge.
package relay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/proto"
	"repro/internal/streaming"
)

// Errors.
var (
	ErrNoNodes     = errors.New("relay: no live edge nodes")
	ErrUnknownNode = errors.New("relay: unknown node")
)

// The registry control-plane DTOs are defined once, in internal/proto
// (the wire contract); these aliases keep the relay API spelling that
// the rest of the tree grew up with.
type (
	// NodeInfo identifies one edge node in the cluster.
	NodeInfo = proto.NodeInfo
	// NodeStats is the load snapshot a node reports on each heartbeat;
	// its Load method is the balancing score Pick compares.
	NodeStats = proto.NodeStats
	// NodeStatus is the externally visible state of one registered
	// node, as served by GET /v1/registry/nodes.
	NodeStatus = proto.NodeStatus
)

// SnapshotStats reads a node's current load off its streaming server,
// including admission reservations when configured.
func SnapshotStats(srv *streaming.Server) NodeStats {
	st := srv.Stats()
	ns := NodeStats{
		ActiveClients: st.ActiveClients,
		PacketsSent:   st.PacketsSent,
		BytesSent:     st.BytesSent,
		InFlightBps:   st.InFlightBps,
	}
	if adm := srv.Admission; adm != nil {
		ns.ReservedBps = adm.Reserved()
		ns.CapacityBps = adm.CapacityBps
	}
	return ns
}

// httpError reports a non-2xx registry response with its status code, so
// callers can react to specific protocol statuses.
type httpError struct {
	URL    string
	Status int
	Msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("relay: %s: status %d: %s", e.URL, e.Status, e.Msg)
}

// IsNotFound reports whether err is a server answer saying the named
// thing does not exist (HTTP 404) — as opposed to a transport failure
// or a rejection. Unpublish tooling uses it to treat "already gone" as
// a skippable condition rather than a hard stop.
func IsNotFound(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.Status == http.StatusNotFound
}

func postJSON(client *http.Client, url string, v interface{}) error {
	_, err := postJSONVersioned(client, url, v)
	return err
}

// postJSONVersioned is postJSON returning the registry's catalog
// version header (0 when absent — older registries, non-registry
// targets).
func postJSONVersioned(client *http.Client, url string, v interface{}) (uint64, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		perr := proto.ReadError(resp) // closes the body
		return 0, &httpError{URL: url, Status: perr.Status, Msg: perr.Message}
	}
	ver, _ := proto.ParseCatalogVersion(resp.Header.Get(proto.CatalogVersionHeader))
	resp.Body.Close()
	return ver, nil
}

// RegisterWith announces the node to the registry at base. A nil client
// uses http.DefaultClient.
func RegisterWith(client *http.Client, base string, info NodeInfo) error {
	if client == nil {
		client = http.DefaultClient
	}
	return postJSON(client, base+proto.Versioned(proto.PathRegister), info)
}

// Heartbeat posts one load snapshot for the node to the registry at
// base, returning the registry's current catalog version (the
// CatalogVersionHeader on the answer; 0 from a pre-catalog registry) —
// the signal a node compares against its last synced version to decide
// whether to re-fetch the catalog. A registry that no longer knows the
// node (it restarted and lost its state) yields an error wrapping
// ErrUnknownNode: re-register and retry.
func Heartbeat(client *http.Client, base, id string, stats NodeStats) (uint64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	ver, err := postJSONVersioned(client, base+proto.Versioned(proto.PathHeartbeat), proto.HeartbeatMsg{ID: id, Stats: stats})
	var he *httpError
	if errors.As(err, &he) && he.Status == http.StatusNotFound {
		return 0, fmt.Errorf("%w: %v", ErrUnknownNode, err)
	}
	return ver, err
}

// ReportFailure tells the registry at base that the node named by ref
// (node ID, URL, or URL host — whichever the reporter knows) failed a
// fetch, so the registry marks it dead immediately instead of waiting
// out its TTL. A nil client uses http.DefaultClient.
func ReportFailure(client *http.Client, base, ref string) error {
	if client == nil {
		client = http.DefaultClient
	}
	return postJSON(client, base+proto.Versioned(proto.PathReportFailure), proto.FailureReport{Node: ref})
}

// Deregister tells the registry at base the node is draining — a
// draining edge calls this before it stops serving, so no client is
// redirected at it during shutdown. A nil client uses
// http.DefaultClient.
func Deregister(client *http.Client, base, id string) error {
	if client == nil {
		client = http.DefaultClient
	}
	return postJSON(client, base+proto.Versioned(proto.PathDeregister), proto.DeregisterMsg{ID: id})
}

// GetCatalog fetches the registry's published-content catalog. A nil
// client uses http.DefaultClient.
func GetCatalog(client *http.Client, base string) (proto.Catalog, error) {
	if client == nil {
		client = http.DefaultClient
	}
	url := base + proto.Versioned(proto.PathCatalog)
	resp, err := client.Get(url)
	if err != nil {
		return proto.Catalog{}, err
	}
	if resp.StatusCode != http.StatusOK {
		perr := proto.ReadError(resp) // closes the body
		return proto.Catalog{}, &httpError{URL: url, Status: perr.Status, Msg: perr.Message}
	}
	defer resp.Body.Close()
	var cat proto.Catalog
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		return proto.Catalog{}, fmt.Errorf("relay: decode catalog from %s: %w", url, err)
	}
	return cat, nil
}

// PublishCatalog records a publish (asset or group) in the registry's
// durable catalog and returns the catalog version carrying it. A nil
// client uses http.DefaultClient.
func PublishCatalog(client *http.Client, base string, msg proto.PublishMsg) (uint64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	return postJSONVersioned(client, base+proto.Versioned(proto.PathCatalogPublish), msg)
}

// UnpublishCatalog removes an entry from the registry's durable catalog
// and returns the catalog version carrying the removal. A nil client
// uses http.DefaultClient.
func UnpublishCatalog(client *http.Client, base string, msg proto.UnpublishMsg) (uint64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	return postJSONVersioned(client, base+proto.Versioned(proto.PathCatalogUnpublish), msg)
}

// RollbackCatalog asks the registry to restore the published content of
// a retained catalog snapshot (POST /v1/registry/rollback) and returns
// the catalog version carrying the restore. A pruned or unknown
// snapshot version is a 404 (IsNotFound). A nil client uses
// http.DefaultClient.
func RollbackCatalog(client *http.Client, base string, version uint64) (uint64, error) {
	if client == nil {
		client = http.DefaultClient
	}
	return postJSONVersioned(client, base+proto.Versioned(proto.PathCatalogRollback), proto.RollbackMsg{Version: version})
}

// PublishAsset uploads a container to a streaming server's live publish
// endpoint (POST /v1/publish/{name}), registering or replacing the
// asset under traffic. A nil client uses http.DefaultClient.
func PublishAsset(client *http.Client, base, name string, body io.Reader) error {
	if client == nil {
		client = http.DefaultClient
	}
	url := base + proto.Versioned(proto.RoutePath(proto.PrefixPublish, name))
	resp, err := client.Post(url, "application/octet-stream", body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		perr := proto.ReadError(resp) // closes the body
		return &httpError{URL: url, Status: perr.Status, Msg: perr.Message}
	}
	resp.Body.Close()
	return nil
}

// UnpublishAsset removes an asset (or rate group) from a streaming
// server via its live unpublish endpoint (POST /v1/unpublish/{name}).
// In-flight sessions finish; new opens 404. A nil client uses
// http.DefaultClient.
func UnpublishAsset(client *http.Client, base, name string) error {
	if client == nil {
		client = http.DefaultClient
	}
	url := base + proto.Versioned(proto.RoutePath(proto.PrefixUnpublish, name))
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		perr := proto.ReadError(resp) // closes the body
		return &httpError{URL: url, Status: perr.Status, Msg: perr.Message}
	}
	resp.Body.Close()
	return nil
}
