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
//     over HTTP (/v1/live/{channel}) and re-fanned-out locally, stored
//     assets are mirrored once (/v1/fetch/{asset}) and then served from
//     the edge's memory, and multi-rate groups are mirrored variant by
//     variant (/v1/groups).
//   - The Registry tracks the cluster's edges via registration and
//     periodic heartbeats carrying per-node load (NodeStats.Load) and
//     redirects incoming clients (HTTP 307) to an edge: the stream's
//     owner on a consistent-hash ring, or the least-loaded live edge
//     when that one is down. Every such decision is made by the
//     clock-free, HTTP-free core in relay/membership; the Registry is
//     its shell (lock, clock, metrics, durable store, routes).
//
// Clients need no cluster awareness: they request /v1/vod/... or
// /v1/live/... from the registry and follow the redirect. The client half — resolve,
// fail over, continue a cut body by byte range — is internal/client; this package is the server
// tier only and imports neither the SDK nor the player.
//
// The cluster is churn-tolerant: a client whose edge refuses the
// connection or severs the stream reports the node dead
// (POST /v1/registry/report-failure) and retries through the registry,
// excluding the nodes it escaped (proto.ExcludeHeader); a draining node
// deregisters itself (POST /v1/registry/deregister); and a dead node
// revives on its next heartbeat. The control-plane helpers below take
// the caller's context and default to proto.DefaultClient, so no edge
// waits forever on a registry that stopped answering.
//
// Both roles are observable on their metrics registries (the Edge's
// mirror cache on its server's, the Registry's redirects and node ages
// on Registry.Metrics), each served by the role's own Handler. When Edge.CacheBytes is set, internal/edgecache
// decides which mirrors go once the budget is exceeded — see Edge.
package relay

import (
	"bytes"
	"context"
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
	// its Load method is the balancing score PickFor compares.
	NodeStats = proto.NodeStats
	// NodeStatus is the externally visible state of one registered
	// node, as served by GET /v1/registry/nodes.
	NodeStatus = proto.NodeStatus
)

// SnapshotStats reads a node's current load off its streaming server:
// the bandwidth in flight and the capacity admission checks it against,
// so the registry judges a node full by the node's own numbers.
func SnapshotStats(srv *streaming.Server) NodeStats {
	st := srv.Stats()
	return NodeStats{
		ActiveClients: st.ActiveClients,
		CapacityBps:   srv.CapacityBps,
		PacketsSent:   st.PacketsSent,
		BytesSent:     st.BytesSent,
		InFlightBps:   st.InFlightBps,
	}
}

// IsNotFound reports whether err is a server answer saying the named
// thing does not exist (HTTP 404) — as opposed to a transport failure
// or a rejection. Unpublish tooling uses it to treat "already gone" as
// a skippable condition rather than a hard stop.
func IsNotFound(err error) bool {
	var perr *proto.Error
	return errors.As(err, &perr) && perr.Status == http.StatusNotFound
}

// call sends one control-plane request and returns the answer's
// catalog version header (0 when absent — non-registry targets). Any
// answer but 200 or 204 is an error wrapping its *proto.Error body;
// a 200's JSON body is decoded into out when out is non-nil. A nil
// client uses proto.DefaultClient.
func call(ctx context.Context, client *http.Client, method, url, contentType string, body io.Reader, out any) (uint64, error) {
	if client == nil {
		client = proto.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return 0, fmt.Errorf("relay: %s: %w", url, proto.ReadError(resp)) // closes the body
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, fmt.Errorf("relay: decode answer from %s: %w", url, err)
		}
	}
	ver, _ := proto.ParseCatalogVersion(resp.Header.Get(proto.CatalogVersionHeader))
	return ver, nil
}

func postJSON(ctx context.Context, client *http.Client, url string, v any) (uint64, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return call(ctx, client, http.MethodPost, url, "application/json", bytes.NewReader(body), nil)
}

// The helpers below speak the registry's and the origin's control
// routes; a nil client uses proto.DefaultClient.

// RegisterWith announces the node to the registry at base.
func RegisterWith(ctx context.Context, client *http.Client, base string, info NodeInfo) error {
	_, err := postJSON(ctx, client, base+proto.Versioned(proto.PathRegister), info)
	return err
}

// Heartbeat posts one load snapshot for the node to the registry at
// base, returning the registry's current catalog version (the
// CatalogVersionHeader on the answer; 0 from a pre-catalog registry) —
// the signal a node compares against its last synced version to decide
// whether to re-fetch the catalog. A registry that no longer knows the
// node (it restarted and lost its state) yields an error wrapping
// ErrUnknownNode: re-register and retry.
func Heartbeat(ctx context.Context, client *http.Client, base, id string, stats NodeStats) (uint64, error) {
	ver, err := postJSON(ctx, client, base+proto.Versioned(proto.PathHeartbeat), proto.HeartbeatMsg{ID: id, Stats: stats})
	if IsNotFound(err) {
		return 0, fmt.Errorf("%w: %v", ErrUnknownNode, err)
	}
	return ver, err
}

// Deregister tells the registry at base the node is draining — a
// draining edge calls this before it stops serving, so no client is
// redirected at it during shutdown.
func Deregister(ctx context.Context, client *http.Client, base, id string) error {
	_, err := postJSON(ctx, client, base+proto.Versioned(proto.PathDeregister), proto.DeregisterMsg{ID: id})
	return err
}

// GetCatalog fetches the registry's published-content catalog.
func GetCatalog(ctx context.Context, client *http.Client, base string) (proto.Catalog, error) {
	var cat proto.Catalog
	_, err := call(ctx, client, http.MethodGet, base+proto.Versioned(proto.PathCatalog), "", nil, &cat)
	return cat, err
}

// PublishCatalog records a publish (asset or group) in the registry's
// durable catalog and returns the catalog version carrying it.
func PublishCatalog(ctx context.Context, client *http.Client, base string, msg proto.PublishMsg) (uint64, error) {
	return postJSON(ctx, client, base+proto.Versioned(proto.PathCatalogPublish), msg)
}

// UnpublishCatalog removes an entry from the registry's durable catalog
// and returns the catalog version carrying the removal.
func UnpublishCatalog(ctx context.Context, client *http.Client, base string, msg proto.UnpublishMsg) (uint64, error) {
	return postJSON(ctx, client, base+proto.Versioned(proto.PathCatalogUnpublish), msg)
}

// RollbackCatalog asks the registry to restore the published content of
// a retained catalog snapshot (POST /v1/registry/rollback) and returns
// the catalog version carrying the restore. A pruned or unknown
// snapshot version is a 404 (IsNotFound).
func RollbackCatalog(ctx context.Context, client *http.Client, base string, version uint64) (uint64, error) {
	return postJSON(ctx, client, base+proto.Versioned(proto.PathCatalogRollback), proto.RollbackMsg{Version: version})
}

// PublishAsset uploads a container to a streaming server's live publish
// endpoint (POST /v1/publish/{name}), registering or replacing the
// asset under traffic.
func PublishAsset(ctx context.Context, client *http.Client, base, name string, body io.Reader) error {
	_, err := call(ctx, client, http.MethodPost, base+proto.Versioned(proto.RoutePath(proto.PrefixPublish, name)), "application/octet-stream", body, nil)
	return err
}

// UnpublishAsset removes an asset (or rate group) from a streaming
// server via its live unpublish endpoint (POST /v1/unpublish/{name}).
// In-flight sessions finish; new opens 404.
func UnpublishAsset(ctx context.Context, client *http.Client, base, name string) error {
	_, err := call(ctx, client, http.MethodPost, base+proto.Versioned(proto.RoutePath(proto.PrefixUnpublish, name)), "application/json", nil, nil)
	return err
}
