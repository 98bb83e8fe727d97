// Package proto is the single source of truth for the Lecture-on-Demand
// wire contract: the HTTP routes every role serves, the query parameters
// and headers clients send, the JSON DTOs the registry control plane
// exchanges, and the JSON error body all /v1 endpoints return.
//
// Before this package the contract existed only as string literals
// scattered across streaming, relay, and the cmds; every new
// consumer re-derived it by reading handlers. Now servers mount routes
// through Handle, clients build paths through StreamPath, and both
// sides marshal control-plane messages through the DTO types — so the
// contract can only change here, in one reviewable place. The
// `wirecontract` analyzer (`make lint`) enforces that: raw route
// literals outside this package fail the build.
//
// # Versioning
//
// The current API generation is Version ("v1"). Every endpoint serves
// under the VersionPrefix ("/v1/vod/..., /v1/registry/nodes, ...") and
// nowhere else: Handle mounts each route once, at its /v1 path. The
// route constants below are the unversioned paths; Versioned turns one
// into what is mounted and requested, and Unversioned strips the prefix
// again where a path is a key (the registry's ring) rather than a route.
//
// # Ranges
//
// A stored response (/v1/vod, /v1/group) carries a strong ETag derived
// from the asset's bytes, so every node holding the same asset sends the
// same tag. A client whose body was cut after n bytes asks any node for
// the same target again with Range: FormatRange(n) and If-Range: that
// tag. A node holding the same asset answers 206, Content-Range
// bytes n-(L-1)/L, with the body from byte n on. Anything else gets the
// whole body, a 200 (RFC 9110 §14), which tells the client the stream it
// was reading is gone. /v1/fetch ignores Range.
package proto

import (
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Version is the current API generation; VersionPrefix is its path
// prefix, which every mounted route carries.
const (
	Version       = "v1"
	VersionPrefix = "/" + Version
)

// StreamKind names one streaming route family.
type StreamKind string

// The streaming route families.
const (
	// StreamVOD replays a stored container, paced by packet send times.
	StreamVOD StreamKind = "vod"
	// StreamLive joins a live broadcast channel.
	StreamLive StreamKind = "live"
	// StreamGroup selects the richest variant of a multi-rate group
	// fitting the declared bandwidth, then streams it like VOD.
	StreamGroup StreamKind = "group"
	// StreamFetch transfers a whole stored container unpaced — the
	// origin→edge mirror path, not a viewer stream.
	StreamFetch StreamKind = "fetch"
)

// Route prefixes of the streaming endpoints. The path segment after the
// prefix is the percent-encoded asset/channel/group name.
const (
	PrefixVOD   = "/vod/"
	PrefixLive  = "/live/"
	PrefixGroup = "/group/"
	PrefixFetch = "/fetch/"
)

// JSON listing endpoints of the streaming server.
const (
	PathAssets   = "/assets"
	PathChannels = "/channels"
	PathGroups   = "/groups"
)

// Registry control-plane endpoints. The POST bodies are the DTO types
// in this package (NodeInfo, HeartbeatMsg, FailureReport,
// DeregisterMsg); GET PathNodes returns []NodeStatus.
const (
	PathRegister      = "/registry/register"
	PathHeartbeat     = "/registry/heartbeat"
	PathReportFailure = "/registry/report-failure"
	PathDeregister    = "/registry/deregister"
	PathNodes         = "/registry/nodes"
)

// Registry catalog endpoints: the durable, versioned record of what is
// published on the cluster. GET PathCatalog returns a Catalog; the POST
// bodies of PathCatalogPublish/PathCatalogUnpublish/PathCatalogRollback
// are PublishMsg, UnpublishMsg, and RollbackMsg. Every catalog
// mutation bumps the version carried in CatalogVersionHeader — a
// rollback restores an earlier snapshot's content under a new, higher
// version, so the version header only ever grows.
const (
	PathCatalog          = "/registry/catalog"
	PathCatalogPublish   = "/registry/publish"
	PathCatalogUnpublish = "/registry/unpublish"
	PathCatalogRollback  = "/registry/rollback"
)

// Content-publication endpoints of the streaming server: POST
// PrefixPublish{name} with a container body registers (or replaces) the
// named asset live — in-flight sessions of the old content finish,
// new opens get the new bytes; POST PrefixUnpublish{name} removes an
// asset or rate group. The path segment after the prefix is the
// percent-encoded name, exactly like the streaming routes.
const (
	PrefixPublish   = "/publish/"
	PrefixUnpublish = "/unpublish/"
)

// Observability endpoints every role serves (internal/metrics mounts
// them): Prometheus text and a flat JSON snapshot.
const (
	PathMetrics = "/metrics"
	PathStatus  = "/status"
)

// Query parameters of the streaming endpoints.
const (
	// ParamStart seeks a stored stream to a presentation offset (a Go
	// duration, e.g. start=30s). See FormatStart/ParseStart.
	ParamStart = "start"
	// ParamBandwidth declares the client's link bandwidth in bits/s on a
	// group request; the server streams the richest variant that fits.
	ParamBandwidth = "bw"
)

// ExcludeHeader is the request header a failing-over client sets on its
// registry request to name edge hosts (or node IDs) it must not be
// redirected back to — the nodes it just escaped. Values are
// comma-separated; see JoinExclude/SplitExclude.
const ExcludeHeader = "X-Lod-Exclude"

// CatalogVersionHeader is the response header the registry sets on
// heartbeat, redirect, and catalog responses: the current catalog
// version, a decimal uint64 that only ever grows. Edges compare it
// against the version they last synced and re-fetch PathCatalog when it
// moved, invalidating mirrored copies whose entries changed. See
// FormatCatalogVersion/ParseCatalogVersion.
const CatalogVersionHeader = "X-Lod-Catalog-Version"

// Prefix returns the route prefix of a stream kind.
func Prefix(k StreamKind) string {
	switch k {
	case StreamLive:
		return PrefixLive
	case StreamGroup:
		return PrefixGroup
	case StreamFetch:
		return PrefixFetch
	default:
		return PrefixVOD
	}
}

// StreamPath builds the unversioned path of a named stream,
// percent-encoding the name so assets called "week 1/intro" or
// containing ?/# survive the URL. Handlers decode it back; servers see
// the original name. Versioned(StreamPath(...)) is the request path;
// StreamPath alone is the registry's ring key (Registry.PickFor).
func StreamPath(k StreamKind, name string) string {
	return Prefix(k) + url.PathEscape(name)
}

// Versioned returns the /v1 form of an unversioned route path.
func Versioned(path string) string { return VersionPrefix + path }

// Unversioned strips the /v1 prefix from a path, returning a path
// without it unchanged. The registry keys its ring on the result, and
// the name extractors below go through it, so they read a stream path
// whether or not it carries the prefix.
func Unversioned(path string) string {
	if path == VersionPrefix {
		return "/"
	}
	if strings.HasPrefix(path, VersionPrefix+"/") {
		return strings.TrimPrefix(path, VersionPrefix)
	}
	return path
}

// StreamName extracts the stream name from a decoded request path of
// the given kind.
func StreamName(path string, k StreamKind) string {
	return strings.TrimPrefix(Unversioned(path), Prefix(k))
}

// SplitStreamPath recognizes a decoded path as one of the streaming
// routes, with or without the /v1 prefix, and splits it into kind and
// name. It reports false for non-stream paths and empty names.
func SplitStreamPath(path string) (StreamKind, string, bool) {
	p := Unversioned(path)
	for _, k := range []StreamKind{StreamVOD, StreamLive, StreamGroup, StreamFetch} {
		if rest := strings.TrimPrefix(p, Prefix(k)); rest != p {
			return k, rest, rest != ""
		}
	}
	return "", "", false
}

// Handle mounts h on mux at the /v1 form of path, the only form a route
// is served under; the unversioned path gets the mux's plain 404.
func Handle(mux *http.ServeMux, path string, h http.Handler) {
	mux.Handle(Versioned(path), h)
}

// DefaultClient is the HTTP client every role uses when its caller
// supplies none: a connection must be made within 5 s and a response's
// headers must arrive within 10 s. There is no overall timeout, because
// a lecture body streams for as long as the lecture.
var DefaultClient = &http.Client{Transport: defaultTransport()}

func defaultTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DialContext = (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext
	t.ResponseHeaderTimeout = 10 * time.Second
	return t
}

// FormatStart renders a seek offset as the canonical ParamStart
// value (integer milliseconds, e.g. "1500ms").
func FormatStart(at time.Duration) string {
	return strconv.FormatInt(at.Milliseconds(), 10) + "ms"
}

// ParseStart parses a ParamStart value: a non-negative Go duration.
// Malformed or negative values are errors — servers answer them with
// 400 and an Error body rather than guessing.
func ParseStart(raw string) (time.Duration, error) {
	at, err := time.ParseDuration(raw)
	if err != nil {
		return 0, &Error{Status: http.StatusBadRequest,
			Message: "bad " + ParamStart + " parameter " + strconv.Quote(raw) + ": want a duration like 30s"}
	}
	if at < 0 {
		return 0, &Error{Status: http.StatusBadRequest,
			Message: "bad " + ParamStart + " parameter " + strconv.Quote(raw) + ": must not be negative"}
	}
	return at, nil
}

// FormatRange renders the one Range form servers honour: the open-ended
// bytes=n-, the body from byte n on.
func FormatRange(n int64) string { return "bytes=" + strconv.FormatInt(n, 10) + "-" }

// ParseRange parses a Range value of the FormatRange form. Any other
// form — bounded (bytes=n-m), suffix (bytes=-n), several ranges, another
// unit, a malformed or out-of-range offset — is not ok.
func ParseRange(raw string) (int64, bool) {
	digits, ok := strings.CutPrefix(raw, "bytes=")
	digits, open := strings.CutSuffix(digits, "-")
	if !ok || !open || digits == "" || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// ParseBandwidth parses a ParamBandwidth value: a positive bits/s
// integer.
func ParseBandwidth(raw string) (int64, error) {
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v <= 0 {
		return 0, &Error{Status: http.StatusBadRequest,
			Message: "bad " + ParamBandwidth + " parameter " + strconv.Quote(raw) + ": want positive bits/s"}
	}
	return v, nil
}

// RoutePath builds the request path for a named resource under one of
// the control prefixes (PrefixPublish, PrefixUnpublish),
// percent-encoding the name like StreamPath does. Versioned(RoutePath(...))
// is the request path.
func RoutePath(prefix, name string) string {
	return prefix + url.PathEscape(name)
}

// RouteName extracts the resource name following prefix from a decoded
// request path — the handler-side inverse of Versioned(RoutePath(...)).
func RouteName(path, prefix string) string {
	return strings.TrimPrefix(Unversioned(path), prefix)
}

// FormatCatalogVersion renders a catalog version as the
// CatalogVersionHeader value.
func FormatCatalogVersion(v uint64) string { return strconv.FormatUint(v, 10) }

// ParseCatalogVersion parses a CatalogVersionHeader value, reporting
// false for an absent or malformed header (clients treat either as
// "version unknown" and skip the sync).
func ParseCatalogVersion(raw string) (uint64, bool) {
	if raw == "" {
		return 0, false
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// JoinExclude renders an exclude list as the ExcludeHeader value.
func JoinExclude(refs []string) string { return strings.Join(refs, ",") }

// SplitExclude parses an ExcludeHeader value, dropping empty entries
// and surrounding whitespace.
func SplitExclude(raw string) []string {
	var out []string
	for _, ref := range strings.Split(raw, ",") {
		if ref = strings.TrimSpace(ref); ref != "" {
			out = append(out, ref)
		}
	}
	return out
}
