package relay

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/proto"
	"repro/internal/vclock"
)

// Heartbeats is a node's registry membership loop: register, post load
// snapshots every Interval, rejoin after a registry restart, and
// surface catalog-version movement to the node.
//
// The loop survives registry downtime: transport-level registration
// failures retry with bounded exponential backoff (vclock.Backoff from
// registerBackoff on the loop's Clock), and heartbeat failures simply
// retry on the next tick; only a protocol rejection of the registration
// itself (a 4xx — the registry understood us and said no) is fatal,
// since retrying a malformed NodeInfo can never succeed. Every call
// carries Run's ctx, so cancelling it also ends a call in flight.
type Heartbeats struct {
	// Client for all registry calls; nil uses proto.DefaultClient.
	Client *http.Client
	// Registry is the registry's base URL.
	Registry string
	// Info identifies this node; it is re-sent on every (re)registration.
	Info NodeInfo
	// Snapshot produces the load snapshot each heartbeat posts.
	Snapshot func() NodeStats
	// Interval between heartbeats; <= 0 defaults to 5s.
	Interval time.Duration
	// Clock paces the loop (ticks and registration backoff); nil is the
	// real clock.
	Clock vclock.Clock
	// OnCatalog, when set, is called from the loop whenever the
	// registry's catalog version (carried on every heartbeat answer)
	// exceeds the largest version previously observed — the node's cue
	// to re-fetch the catalog (Edge.SyncCatalogFrom). Never called
	// concurrently with itself.
	OnCatalog func(version uint64)
}

// registerBackoff is the base of the bounded exponential backoff between
// registration retries.
const registerBackoff = 100 * time.Millisecond

// Run drives the loop until ctx is cancelled. The first registration is
// retried through registry downtime as described on Heartbeats; once
// registered, a snapshot is posted immediately — the registry balances
// on the node's real load from its very first redirect instead of
// scoring the newcomer zero for a whole interval (without it, a swarm
// of joins arriving right after an edge registers piles onto the
// newcomer). The same applies after a registry restart: the loop
// re-registers on ErrUnknownNode and posts an immediate snapshot.
//
// Run does not deregister on cancellation: a draining caller that wants
// the registry told right away calls Deregister itself (cmd/lodserver
// does on SIGTERM), while a crash simulation cancels silently and lets
// death detection do its job.
func (h *Heartbeats) Run(ctx context.Context) error {
	clock := h.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	interval := h.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if err := h.register(ctx, clock); err != nil {
		return err
	}
	var lastCatalog uint64
	h.beat(ctx, &lastCatalog)
	for clock.SleepUntil(ctx, clock.Now().Add(interval)) {
		err := h.beat(ctx, &lastCatalog)
		// Rejoin only while the node is actually staying up: once ctx is
		// cancelled the node is shutting down, and a heartbeat that raced
		// a deliberate Deregister must not resurrect the entry.
		if errors.Is(err, ErrUnknownNode) && ctx.Err() == nil {
			// The registry restarted without its durable state (or pruned
			// us); rejoin so the cluster keeps routing clients here, with
			// an immediate snapshot for the same score-from-real-load
			// reason as at startup. Transport failures here retry on the
			// next tick rather than blocking the beat cadence in a
			// backoff sleep.
			if RegisterWith(ctx, h.Client, h.Registry, h.Info) == nil {
				_ = h.beat(ctx, &lastCatalog)
			}
		}
	}
	return ctx.Err()
}

// register announces the node, retrying transport failures with bounded
// exponential backoff until ctx is cancelled. Only a protocol rejection
// (4xx) is returned as fatal.
func (h *Heartbeats) register(ctx context.Context, clock vclock.Clock) error {
	for attempt := 1; ; attempt++ {
		err := RegisterWith(ctx, h.Client, h.Registry, h.Info)
		if err == nil {
			return nil
		}
		var perr *proto.Error
		if errors.As(err, &perr) && perr.Status >= 400 && perr.Status < 500 {
			return err
		}
		if !clock.SleepUntil(ctx, clock.Now().Add(vclock.Backoff(registerBackoff, attempt))) {
			return ctx.Err()
		}
	}
}

// beat posts one snapshot and relays a grown catalog version to
// OnCatalog.
func (h *Heartbeats) beat(ctx context.Context, lastCatalog *uint64) error {
	ver, err := Heartbeat(ctx, h.Client, h.Registry, h.Info.ID, h.Snapshot())
	if err != nil {
		return err
	}
	if ver > *lastCatalog {
		*lastCatalog = ver
		if h.OnCatalog != nil {
			h.OnCatalog(ver)
		}
	}
	return nil
}
