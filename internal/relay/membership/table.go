// Package membership is the registry's decision core: one table of the
// cluster's edge nodes, the events that change it, and the redirect
// decision read off it. It reads no clock — every instant is an
// argument — and does no HTTP, metrics or disk I/O, so every decision
// can be tested without a server. relay.Registry is the shell: it holds
// the lock, reads the clock, counts the outcomes and persists the
// changes.
//
// A node is eligible for redirects unless it was reported dead or is
// draining; that one predicate decides ring membership. An eligible
// node is usable by a Pick while its last registration or heartbeat is
// within TTL and no exclude ref names it.
//
// A ref — in an exclude list or a failure report — names every node
// whose ID, URL or URL host equals it. The host is all a redirected
// client knows of its edge.
package membership

import (
	"net/url"
	"sort"
	"time"

	"repro/internal/proto"
)

// TTL is how long a node stays usable after its last registration or
// heartbeat.
const TTL = 15 * time.Second

// PruneAfterTTLs is how many TTLs a node may go unseen before Prune
// removes it. Dead and draining nodes stay listed for this grace window
// so operators can watch a shutdown, but a registry that outlives
// generations of edges on ephemeral addresses must not grow its table
// forever — draining marks rather than deletes, so pruning is the only
// removal path.
const PruneAfterTTLs = 4

// Reason says how Pick chose.
type Reason int

const (
	// Unkeyed: the pick had no key, or the ring was empty; the
	// least-loaded usable node was chosen.
	Unkeyed Reason = iota
	// RingHit: the key's ring owner was usable and chosen.
	RingHit
	// Fallback: the key's ring owner was dead, draining, expired or
	// excluded; the least-loaded usable node was chosen, if any.
	Fallback
)

// Choice is the outcome of one Pick.
type Choice struct {
	Node   proto.NodeInfo
	Found  bool // false: no node was usable
	Reason Reason
	// Restored reports that Node was restored from the durable snapshot
	// and has not registered or heartbeated since.
	Restored bool
}

type node struct {
	info           proto.NodeInfo
	host           string // info.URL's host
	stats          proto.NodeStats
	lastSeen       time.Time
	dead, draining bool
	// assigned counts picks since the last heartbeat, so a burst of
	// joins between heartbeats still spreads across edges.
	assigned int64
	restored bool
}

func (n *node) eligible() bool { return !n.dead && !n.draining }

func (n *node) load() float64 { return n.stats.Load() + float64(n.assigned) }

// is reports whether ref names n.
func (n *node) is(ref string) bool {
	return ref == n.info.ID || ref == n.info.URL || ref == n.host
}

func (n *node) usable(cut time.Time, exclude []string) bool {
	if !n.eligible() || n.lastSeen.Before(cut) {
		return false
	}
	for _, ref := range exclude {
		if n.is(ref) {
			return false
		}
	}
	return true
}

// Table is the node table. It has no lock: the caller serializes every
// call.
type Table struct {
	nodes map[string]*node
	ring  hashRing // over the eligible nodes
}

// New returns an empty table.
func New() *Table { return &Table{nodes: make(map[string]*node)} }

// reconcile rebuilds the ring when n's eligibility differs from was,
// its value before the caller's change.
func (t *Table) reconcile(n *node, was bool) {
	if n.eligible() != was {
		t.rebuildRing()
	}
}

func (t *Table) rebuildRing() {
	var members []*node
	for _, n := range t.nodes {
		if n.eligible() {
			members = append(members, n)
		}
	}
	t.ring = buildRing(members)
}

// Add inserts or refreshes a node at now: a re-registration may move it
// to a new URL, clears a death mark, and sets the draining and restored
// marks as given. Its load report and pending assignments carry over.
// The caller has checked that info has an ID and an absolute URL.
func (t *Table) Add(now time.Time, info proto.NodeInfo, draining, restored bool) {
	n, known := t.nodes[info.ID]
	if !known {
		n = &node{}
		t.nodes[info.ID] = n
	}
	was := known && n.eligible()
	n.info, n.host = info, ""
	if u, err := url.Parse(info.URL); err == nil {
		n.host = u.Host
	}
	n.lastSeen, n.dead, n.draining, n.restored = now, false, draining, restored
	t.reconcile(n, was)
}

// Heartbeat records a node's load report at now, revives it if dead
// and clears its restored mark. A draining node stays draining. It
// reports false for an unknown ID.
func (t *Table) Heartbeat(now time.Time, id string, stats proto.NodeStats) bool {
	n := t.nodes[id]
	if n == nil {
		return false
	}
	was := n.eligible()
	n.stats, n.assigned, n.lastSeen = stats, 0, now
	n.dead, n.restored = false, false
	t.reconcile(n, was)
	return true
}

// Fail marks dead every eligible node ref names and returns how many
// it marked.
func (t *Table) Fail(ref string) int {
	killed := 0
	for _, n := range t.nodes {
		if n.eligible() && n.is(ref) {
			n.dead = true
			killed++
		}
	}
	if killed > 0 {
		t.rebuildRing()
	}
	return killed
}

// Drain marks a node draining. It reports false for an unknown or
// already draining ID.
func (t *Table) Drain(id string) bool {
	n := t.nodes[id]
	if n == nil || n.draining {
		return false
	}
	was := n.eligible()
	n.draining = true
	t.reconcile(n, was)
	return true
}

func pruneCut(now time.Time) time.Time { return now.Add(-PruneAfterTTLs * TTL) }

// Prune removes the nodes unseen for PruneAfterTTLs TTLs at now and
// returns their IDs. A live node is never pruned: staying live takes
// heartbeats, and each refreshes it.
func (t *Table) Prune(now time.Time) []string {
	cut := pruneCut(now)
	var pruned []string
	for id, n := range t.nodes {
		if n.lastSeen.Before(cut) {
			delete(t.nodes, id)
			pruned = append(pruned, id)
		}
	}
	if pruned != nil {
		t.rebuildRing()
	}
	return pruned
}

// Pick chooses the node to serve key — a stream path, or "" for none —
// at now, skipping nodes any exclude ref names, and counts the choice
// as an assignment on the node. A keyed pick takes the key's ring owner
// when it is usable; otherwise, and for an unkeyed pick, the usable
// node least loaded by (load, ID). Zero allocations.
func (t *Table) Pick(now time.Time, key string, exclude []string) Choice {
	cut := now.Add(-TTL)
	var best *node
	reason := Unkeyed
	if key != "" {
		if owner := t.ring.pick(key); owner != nil {
			reason = Fallback
			if owner.usable(cut, exclude) {
				best, reason = owner, RingHit
			}
		}
	}
	if best == nil {
		for _, n := range t.nodes {
			if !n.usable(cut, exclude) {
				continue
			}
			if best == nil || n.load() < best.load() ||
				(n.load() == best.load() && n.info.ID < best.info.ID) {
				best = n
			}
		}
	}
	if best == nil {
		return Choice{Reason: reason}
	}
	best.assigned++
	return Choice{Node: best.info, Found: true, Reason: reason, Restored: best.restored}
}

// List returns every node's status at now, sorted by ID. Nodes due for
// pruning are left out.
func (t *Table) List(now time.Time) []proto.NodeStatus {
	cut, gone := now.Add(-TTL), pruneCut(now)
	out := make([]proto.NodeStatus, 0, len(t.nodes))
	for _, n := range t.nodes {
		if n.lastSeen.Before(gone) {
			continue
		}
		health := proto.HealthAlive
		switch {
		case n.draining:
			health = proto.HealthDraining
		case n.dead || n.lastSeen.Before(cut):
			health = proto.HealthDead
		}
		out = append(out, proto.NodeStatus{
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

// Alive counts the nodes usable at now by an unexcluded pick.
func (t *Table) Alive(now time.Time) int {
	cut, alive := now.Add(-TTL), 0
	for _, n := range t.nodes {
		if n.usable(cut, nil) {
			alive++
		}
	}
	return alive
}
