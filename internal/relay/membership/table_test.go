package membership

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/proto"
)

// model is a brute-force reference for Table: a plain map of node
// records and the rules stated in the package doc, with the ring owner
// found by scanning every vnode instead of searching a sorted ring.
type model struct {
	nodes  map[string]*modelNode
	vnodes map[string][]uint64 // node ID → its vnode positions
}

type modelNode struct {
	info                     proto.NodeInfo
	host                     string
	stats                    proto.NodeStats
	lastSeen                 time.Time
	dead, draining, restored bool
	assigned                 int64
}

func (m *model) names(n *modelNode, ref string) bool {
	return ref == n.info.ID || ref == n.info.URL || ref == n.host
}

func (m *model) usable(n *modelNode, now time.Time, exclude []string) bool {
	if n.dead || n.draining || now.Sub(n.lastSeen) > TTL {
		return false
	}
	for _, ref := range exclude {
		if m.names(n, ref) {
			return false
		}
	}
	return true
}

// owner is the eligible node with the vnode at the least clockwise
// distance from the key's hash; equal positions go to the lower ID.
func (m *model) owner(key string) *modelNode {
	h := fnv1a(key)
	var best *modelNode
	var bestDist uint64
	for id, n := range m.nodes {
		if n.dead || n.draining {
			continue
		}
		for _, v := range m.vnodes[id] {
			d := v - h // wraps: the clockwise distance on the 64-bit circle
			if best == nil || d < bestDist || (d == bestDist && id < best.info.ID) {
				best, bestDist = n, d
			}
		}
	}
	return best
}

func (m *model) pick(now time.Time, key string, exclude []string) Choice {
	reason := Unkeyed
	var best *modelNode
	if key != "" {
		if o := m.owner(key); o != nil {
			reason = Fallback
			if m.usable(o, now, exclude) {
				best, reason = o, RingHit
			}
		}
	}
	if best == nil {
		load := func(n *modelNode) float64 { return n.stats.Load() + float64(n.assigned) }
		for _, n := range m.nodes {
			if m.usable(n, now, exclude) && (best == nil || load(n) < load(best) ||
				(load(n) == load(best) && n.info.ID < best.info.ID)) {
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

// TestTableMatchesModel drives a Table and the model through the same
// seeded streams of adds, heartbeats, failure reports, drains, clock
// jumps past the TTL and the prune window, and prunes, with keyed and
// unkeyed picks under random exclude sets in between. Every outcome
// must agree, and no pick may return a dead, draining, expired or
// excluded node.
func TestTableMatchesModel(t *testing.T) {
	ids := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	// Fewer URLs than IDs, so one ref can name several nodes.
	urls := []string{"http://h0:80", "http://h1:80", "http://h2:80", "http://h3:80"}
	refs := append(append(append([]string{"ghost"}, ids...), urls...), "h0:80", "h1:80", "h2:80", "h3:80")
	vnodes := make(map[string][]uint64)
	for _, id := range ids {
		for v := 0; v < ringVnodes; v++ {
			vnodes[id] = append(vnodes[id], fnv1a(id+"#"+strconv.Itoa(v)))
		}
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, m := New(), &model{nodes: make(map[string]*modelNode), vnodes: vnodes}
		now := time.Unix(1_000_000, 0)
		for step := 0; step < 2000; step++ {
			id := ids[rng.Intn(len(ids))]
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 10: // add
				info := proto.NodeInfo{ID: id, URL: urls[rng.Intn(len(urls))]}
				draining, restored := rng.Intn(8) == 0, rng.Intn(4) == 0
				tab.Add(now, info, draining, restored)
				n := m.nodes[id]
				if n == nil {
					n = &modelNode{}
					m.nodes[id] = n
				}
				n.info, n.host = info, info.URL[len("http://"):]
				n.lastSeen, n.dead, n.draining, n.restored = now, false, draining, restored
			case op < 25: // heartbeat
				stats := proto.NodeStats{ActiveClients: int64(rng.Intn(4))}
				if rng.Intn(2) == 0 {
					stats.InFlightBps = int64(rng.Intn(3)) * 500_000
				}
				n := m.nodes[id]
				if got := tab.Heartbeat(now, id, stats); got != (n != nil) {
					t.Fatalf("%s: Heartbeat(%s) = %v, model knows it: %v", where, id, got, n != nil)
				}
				if n != nil {
					n.stats, n.assigned, n.lastSeen, n.dead, n.restored = stats, 0, now, false, false
				}
			case op < 30: // failure report
				ref := refs[rng.Intn(len(refs))]
				want := 0
				for _, n := range m.nodes {
					if !n.dead && !n.draining && m.names(n, ref) {
						n.dead = true
						want++
					}
				}
				if got := tab.Fail(ref); got != want {
					t.Fatalf("%s: Fail(%s) killed %d, model %d", where, ref, got, want)
				}
			case op < 33: // drain
				n := m.nodes[id]
				want := n != nil && !n.draining
				if want {
					n.draining = true
				}
				if got := tab.Drain(id); got != want {
					t.Fatalf("%s: Drain(%s) = %v, model %v", where, id, got, want)
				}
			case op < 40: // the clock moves, sometimes past the TTL or the prune window
				switch rng.Intn(10) {
				case 0:
					now = now.Add(PruneAfterTTLs*TTL + time.Second)
				case 1, 2, 3:
					now = now.Add(TTL + time.Second)
				default:
					now = now.Add(time.Duration(rng.Intn(5000)) * time.Millisecond)
				}
			case op < 43: // prune
				var want []string
				for nid, n := range m.nodes {
					if now.Sub(n.lastSeen) > PruneAfterTTLs*TTL {
						delete(m.nodes, nid)
						want = append(want, nid)
					}
				}
				got := tab.Prune(now)
				sort.Strings(got)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Prune = %v, model %v", where, got, want)
				}
			case op < 46: // the read views
				checkViews(t, where, tab, m, now)
			default: // pick
				key := ""
				if rng.Intn(5) > 0 {
					key = "/vod/lec-" + strconv.Itoa(rng.Intn(32))
				}
				var exclude []string
				for i := rng.Intn(3); i > 0; i-- {
					exclude = append(exclude, refs[rng.Intn(len(refs))])
				}
				want := m.pick(now, key, exclude)
				got := tab.Pick(now, key, exclude)
				if got != want {
					t.Fatalf("%s: Pick(%q, %v) = %+v, model %+v", where, key, exclude, got, want)
				}
				if n := m.nodes[got.Node.ID]; got.Found && (n.dead || n.draining || now.Sub(n.lastSeen) > TTL) {
					t.Fatalf("%s: Pick returned unusable node %+v", where, *n)
				}
				for _, ref := range exclude {
					if got.Found && m.names(m.nodes[got.Node.ID], ref) {
						t.Fatalf("%s: Pick returned %s, excluded by %q", where, got.Node.ID, ref)
					}
				}
			}
		}
	}
}

// checkViews compares List and Alive with the model: nodes due for
// pruning are out of every view.
func checkViews(t *testing.T, where string, tab *Table, m *model, now time.Time) {
	t.Helper()
	var want []proto.NodeStatus
	alive := 0
	for _, n := range m.nodes {
		age := now.Sub(n.lastSeen)
		if age > PruneAfterTTLs*TTL {
			continue
		}
		health := proto.HealthAlive
		switch {
		case n.draining:
			health = proto.HealthDraining
		case n.dead || age > TTL:
			health = proto.HealthDead
		default:
			alive++
		}
		want = append(want, proto.NodeStatus{
			NodeInfo: n.info, Stats: n.stats, Assigned: n.assigned,
			Load: n.stats.Load() + float64(n.assigned), Alive: health == proto.HealthAlive,
			Dead: n.dead, Health: health, HeartbeatAgeSec: age.Seconds(),
		})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	if got := tab.List(now); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: List =\n%+v\nmodel\n%+v", where, got, want)
	}
	if got := tab.Alive(now); got != alive {
		t.Fatalf("%s: Alive = %d, model %d", where, got, alive)
	}
}
