package relay

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/relay/membership"
	"repro/internal/vclock"
)

// ringTable builds a table of n live nodes, edge-1 … edge-n, for the
// ring properties: every pick below is a ring hit, so it reads the ring
// through the core's own Pick.
func ringTable(n int) (*membership.Table, []string) {
	t, ids := membership.New(), make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("edge-%d", i+1)
		t.Add(ringEpoch, NodeInfo{ID: ids[i], URL: "http://" + ids[i]}, false, false)
	}
	return t, ids
}

var ringEpoch = time.Unix(0, 0)

// ringOwner returns the node the ring assigns key, "" when none.
func ringOwner(t *membership.Table, key string) string {
	return t.Pick(ringEpoch, key, nil).Node.ID
}

// assetCorpus is a fixed, seeded corpus of stream paths — the keys the
// rebalance and balance properties are stated over.
func assetCorpus(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/vod/lec-%d-%d", i, rng.Intn(1<<20))
	}
	return out
}

// TestRingDistributionBalance states and checks the ring's balance
// bound: with 128 virtual nodes per edge, every edge's share of a large
// key corpus stays within the stated multiple of the ideal 1/n share.
// Table-driven and seeded, so a hash or vnode-count change that skews
// the ring fails loudly with the observed shares.
func TestRingDistributionBalance(t *testing.T) {
	cases := []struct {
		edges    int
		keys     int
		min, max float64 // acceptable share as a multiple of ideal 1/n
	}{
		{edges: 16, keys: 10000, min: 0.55, max: 1.45},
		{edges: 64, keys: 20000, min: 0.45, max: 1.65},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dedges", tc.edges), func(t *testing.T) {
			ring, _ := ringTable(tc.edges)
			counts := make(map[string]int)
			for _, key := range assetCorpus(tc.keys, 42) {
				id := ringOwner(ring, key)
				if id == "" {
					t.Fatal("pick returned nil on a populated ring")
				}
				counts[id]++
			}
			if len(counts) != tc.edges {
				t.Fatalf("only %d/%d edges own any keys", len(counts), tc.edges)
			}
			ideal := float64(tc.keys) / float64(tc.edges)
			for id, c := range counts {
				share := float64(c) / ideal
				if share < tc.min || share > tc.max {
					t.Errorf("%s owns %d keys (%.2f× ideal), want within [%.2f, %.2f]×",
						id, c, share, tc.min, tc.max)
				}
			}
		})
	}
}

// TestRingRebalanceStability checks the consistent-hashing contract on
// a fixed corpus: adding one edge to n remaps roughly 1/(n+1) of the
// keys and every remapped key lands on the newcomer; removing one edge
// (here by draining it) remaps exactly the removed edge's keys and
// nothing else.
func TestRingRebalanceStability(t *testing.T) {
	for _, edges := range []int{16, 64} {
		t.Run(fmt.Sprintf("%dedges", edges), func(t *testing.T) {
			corpus := assetCorpus(10000, 7)
			ring, ids := ringTable(edges)
			owners := func() map[string]string {
				m := make(map[string]string, len(corpus))
				for _, key := range corpus {
					m[key] = ringOwner(ring, key)
				}
				return m
			}
			base := owners()

			// Add one edge: only ~1/(n+1) of the corpus moves, all of it
			// to the new node.
			newcomer := fmt.Sprintf("edge-%d", edges+1)
			ring.Add(ringEpoch, NodeInfo{ID: newcomer, URL: "http://" + newcomer}, false, false)
			grown := owners()
			moved := 0
			for _, key := range corpus {
				was, is := base[key], grown[key]
				if was == is {
					continue
				}
				moved++
				if is != newcomer {
					t.Fatalf("key %q moved from %s to %s, not to the new edge", key, was, is)
				}
			}
			ideal := float64(len(corpus)) / float64(edges+1)
			if f := float64(moved); f < 0.4*ideal || f > 2.0*ideal {
				t.Errorf("adding an edge moved %d keys, want ~%.0f (0.4×–2.0×)", moved, ideal)
			}

			// Remove one edge: keys owned by survivors must not move.
			removed := ids[0]
			ring.Drain(removed)
			shrunk := owners()
			orphans := 0
			for _, key := range corpus {
				was := grown[key]
				if was == removed {
					orphans++
					continue
				}
				if is := shrunk[key]; is != was {
					t.Fatalf("key %q owned by %s moved to %s when %s was removed", key, was, is, removed)
				}
			}
			if orphans == 0 {
				t.Error("removed edge owned no keys; the removal property was vacuous")
			}
		})
	}
}

// TestRingEmptyAndSingle covers the degenerate rings.
func TestRingEmptyAndSingle(t *testing.T) {
	if c := membership.New().Pick(ringEpoch, "/vod/x", nil); c.Found {
		t.Fatalf("empty ring picked %v", c.Node)
	}
	ring, ids := ringTable(1)
	for _, key := range assetCorpus(100, 3) {
		if c := ring.Pick(ringEpoch, key, nil); c.Node.ID != ids[0] || c.Reason != membership.RingHit {
			t.Fatalf("single-node ring picked %+v", c)
		}
	}
}

// TestPickForKeyAffinity is the registry-level contract: the same
// stream path keeps landing on the same edge while it lives, falls
// back to a live node when its edge dies, and snaps back once the edge
// revives — the behaviour that concentrates each asset's mirror on one
// edge without giving up failover.
func TestPickForKeyAffinity(t *testing.T) {
	g := NewRegistry(nil)
	for i := 1; i <= 4; i++ {
		if err := g.Register(NodeInfo{ID: fmt.Sprintf("e%d", i), URL: fmt.Sprintf("http://edge-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	const key = "/vod/lec-0"
	first, err := g.PickFor(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := g.PickFor(key)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != first.ID {
			t.Fatalf("pick %d for %s = %s, want stable %s", i, key, got.ID, first.ID)
		}
	}

	// Different keys spread: 64 keys over 4 edges must not all map to one.
	targets := make(map[string]bool)
	for i := 0; i < 64; i++ {
		got, err := g.PickFor(fmt.Sprintf("/vod/lec-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		targets[got.ID] = true
	}
	if len(targets) < 2 {
		t.Fatalf("64 keys all landed on %v", targets)
	}

	// The preferred edge dies: the key falls back to a live node.
	if !g.ReportFailure(first.ID) {
		t.Fatalf("failure report for %s ignored", first.ID)
	}
	fallback, err := g.PickFor(key)
	if err != nil {
		t.Fatal(err)
	}
	if fallback.ID == first.ID {
		t.Fatalf("dead edge %s still picked", first.ID)
	}
	// Excluding the fallback too picks yet another node.
	third, err := g.PickFor(key, fallback.ID)
	if err != nil {
		t.Fatal(err)
	}
	if third.ID == first.ID || third.ID == fallback.ID {
		t.Fatalf("exclude ignored: got %s", third.ID)
	}

	// Revival restores the affinity.
	if err := g.Heartbeat(first.ID, NodeStats{}); err != nil {
		t.Fatal(err)
	}
	got, err := g.PickFor(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != first.ID {
		t.Fatalf("after revival pick = %s, want %s", got.ID, first.ID)
	}
}

// TestPickForExpiredPreferredFallsBack: a preferred node whose
// heartbeats stopped (TTL expiry, no death mark — the passive signal)
// must not be handed to clients just because it is still on the ring.
func TestPickForExpiredPreferredFallsBack(t *testing.T) {
	clk := vclock.NewVirtual()
	g := NewRegistry(clk)
	for i := 1; i <= 4; i++ {
		if err := g.Register(NodeInfo{ID: fmt.Sprintf("e%d", i), URL: fmt.Sprintf("http://edge-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	const key = "/vod/lec-0"
	preferred, err := g.PickFor(key)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(DefaultNodeTTL + time.Second)
	// Everyone but the preferred node heartbeats back to life.
	for i := 1; i <= 4; i++ {
		if id := fmt.Sprintf("e%d", i); id != preferred.ID {
			if err := g.Heartbeat(id, NodeStats{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := g.PickFor(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID == preferred.ID {
		t.Fatalf("TTL-expired preferred node %s still picked", preferred.ID)
	}
}

// TestPickForAllocFree is the allocation regression gate on the
// redirect hot path: a keyed pick with a populated exclude list must
// not allocate — the exclude refs are matched in place, and the ring
// lookup is a binary search over an immutable array.
func TestPickForAllocFree(t *testing.T) {
	g := NewRegistry(nil)
	for i := 1; i <= 16; i++ {
		if err := g.Register(NodeInfo{ID: fmt.Sprintf("e%d", i), URL: fmt.Sprintf("http://edge-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	exclude := []string{"edge-3", "e7"}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := g.PickFor("/vod/lec-5", exclude...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PickFor allocates %.1f per op, want 0", allocs)
	}
}

// TestRegistryRingChurnRace hammers the ring rebuilds: concurrent picks,
// heartbeats, kills, drains, and re-registrations must never tear the
// ring or trip the race detector (`make race` runs this under -race).
func TestRegistryRingChurnRace(t *testing.T) {
	g := NewRegistry(nil)
	const nodes = 8
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("e%d", i+1)
		if err := g.Register(NodeInfo{ID: ids[i], URL: fmt.Sprintf("http://edge-%d", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("/vod/lec-%d", rng.Intn(64))
				if rng.Intn(4) == 0 {
					_, _ = g.PickFor(key, ids[rng.Intn(nodes)])
				} else {
					_, _ = g.PickFor(key)
				}
			}
		}(int64(w))
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 300; i++ {
				id := ids[rng.Intn(nodes)]
				switch rng.Intn(4) {
				case 0:
					g.ReportFailure(id)
				case 1:
					_ = g.Heartbeat(id, NodeStats{ActiveClients: int64(rng.Intn(50))})
				case 2:
					g.Deregister(id)
				default:
					_ = g.Register(NodeInfo{ID: id, URL: "http://edge-" + id})
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// The structures stay consistent after the storm: revive everyone
	// and every node must be pickable again.
	for _, id := range ids {
		if err := g.Register(NodeInfo{ID: id, URL: "http://" + id + ".lod"}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool)
	for i := 0; i < 512; i++ {
		n, err := g.PickFor(fmt.Sprintf("/vod/lec-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		seen[n.ID] = true
	}
	if len(seen) < 2 {
		t.Fatalf("after churn only %v take traffic", seen)
	}
}
