package edgecache

import (
	"math/rand"
	"slices"
	"testing"
)

// names returns the resident names, most recent first, window segment
// before main.
func (c *Cache) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, l := range []*entryList{&c.window, &c.main} {
		for e := l.front; e != nil; e = e.next {
			out = append(out, e.name)
		}
	}
	return out
}

// resident reports whether name is booked as resident.
func (c *Cache) resident(name string) bool { return slices.Contains(c.names(), name) }

// With nothing promoted yet the window gives ground in recency order.
func TestWindowEvictsByRecency(t *testing.T) {
	c := New(Config{})
	c.Add("a", 1)
	c.Add("b", 1)
	c.Add("c", 1)
	c.Touch("a") // a becomes most recent: order a, c, b

	evicted, rejected := c.Enforce(2, "", nil)
	if len(rejected) != 0 {
		t.Fatalf("rejected %v, want none", rejected)
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if got := c.names(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("names = %v, want [a c]", got)
	}
}

func TestReAddRefreshesSize(t *testing.T) {
	c := New(Config{})
	c.Add("a", 10)
	c.Add("b", 1)
	c.Add("a", 4) // size shrinks, recency bumps
	if got := c.Bytes(); got != 5 {
		t.Fatalf("bytes = %d, want 5", got)
	}
	if got := c.names(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("names = %v, want 2 with a first after re-add", got)
	}
}

func TestPinnedSurvival(t *testing.T) {
	c := New(Config{})
	c.Add("a", 1)
	c.Add("b", 1)
	c.Add("c", 1)
	pinned := func(name string) bool { return name == "a" }

	evicted, _ := c.Enforce(1, "", pinned)
	if len(evicted) != 2 {
		t.Fatalf("evicted %v, want two entries", evicted)
	}
	for _, name := range evicted {
		if name == "a" {
			t.Fatal("pinned asset a was evicted")
		}
	}
	if !c.resident("a") || c.Bytes() != 1 {
		t.Fatalf("want only pinned a resident, have %v", c.names())
	}
}

func TestEnforceUnboundedBudgetIsNoop(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := New(Config{})
		c.Add("a", 100)
		evicted, rejected := c.Enforce(budget, "", nil)
		if len(evicted) != 0 || len(rejected) != 0 {
			t.Fatalf("budget %d: evicted %v rejected %v, want none", budget, evicted, rejected)
		}
	}
}

// A hot asset promoted into the main segment must survive a parade of
// one-hit wonders overflowing the window: the duel rejects them.
func TestAdmissionRejectsOneHitWonder(t *testing.T) {
	c := New(Config{})
	c.Add("hot", 4)
	for i := 0; i < 5; i++ {
		c.Touch("hot")
	}
	if evicted, rejected := c.Enforce(10, "", nil); len(evicted)+len(rejected) != 0 {
		t.Fatalf("promotion pass dropped %v/%v", evicted, rejected)
	}

	c.Add("one", 4)
	c.RecordPull("one")
	c.Add("two", 4)
	c.RecordPull("two")

	evicted, rejected := c.Enforce(10, "", nil)
	if len(evicted) != 0 {
		t.Fatalf("evicted %v, want none (hot must survive)", evicted)
	}
	if len(rejected) != 1 || rejected[0] != "one" {
		t.Fatalf("rejected %v, want [one]", rejected)
	}
	if !c.resident("hot") {
		t.Fatal("hot asset lost residency to a one-hit wonder")
	}
}

// A window candidate with a higher frequency estimate than the main
// segment's coldest entry wins the duel: the victim is evicted and the
// candidate promoted.
func TestAdmissionEvictsColderVictim(t *testing.T) {
	c := New(Config{})
	c.Add("cold", 4)
	c.RecordPull("cold")
	c.Enforce(10, "", nil) // promotes cold into main (room available)
	c.Add("warm", 4)
	for i := 0; i < 4; i++ {
		c.Touch("warm")
	}
	c.Enforce(10, "", nil) // promotes warm; main back is now cold
	c.Add("rising", 4)
	for i := 0; i < 6; i++ {
		c.Touch("rising")
	}

	evicted, rejected := c.Enforce(10, "", nil)
	if len(rejected) != 0 {
		t.Fatalf("rejected %v, want none", rejected)
	}
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Fatalf("evicted %v, want [cold]", evicted)
	}
	if !c.resident("rising") || !c.resident("warm") {
		t.Fatalf("resident %v, want rising and warm", c.names())
	}
}

func TestEnforceNeverDropsExcept(t *testing.T) {
	c := New(Config{})
	c.Add("a", 4)
	c.Add("b", 4)
	c.Add("demanded", 4)
	evicted, rejected := c.Enforce(4, "demanded", nil)
	for _, name := range append(append([]string{}, evicted...), rejected...) {
		if name == "demanded" {
			t.Fatal("except asset was dropped")
		}
	}
	if !c.resident("demanded") {
		t.Fatal("except asset lost residency")
	}
}

// Pinned window entries stay windowed and resident, and the capacity
// pass leaves the cache over budget rather than drop them.
func TestAdmissionLeavesPinnedWindowEntries(t *testing.T) {
	c := New(Config{})
	c.Add("p1", 6)
	c.Add("p2", 6)
	pinned := func(string) bool { return true }
	evicted, rejected := c.Enforce(8, "", pinned)
	if len(evicted)+len(rejected) != 0 {
		t.Fatalf("dropped %v/%v despite pins", evicted, rejected)
	}
	if got := c.Bytes(); got != 12 {
		t.Fatalf("bytes = %d, want 12 (over budget, all pinned)", got)
	}
}

// Property check: under random traffic the byte ledger always matches
// the resident set, and an unpinned Enforce always lands on budget.
func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(Config{})
	sizes := map[string]int64{}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for step := 0; step < 4000; step++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(5) {
		case 0:
			size := int64(1 + rng.Intn(9))
			c.Add(name, size)
			sizes[name] = size
		case 1:
			c.Touch(name)
		case 2:
			c.RecordPull(name)
		case 3:
			if c.Remove(name) {
				delete(sizes, name)
			}
		case 4:
			budget := int64(5 + rng.Intn(30))
			evicted, rejected := c.Enforce(budget, "", nil)
			for _, n := range append(append([]string{}, evicted...), rejected...) {
				delete(sizes, n)
			}
			if got := c.Bytes(); got > budget {
				t.Fatalf("step %d: bytes %d over budget %d with no pins", step, got, budget)
			}
		}
		var want int64
		for _, s := range sizes {
			want += s
		}
		if got := c.Bytes(); got != want {
			t.Fatalf("step %d: bytes = %d, want %d", step, got, want)
		}
		if got := len(c.entries); got != len(sizes) {
			t.Fatalf("step %d: %d entries, want %d", step, got, len(sizes))
		}
		if got := len(c.names()); got != len(sizes) {
			t.Fatalf("step %d: names = %d entries, want %d", step, got, len(sizes))
		}
	}
}
