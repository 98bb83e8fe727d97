package edgecache

import "sync"

// Tuning. The window gets a small slice of the byte budget — enough for
// the newest mirrors to prove themselves — and the sketch is sized far
// above any realistic resident-asset count.
const (
	windowFrac     = 0.10
	sketchCounters = 1024
)

// Config parameterizes a Cache. It has no fields: the cache has no
// tuning a caller sets.
type Config struct{}

// entry is one resident asset. Entries are their own typed list nodes
// (prev/next), so recency bookkeeping never goes through container/list
// and its interface{} boxing.
type entry struct {
	name       string
	size       int64
	hash       uint64
	window     bool // which segment the entry lives in
	prev, next *entry
}

// entryList is an intrusive doubly-linked recency list of entries:
// front is most recent, back is the eviction end.
type entryList struct {
	front, back *entry
	bytes       int64
}

func (l *entryList) pushFront(e *entry) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
	l.bytes += e.size
}

func (l *entryList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.bytes -= e.size
}

func (l *entryList) moveToFront(e *entry) {
	if l.front == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// Cache is the admission-controlled mirror cache. All methods are safe
// for concurrent use. The cache tracks names and sizes; the caller owns
// the actual bytes and removes them when Enforce names victims.
type Cache struct {
	mu      sync.Mutex
	sketch  *sketch
	entries map[string]*entry
	window  entryList
	main    entryList
}

// New builds an empty cache.
func New(Config) *Cache {
	return &Cache{
		sketch:  newSketch(sketchCounters),
		entries: make(map[string]*entry),
	}
}

// Add books an asset as resident (insert or size refresh). New entries
// land in the recency window; re-added entries refresh their size and
// recency in place. Add does not count demand — Touch and RecordPull
// do — so reinstating a pin-rescued victim never skews the frequency
// sketch.
func (c *Cache) Add(name string, size int64) {
	c.mu.Lock()
	if e, ok := c.entries[name]; ok {
		l := c.list(e)
		l.bytes += size - e.size
		e.size = size
		l.moveToFront(e)
		c.mu.Unlock()
		return
	}
	e := &entry{name: name, size: size, hash: hashString(name), window: true}
	c.entries[name] = e
	c.window.pushFront(e)
	c.mu.Unlock()
}

// Touch records a demand served from resident content: a frequency
// observation and a recency bump.
func (c *Cache) Touch(name string) {
	c.mu.Lock()
	c.sketch.increment(hashString(name))
	if e, ok := c.entries[name]; ok {
		c.list(e).moveToFront(e)
	}
	c.mu.Unlock()
}

// RecordPull records a demand that went to the origin: a frequency
// observation. Call it once per completed origin fetch, before or
// after Add.
func (c *Cache) RecordPull(name string) {
	c.mu.Lock()
	c.sketch.increment(hashString(name))
	c.mu.Unlock()
}

// Remove drops an asset from residency accounting, reporting whether it
// was tracked.
func (c *Cache) Remove(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return false
	}
	c.list(e).remove(e)
	delete(c.entries, name)
	return true
}

// Bytes returns the summed size of resident entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.window.bytes + c.main.bytes
}

// Enforce brings the cache toward the byte budget and returns the names
// the caller must drop: evicted (lost to capacity pressure or a lost
// frequency duel while resident in main) and rejected (window
// candidates that failed the frequency duel against the main segment's
// coldest resident — the one-hit wonders). Neither list ever contains
// `except` (the demand in progress) or a name pinned() reports true
// for; pins may leave the cache over budget, which a later Enforce
// resolves once they release. budget <= 0 means unbounded: nothing is
// evicted or rejected.
func (c *Cache) Enforce(budget int64, except string, pinned func(string) bool) (evicted, rejected []string) {
	if budget <= 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	evicted, rejected = c.reclaim(budget, except, pinned)
	c.drainWindow(budget, except, pinned)
	return evicted, rejected
}

// reclaim is the capacity loop: while over budget, the window's
// coldest unpinned entry duels the main segment's lowest-frequency
// unpinned entry. Strictly greater estimated frequency wins the
// newcomer a seat (the main victim is evicted, the candidate promoted);
// otherwise the candidate is rejected. With only one side able to give
// ground, that side's candidate is evicted outright. Runs under c.mu.
func (c *Cache) reclaim(budget int64, except string, pinned func(string) bool) (evicted, rejected []string) {
	for c.window.bytes+c.main.bytes > budget {
		cand := c.evictable(&c.window, except, pinned)
		victim := c.coldestMain(except, pinned)
		switch {
		case cand == nil && victim == nil:
			return evicted, rejected // everything left is pinned or mid-demand
		case cand == nil:
			c.drop(victim)
			evicted = append(evicted, victim.name)
		case victim == nil:
			c.drop(cand)
			evicted = append(evicted, cand.name)
		// The duel: strictly greater wins, so a single-demand newcomer
		// can never displace an equally-counted (or hotter) resident.
		case c.sketch.estimate(cand.hash) > c.sketch.estimate(victim.hash):
			c.drop(victim)
			evicted = append(evicted, victim.name)
			c.promote(cand)
		default:
			c.drop(cand)
			rejected = append(rejected, cand.name)
		}
	}
	return evicted, rejected
}

// drainWindow promotes the window's overflow into the main segment once
// the budget holds, keeping the window small enough to stay a probation
// area rather than a shadow cache. Pinned and in-demand entries stay
// windowed — the demand pinning them is still proving their popularity.
// Runs under c.mu.
func (c *Cache) drainWindow(budget int64, except string, pinned func(string) bool) {
	target := int64(float64(budget) * windowFrac)
	if target < 1 {
		target = 1
	}
	for c.window.bytes > target {
		cand := c.evictable(&c.window, except, pinned)
		if cand == nil {
			return
		}
		c.promote(cand)
	}
}

// coldestMain returns the main entry with the lowest frequency estimate
// (ties broken toward the eviction end), skipping except and pinned
// entries — the victim a window candidate duels. Frequency, not
// recency, picks the victim so a freshly promoted one-hit wonder can
// never outlive a long-resident hot asset. Runs under c.mu.
func (c *Cache) coldestMain(except string, pinned func(string) bool) *entry {
	var victim *entry
	best := 16
	for e := c.main.back; e != nil; e = e.prev {
		if e.name == except || (pinned != nil && pinned(e.name)) {
			continue
		}
		if f := c.sketch.estimate(e.hash); f < best {
			best, victim = f, e
		}
	}
	return victim
}

// evictable returns the coldest entry of l that is neither except nor
// pinned, or nil.
func (c *Cache) evictable(l *entryList, except string, pinned func(string) bool) *entry {
	for e := l.back; e != nil; e = e.prev {
		if e.name == except || (pinned != nil && pinned(e.name)) {
			continue
		}
		return e
	}
	return nil
}

// promote moves a window entry to the main segment's recent end. Runs
// under c.mu.
func (c *Cache) promote(e *entry) {
	c.window.remove(e)
	e.window = false
	c.main.pushFront(e)
}

// drop removes an entry from its list and the index. Runs under c.mu.
func (c *Cache) drop(e *entry) {
	c.list(e).remove(e)
	delete(c.entries, e.name)
}

func (c *Cache) list(e *entry) *entryList {
	if e.window {
		return &c.window
	}
	return &c.main
}
