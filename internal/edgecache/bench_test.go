package edgecache

import (
	"fmt"
	"testing"
)

// The sketch sits on the per-demand hot path (every hit and every
// pull); it must not allocate.
func TestSketchOpsAllocFree(t *testing.T) {
	sk := newSketch(1024)
	h := hashString("lec-0")
	if got := testing.AllocsPerRun(1000, func() { sk.increment(h) }); got != 0 {
		t.Fatalf("increment allocates %v per op, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { _ = sk.estimate(h) }); got != 0 {
		t.Fatalf("estimate allocates %v per op, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { _ = hashString("lec-0") }); got != 0 {
		t.Fatalf("hashString allocates %v per op, want 0", got)
	}
}

// Steady-state Touch of a resident asset is the common case under a
// hot workload; it must not allocate either.
func TestTouchSteadyStateAllocFree(t *testing.T) {
	c := New(Config{})
	c.Add("lec-0", 1024)
	c.Touch("lec-0")
	if got := testing.AllocsPerRun(1000, func() { c.Touch("lec-0") }); got != 0 {
		t.Fatalf("Touch allocates %v per op, want 0", got)
	}
}

func BenchmarkSketchIncrement(b *testing.B) {
	sk := newSketch(1024)
	hashes := make([]uint64, 64)
	for i := range hashes {
		hashes[i] = hashString(fmt.Sprintf("lec-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.increment(hashes[i&63])
	}
}

func BenchmarkSketchEstimate(b *testing.B) {
	sk := newSketch(1024)
	hashes := make([]uint64, 64)
	for i := range hashes {
		hashes[i] = hashString(fmt.Sprintf("lec-%d", i))
		sk.increment(hashes[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sk.estimate(hashes[i&63])
	}
}

func BenchmarkCacheTouchHit(b *testing.B) {
	c := New(Config{})
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("lec-%d", i)
		c.Add(names[i], 1024)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(names[i&31])
	}
}

// Admission under churn: every iteration adds a fresh one-hit wonder
// and enforces the budget, driving the window-overflow duel.
func BenchmarkCacheAdmissionChurn(b *testing.B) {
	c := New(Config{})
	c.Add("hot", 1024)
	for i := 0; i < 8; i++ {
		c.Touch("hot")
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("cold-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := names[i&63]
		c.Add(name, 1024)
		c.RecordPull(name)
		c.Enforce(4096, "", nil)
	}
}
