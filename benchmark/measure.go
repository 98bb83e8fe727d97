package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule, and 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether at least ten of n samples lie beyond the
// q-quantile — the rule for printing a tail percentile at all.
func supported(n int, q float64) bool { return n-rank(n, q) >= 10 }

// tail returns the q-quantile of sorted, or 0 when the sample does not
// support that percentile (fewer than ten samples beyond it).
func tail(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return quantile(sorted, q)
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is one reading of what the process has consumed so far.
type usage struct {
	at         time.Time
	cpu        time.Duration // user+sys, whole process
	mallocs    uint64
	allocBytes uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

// heapInuseMB forces a collection and returns the live heap's span
// footprint.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// canaryGap is the shortest oversleep of the canary that counts as a
// host pause: far above timer jitter, well below the 50 ms stall
// tolerance of the paced player. canaryPeriod keeps the canary's own
// wake-ups (200/s) out of the CPU figures.
const (
	canaryGap    = 25 * time.Millisecond
	canaryPeriod = 5 * time.Millisecond
)

// canary is a goroutine that sleeps canaryPeriod in a loop and records every
// interval in which it was not scheduled for more than canaryGap. Such
// a gap is a pause of the host or the whole process, not of the
// cluster: every concurrent session sees it at once.
type canary struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	gaps [][2]time.Time
	max  time.Duration
}

func startCanary() *canary {
	c := &canary{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		last := time.Now()
		for {
			select {
			case <-c.stop:
				return
			default:
			}
			time.Sleep(canaryPeriod)
			now := time.Now()
			if gap := now.Sub(last); gap > canaryGap {
				c.mu.Lock()
				c.gaps = append(c.gaps, [2]time.Time{last, now})
				if gap > c.max {
					c.max = gap
				}
				c.mu.Unlock()
			}
			last = now
		}
	}()
	return c
}

func (c *canary) Stop() {
	close(c.stop)
	<-c.done
}

// disturbed reports whether [from, to] overlaps a recorded gap.
func (c *canary) disturbed(from, to time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range c.gaps {
		if g[0].Before(to) && from.Before(g[1]) {
			return true
		}
	}
	return false
}

func (c *canary) maxGapMs() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ms(c.max)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
