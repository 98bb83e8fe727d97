package main

import (
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs on is a small virtual machine on a
// shared host, and its speed is not constant: for tens of seconds at a
// time a fixed piece of code takes up to 1.9 times as long, and the
// streaming path slows in step (README.md has the measurements). No
// statistic over one run's slices removes that — whole runs land in a
// slow phase. So the benchmark measures the host while it measures the
// program. The gauge runs a fixed kernel a hundred times a second on a
// thread of its own and records the CPU time each run took; the host
// factor of an interval is the median kernel time in it over the time
// the kernel takes on a quiet sandbox host. Time-based end-to-end
// metrics are reported in host-corrected time: what was measured,
// scaled by the host factor of the slice it was measured in.
//
// The kernel is a miniature of the packet path — allocate a
// packet-sized buffer, copy a payload into it from a region no cache
// holds, checksum it with the container's CRC — because a kernel slows
// with the host the way the program does only if it does the same kind
// of work: against this one the three closed-loop workloads' cost per
// packet moved with exponents 0.97, 1.13 and 1.29; a pure copy loop
// and a cache-resident checksum loop tracked them worse.

const (
	// gaugePeriod is the pause between two kernel runs. At under 0.1 ms
	// a run the gauge uses about 1 % of one core.
	gaugePeriod = 10 * time.Millisecond
	// gaugeNominalNs is the kernel's CPU time on a quiet sandbox host.
	// It is a constant of the benchmark, the unit host-corrected time is
	// expressed in — not a property of the machine: changing it rescales
	// every time-based metric.
	gaugeNominalNs = 80e3

	gaugeSourceBytes = 32 << 20 // larger than any cache level a tenant owns
	gaugePackets     = 128      // per kernel run
	gaugePacketBytes = 1200
	// gaugePacketClass is the allocator's size class for a packet: what
	// MemStats.TotalAlloc grows by for each.
	gaugePacketClass = 1280
)

// gaugeSample is one kernel run.
type gaugeSample struct {
	at  time.Time
	ns  float64 // thread CPU time the kernel took
	cum int64   // the gauge thread's CPU clock after the run
}

// gauge measures the host's speed for as long as it runs.
type gauge struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []gaugeSample
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	// The call cannot fail for this clock with a valid pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

var (
	gaugeTable = crc32.MakeTable(crc32.Castagnoli)
	// gaugeSink and gaugeHeld keep the kernel's work alive: the sum so
	// the checksum is computed, the buffer so it is heap-allocated.
	gaugeSink uint32
	gaugeHeld []byte
)

func startGauge() *gauge {
	g := &gauge{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(g.done)
		// The thread's CPU clock is the measurement, so the goroutine
		// must stay on one thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// The source region lives outside the Go heap, so that it shows
		// in neither heap_mb nor the collector's work.
		src, err := syscall.Mmap(-1, 0, gaugeSourceBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("benchmark: gauge: mmap: " + err.Error()) // 32 MB of anonymous memory; nothing to fall back to
		}
		defer func() { _ = syscall.Munmap(src) }() // the process is ending or the test is over either way
		for i := range src {
			src[i] = byte(i)
		}
		close(ready)
		from := 0
		for {
			select {
			case <-g.stop:
				return
			default:
			}
			time.Sleep(gaugePeriod)
			t0 := threadCPU()
			for i := 0; i < gaugePackets; i++ {
				b := make([]byte, gaugePacketBytes)
				copy(b, src[from:from+gaugePacketBytes])
				gaugeSink += crc32.Checksum(b, gaugeTable)
				gaugeHeld = b
				from = (from + 65536 + 1216) % (gaugeSourceBytes - gaugePacketBytes)
			}
			t1 := threadCPU()
			g.mu.Lock()
			g.samples = append(g.samples, gaugeSample{at: time.Now(), ns: float64(t1 - t0), cum: t1})
			g.mu.Unlock()
		}
	}()
	<-ready
	return g
}

func (g *gauge) Stop() {
	close(g.stop)
	<-g.done
}

// gaugeReading is what the gauge says about one interval.
type gaugeReading struct {
	// host is the host factor: above 1 the host was slower than a quiet
	// sandbox. With no kernel run in the interval the nearest earlier
	// one stands in, and 1 before the first.
	host float64
	runs int
	// cpu, mallocs and allocBytes are what the gauge's own thread used
	// in the interval — the process totals are corrected by them.
	cpu        time.Duration
	mallocs    float64
	allocBytes float64
}

func (g *gauge) between(from, to time.Time) gaugeReading {
	g.mu.Lock()
	defer g.mu.Unlock()
	lo := sort.Search(len(g.samples), func(i int) bool { return !g.samples[i].at.Before(from) })
	hi := sort.Search(len(g.samples), func(i int) bool { return g.samples[i].at.After(to) })
	if hi <= lo {
		if lo == 0 {
			return gaugeReading{host: 1}
		}
		return gaugeReading{host: g.samples[lo-1].ns / gaugeNominalNs}
	}
	ns := make([]float64, 0, hi-lo)
	for _, s := range g.samples[lo:hi] {
		ns = append(ns, s.ns)
	}
	sort.Float64s(ns)
	runs := hi - lo
	return gaugeReading{
		host:       quantile(ns, 0.5) / gaugeNominalNs,
		runs:       runs,
		cpu:        time.Duration(g.samples[hi-1].cum - g.samples[lo].cum + int64(g.samples[lo].ns)),
		mallocs:    float64(runs * gaugePackets),
		allocBytes: float64(runs * gaugePackets * gaugePacketClass),
	}
}
