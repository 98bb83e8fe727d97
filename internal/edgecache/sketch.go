// Package edgecache is the edge tier's mirror cache: a W-TinyLFU-style
// admission-controlled, byte-budgeted cache over asset names, plus the
// singleflight coalescer that collapses concurrent origin pulls for the
// same asset into one.
//
// The cache tracks names and sizes only — the bytes themselves live in
// the edge's streaming.Server — and decides which mirrors stay resident
// under a byte budget. Unlike a plain LRU, admission is gated by a
// compact frequency sketch: a newly pulled asset lands in a small
// recency window, and overflowing the window into the main segment
// requires beating the main segment's eviction candidate on estimated
// demand frequency. A one-hit wonder therefore churns through the
// window without ever displacing a hot asset.
//
// Nothing in this package touches the wall clock: aging is count-based
// (the sketch halves itself every sampleFactor×counters observations),
// so behaviour is identical under virtual-clock simulation.
package edgecache

// sketch is a 4-bit count-min sketch: four counter rows folded into one
// power-of-two table of 64-bit words, sixteen 4-bit counters per word.
// Estimates saturate at 15; every sampleFactor×counters observations
// all counters halve, so the sketch tracks recent popularity rather
// than all-time totals (the "periodic halving" that makes TinyLFU's
// frequency window slide).
type sketch struct {
	table   []uint64
	mask    uint64 // counter-index mask (len(table)*16 - 1)
	samples uint64
	resetAt uint64
}

// sampleFactor scales the halving period: counters halve after
// sampleFactor observations per counter slot, mirroring the 10×
// sample-to-capacity ratio TinyLFU's false-positive analysis assumes.
const sampleFactor = 10

// newSketch sizes the sketch for at least n counters, rounded up to a
// power of two, minimum 64.
func newSketch(n int) *sketch {
	counters := 64
	for counters < n {
		counters <<= 1
	}
	return &sketch{
		table:   make([]uint64, counters/16),
		mask:    uint64(counters - 1),
		resetAt: uint64(counters) * sampleFactor,
	}
}

// hashString is FNV-1a 64 — deterministic across processes (unlike
// maphash), allocation-free, and good enough spread for the four
// derived counter positions.
func hashString(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// spread remixes the base hash into the i-th row's counter index
// (h1 + i·h2 double hashing with an avalanche over the sum).
func (sk *sketch) spread(h uint64, i uint64) uint64 {
	x := h + i*(h>>32|h<<32|1)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & sk.mask
}

// increment bumps the four counters for h (saturating at 15) and
// halves everything when the sample budget is spent. Every observation
// counts toward the budget — even ones landing on saturated counters —
// so aging can never stall on a fully saturated table.
func (sk *sketch) increment(h uint64) {
	for i := uint64(0); i < 4; i++ {
		ci := sk.spread(h, i)
		word, shift := ci>>4, (ci&15)<<2
		if (sk.table[word]>>shift)&0xf < 15 {
			sk.table[word] += 1 << shift
		}
	}
	sk.samples++
	if sk.samples >= sk.resetAt {
		sk.halve()
	}
}

// estimate returns the frequency estimate for h: the minimum of its
// four counters (count-min), in [0, 15].
func (sk *sketch) estimate(h uint64) int {
	min := 15
	for i := uint64(0); i < 4; i++ {
		ci := sk.spread(h, i)
		if c := int((sk.table[ci>>4] >> ((ci & 15) << 2)) & 0xf); c < min {
			min = c
		}
	}
	return min
}

// halve ages the sketch: every 4-bit counter shifts right one bit in
// place (0x7777… masks the bits that would bleed across counter
// boundaries), and the sample count halves with it.
func (sk *sketch) halve() {
	for i := range sk.table {
		sk.table[i] = (sk.table[i] >> 1) & 0x7777777777777777
	}
	sk.samples /= 2
}
