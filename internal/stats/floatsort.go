package stats

import (
	"math"
	"sort"
)

// radixSortMin is the length below which comparison sort wins (radix
// has fixed histogram costs).
const radixSortMin = 512

// SortFloat64s sorts xs ascending in O(n) with an LSD radix sort on the
// IEEE-754 total order, falling back to sort.Float64s for short slices.
// Algorithm 3.1 sorts a 40·M-point sample per numeric attribute, and
// that sort dominated the sampling phase's CPU profile; radix removes
// the log factor. For NaN-free input the result is numerically
// identical to sort.Float64s (NaNs, if present, sort deterministically
// to the extremes by their bit patterns rather than to arbitrary
// positions, which no caller relies on).
func SortFloat64s(xs []float64) {
	var buf []float64
	if len(xs) >= radixSortMin {
		buf = make([]float64, len(xs))
	}
	SortFloat64sBuf(xs, buf)
}

// SortFloat64sBuf is SortFloat64s with the caller's radix scratch: buf
// must hold at least len(xs) values once len(xs) reaches the radix
// cutoff, and its contents are overwritten. A caller sorting many
// samples reuses one buf for all of them.
func SortFloat64sBuf(xs, buf []float64) {
	if len(xs) < radixSortMin {
		sort.Float64s(xs)
		return
	}
	if len(buf) < len(xs) {
		panic("stats: radix scratch shorter than the slice to sort")
	}
	// Map each float to a uint64 key that orders like the float: flip
	// all bits of negatives, flip only the sign bit of non-negatives.
	// The keys live in xs itself, as float64 bit patterns that are only
	// moved, never computed on, so every pass needs just one scratch
	// buffer. The same pass counts all eight byte histograms, so each
	// scatter pass below reads the keys once.
	var counts [8][256]int
	for i, x := range xs {
		b := math.Float64bits(x)
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		xs[i] = math.Float64frombits(b)
		counts[0][uint8(b)]++
		counts[1][uint8(b>>8)]++
		counts[2][uint8(b>>16)]++
		counts[3][uint8(b>>24)]++
		counts[4][uint8(b>>32)]++
		counts[5][uint8(b>>40)]++
		counts[6][uint8(b>>48)]++
		counts[7][uint8(b>>56)]++
	}
	keys, buf := xs, buf[:len(xs)]
	for d := range counts {
		shift := uint(8 * d)
		c := &counts[d]
		// Skip passes where every key shares the byte.
		if c[uint8(math.Float64bits(keys[0])>>shift)] == len(keys) {
			continue
		}
		pos := 0
		for i, n := range c {
			c[i] = pos
			pos += n
		}
		for _, k := range keys {
			b := uint8(math.Float64bits(k) >> shift)
			buf[c[b]] = k
			c[b]++
		}
		keys, buf = buf, keys
	}
	for i, x := range keys {
		k := math.Float64bits(x)
		if k&(1<<63) != 0 {
			k &^= 1 << 63
		} else {
			k = ^k
		}
		xs[i] = math.Float64frombits(k)
	}
}
