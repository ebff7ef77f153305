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
	// buffer.
	for i, x := range xs {
		b := math.Float64bits(x)
		if b&(1<<63) != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		xs[i] = math.Float64frombits(b)
	}
	keys, buf := xs, buf[:len(xs)]
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range keys {
			counts[(math.Float64bits(k)>>shift)&0xff]++
		}
		// Skip passes where every key shares the byte.
		if counts[(math.Float64bits(keys[0])>>shift)&0xff] == len(keys) {
			continue
		}
		pos := 0
		for i, c := range counts {
			counts[i] = pos
			pos += c
		}
		for _, k := range keys {
			b := (math.Float64bits(k) >> shift) & 0xff
			buf[counts[b]] = k
			counts[b]++
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
