package sparse

import (
	"math"
	"slices"
)

// TopDistinct is SelectKNN's bounded buffer: the k largest distinct
// positive similarities of one query, in descending order. The zero value
// is ready to use. Callers keep one beside their other per-query buffers
// (a Scratch, an Index, a segment scratch) so that the cut stops
// allocating once the buffer has grown to k.
type TopDistinct struct {
	k    int
	vals []float64
}

// reset empties the buffer and bounds it to k distinct values.
func (t *TopDistinct) reset(k int) {
	t.k = k
	t.vals = t.vals[:0]
}

// offer records sim. Non-positive values, values already kept and values
// not above the smallest kept one of a full buffer leave it unchanged.
func (t *TopDistinct) offer(sim float64) {
	n := len(t.vals)
	if sim <= 0 || n == t.k && sim <= t.vals[n-1] {
		return
	}
	// Binary search for the first kept value not above sim.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.vals[mid] > sim {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && t.vals[lo] == sim {
		return
	}
	if n < t.k {
		t.vals = append(t.vals, 0)
	}
	copy(t.vals[lo+1:], t.vals[lo:]) // a full buffer drops its smallest value
	t.vals[lo] = sim
}

// floor returns the smallest similarity within the k highest distinct
// values offered: the k-th of them, or the smallest one when fewer were
// offered. It is +Inf when no positive value was offered.
func (t *TopDistinct) floor() float64 {
	if len(t.vals) == 0 {
		return math.Inf(1)
	}
	return t.vals[len(t.vals)-1]
}

// SelectKNN is the output-sensitive kNN-Join cut every sparse index
// shares. sims[i] is the similarity of candidate i of one ScanCount probe,
// or 0 for a candidate that must not be returned (a tombstoned set). It
// returns hit(i, sims[i]) for every candidate whose similarity is one of
// the k highest distinct positive values, sorted by cmp, in a slice of
// exactly that length — nil when there is none, so a warm caller
// allocates only the result.
//
// The first pass keeps the k largest distinct values in top, the second
// keeps the candidates at or above the k-th of them, and only those
// survivors are sorted: O(n + s·log s) for n candidates and s survivors,
// against O(n·log n) for sorting every candidate and cutting the prefix.
// Tie groups stay complete because the cut is a value, not a position.
// When k ≥ n every positive candidate survives, so the buffer pass is
// skipped and the cost is that of a plain sort.
func SelectKNN[N any](sims []float64, k int, top *TopDistinct, hit func(i int, sim float64) N, cmp func(a, b N) int) []N {
	if k <= 0 {
		return nil
	}
	floor := math.SmallestNonzeroFloat64 // every positive similarity
	if k < len(sims) {
		top.reset(k)
		for _, s := range sims {
			top.offer(s)
		}
		floor = top.floor()
	}
	n := 0
	for _, s := range sims {
		if s >= floor {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]N, 0, n)
	for i, s := range sims {
		if s >= floor {
			out = append(out, hit(i, s))
		}
	}
	slices.SortFunc(out, cmp)
	return out
}
