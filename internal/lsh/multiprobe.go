// Package lsh implements the three locality-sensitive hashing families of
// Section IV-D: MinHash LSH over character k-shingles, Hyperplane LSH and
// Cross-Polytope LSH over dense embedding vectors, the latter two with
// multi-probe querying as in FALCONN.
package lsh

import "math/bits"

// prober is the multi-probe engine shared by the Hyperplane (bit flips
// weighted by margin) and Cross-Polytope (alternative vertices weighted by
// coordinate gap) families. It enumerates per-position choice
// combinations in increasing total-penalty order, best-first from the
// all-zeros base probe.
//
// A combination is packed into a uint64 choice key holding width bits per
// position (1 for hyperplane bits, 2 for cross-polytope's <= 4 vertices),
// so positions*width must not exceed 64; the filters refuse wider
// configurations. Every buffer is reused across calls, so a warm prober
// does not allocate.
type prober struct {
	width uint
	n     int
	// nopt[p] is the number of choices at position p; pen[p<<width|c] is
	// the penalty of choice c, with pen[p<<width] == 0 (the base choice).
	nopt []uint8
	pen  []float64

	heap []probeState
	seen keySet
	keys []uint64
}

type probeState struct {
	key  uint64
	cost float64
}

// reset prepares the prober for n positions of the given width and
// returns the penalty table to fill. Every position starts with one
// choice (the base); callers raise nopt and fill pen.
func (pr *prober) reset(n int, width uint) (nopt []uint8, pen []float64) {
	pr.width, pr.n = width, n
	pr.nopt = resize(pr.nopt, n)
	pr.pen = resize(pr.pen, n<<width)
	for p := range pr.nopt {
		pr.nopt[p] = 1
	}
	clear(pr.pen)
	return pr.nopt, pr.pen
}

// sequence returns up to max choice keys in increasing cost order; the
// first is the base key 0. Ties are broken by the binary-heap discipline
// over the order in which states were first reached. The returned slice
// is reused by the next call.
func (pr *prober) sequence(max int) []uint64 {
	pr.keys = pr.keys[:0]
	if max <= 0 {
		return pr.keys
	}
	pr.keys = append(pr.keys, 0)
	if max == 1 || pr.n == 0 {
		return pr.keys
	}
	pr.heap = pr.heap[:0]
	pr.seen.reset()
	// Successors of the base: bump each position to its second choice.
	for p := 0; p < pr.n; p++ {
		if pr.nopt[p] > 1 {
			pr.push(1 << (uint(p) * pr.width))
		}
	}
	for len(pr.heap) > 0 && len(pr.keys) < max {
		s := pr.pop()
		pr.keys = append(pr.keys, s.key)
		if len(pr.keys) == max {
			break
		}
		// Successors: advance any position by one step.
		for p := 0; p < pr.n; p++ {
			shift := uint(p) * pr.width
			c := s.key >> shift & (1<<pr.width - 1)
			if c+1 < uint64(pr.nopt[p]) {
				pr.push(s.key + 1<<shift)
			}
		}
	}
	return pr.keys
}

// cost sums the penalties of a key's non-base choices in position order.
// The base choices cost exactly 0, so this equals the sum over every
// position.
func (pr *prober) cost(key uint64) float64 {
	var c float64
	mask := uint64(1)<<pr.width - 1
	for k := key; k != 0; {
		p := uint(bits.TrailingZeros64(k)) / pr.width
		shift := p * pr.width
		c += pr.pen[p<<pr.width|uint(key>>shift&mask)]
		k &^= mask << shift
	}
	return c
}

// push adds an unseen state to the min-heap (container/heap's up).
func (pr *prober) push(key uint64) {
	if !pr.seen.add(key) {
		return
	}
	h := append(pr.heap, probeState{key: key, cost: pr.cost(key)})
	for j := len(h) - 1; ; {
		i := (j - 1) / 2
		if i == j || !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	pr.heap = h
}

// pop removes the minimum (container/heap's Pop: swap the root with the
// last element, sift down over the rest, then truncate).
func (pr *prober) pop() probeState {
	h := pr.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].cost < h[j].cost {
			j = j2
		}
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	pr.heap = h[:n]
	return h[n]
}

// keySet is an open-addressing set of uint64 keys. Slots carry the
// generation that wrote them, so reset is O(1).
type keySet struct {
	keys []uint64
	gen  []uint32
	cur  uint32
	n    int
}

func (s *keySet) reset() {
	s.cur++
	s.n = 0
	if s.cur == 0 {
		clear(s.gen)
		s.cur = 1
	}
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k uint64) bool {
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
	}
	mask := uint64(len(s.keys) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		if s.gen[i] != s.cur {
			s.gen[i], s.keys[i] = s.cur, k
			s.n++
			return true
		}
		if s.keys[i] == k {
			return false
		}
	}
}

func (s *keySet) grow() {
	old, oldGen, cur := s.keys, s.gen, s.cur
	size := 2 * len(old)
	if size < 64 {
		size = 64
	}
	s.keys, s.gen, s.cur, s.n = make([]uint64, size), make([]uint32, size), 1, 0
	for i, k := range old {
		if oldGen[i] == cur {
			s.add(k)
		}
	}
}

// resize returns buf with length n, reallocating only when it is too
// small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
