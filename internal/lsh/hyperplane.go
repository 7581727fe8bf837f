package lsh

import (
	"fmt"
	"math"
	"slices"

	"erfilter/internal/entity"
	"erfilter/internal/vector"
)

// Hyperplane implements Hyperplane LSH (Charikar, STOC 2002): each of
// Tables hash tables draws Hashes random Gaussian hyperplanes; a vector's
// hash in a table is the sign pattern of its projections. Two unit vectors
// with angle α collide on one hyperplane with probability 1 − α/π.
// Querying is multi-probe: besides the query's own bucket, the Probes−1
// buckets obtained by flipping the lowest-margin sign bits are inspected.
type Hyperplane struct {
	Tables, Hashes int
	// Probes is the number of buckets inspected per table per query
	// (including the base bucket). Probes <= 1 disables multi-probing.
	Probes int
	// Seed drives the random hyperplanes.
	Seed uint64
}

// maxHyperplaneHashes is the widest hash a bucket key holds: one sign bit
// per hyperplane in a uint64.
const maxHyperplaneHashes = 64

// Validate refuses hash widths whose sign bits do not fit a bucket key.
func (h *Hyperplane) Validate() error {
	if h.Hashes < 1 || h.Hashes > maxHyperplaneHashes {
		return fmt.Errorf("lsh: hyperplane hashes = %d, want 1..%d", h.Hashes, maxHyperplaneHashes)
	}
	return nil
}

// HyperplaneSketch holds the Gaussian hyperplanes of tables 0..Tables−1,
// Hashes per table, for one seed. Table t's planes are the first Hashes
// rows of one sequential vector.Gaussian stream seeded by (seed, t), so a
// sketch's planes for a smaller hash count are a prefix of a larger
// one's: the sign code of a vector under (tables, hashes) is the low
// hashes bits of its code under any sketch with at least as many tables
// and hashes. One sketch therefore serves every grid point below it.
type HyperplaneSketch struct {
	tables, hashes, dim int
	// planes[t] is table t's [hashes][dim] matrix, row-major.
	planes [][]float64
}

// NewSketch draws the hyperplanes of h's tables and hashes for vectors of
// the given dimensionality.
func (h *Hyperplane) NewSketch(dim int) (*HyperplaneSketch, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	s := &HyperplaneSketch{tables: max(h.Tables, 0), hashes: h.Hashes, dim: dim}
	s.planes = make([][]float64, s.tables)
	for t := range s.planes {
		s.planes[t] = make([]float64, h.Hashes*dim)
		vector.Gaussian(s.planes[t], h.Seed+uint64(t)*0x2545f4914f6cdd1d+11)
	}
	return s, nil
}

// SignCodes holds the per-table sign codes of a collection: bit i of
// Row(e)[t] is set when vector e has a non-negative projection on
// hyperplane i of table t.
type SignCodes struct {
	tables int
	codes  []uint64
}

// Row returns the codes of vector e, one per table.
func (c SignCodes) Row(e int) []uint64 { return c.codes[e*c.tables : (e+1)*c.tables] }

// len returns the number of coded vectors.
func (c SignCodes) len() int {
	if c.tables == 0 {
		return 0
	}
	return len(c.codes) / c.tables
}

// Sign codes every vector under every table of the sketch.
func (s *HyperplaneSketch) Sign(vecs []vector.Vec) SignCodes {
	c := SignCodes{tables: s.tables, codes: make([]uint64, len(vecs)*s.tables)}
	for e, v := range vecs {
		row := c.Row(e)
		for t := range row {
			var k uint64
			planes := s.planes[t]
			for i := 0; i < s.hashes; i++ {
				if dot(planes[i*s.dim:(i+1)*s.dim], v) >= 0 {
					k |= 1 << uint(i)
				}
			}
			row[t] = k
		}
	}
	return c
}

// dot is the projection of v on one hyperplane.
func dot(row []float64, v vector.Vec) float64 {
	var d float64
	for j := range row {
		d += row[j] * float64(v[j])
	}
	return d
}

// HyperplaneIndex holds the buckets of one indexed collection under the
// first Tables tables and low Hashes bits of a sketch. It answers queries
// at any probe count, so one index serves a whole probe ladder. An index
// keeps query scratch and is not safe for concurrent queries.
type HyperplaneIndex struct {
	sketch  *HyperplaneSketch
	hashes  int
	buckets []map[uint64][]int32 // one per table
	stamp   []int32
	query   int32
	probe   prober
}

// Index buckets the coded collection under (tables, hashes), which must
// not exceed the sketch's own.
func (s *HyperplaneSketch) Index(codes SignCodes, tables, hashes int) *HyperplaneIndex {
	if tables > s.tables || hashes > s.hashes || hashes < 1 {
		panic(fmt.Sprintf("lsh: index (%d tables, %d hashes) outside sketch (%d, %d)", tables, hashes, s.tables, s.hashes))
	}
	idx := &HyperplaneIndex{
		sketch: s, hashes: hashes,
		buckets: make([]map[uint64][]int32, max(tables, 0)),
		stamp:   make([]int32, codes.len()),
	}
	for i := range idx.stamp {
		idx.stamp[i] = -1
	}
	mask := keyMask(hashes)
	for t := range idx.buckets {
		b := map[uint64][]int32{}
		for e := 0; e < codes.len(); e++ {
			k := codes.Row(e)[t] & mask
			b[k] = append(b[k], int32(e))
		}
		idx.buckets[t] = b
	}
	return idx
}

// keyMask keeps the low hashes bits of a code; at 64 the shift yields 0
// and the mask wraps to all ones.
func keyMask(hashes int) uint64 { return 1<<uint(hashes) - 1 }

// Query invokes fn once for every indexed entity sharing one of the
// probes lowest-cost buckets with the query in any table. code is the
// query's sign-code row from the same sketch; v is its vector, projected
// again only when probes > 1 to weigh each bit flip by its margin.
func (idx *HyperplaneIndex) Query(v vector.Vec, code []uint64, probes int, fn func(e int32)) {
	if len(idx.stamp) == 0 {
		return
	}
	probes = max(probes, 1)
	idx.query++
	s, mask := idx.sketch, keyMask(idx.hashes)
	for t, buckets := range idx.buckets {
		base := code[t] & mask
		if probes > 1 {
			nopt, pen := idx.probe.reset(idx.hashes, 1)
			for i := range nopt {
				nopt[i] = 2
				pen[i<<1|1] = math.Abs(dot(s.planes[t][i*s.dim:(i+1)*s.dim], v))
			}
		}
		for _, flips := range idx.probe.sequence(probes) {
			for _, e1 := range buckets[base^flips] {
				if idx.stamp[e1] != idx.query {
					idx.stamp[e1] = idx.query
					fn(e1)
				}
			}
		}
	}
}

// Candidates indexes vecs1 and probes with every vector of vecs2.
func (h *Hyperplane) Candidates(vecs1, vecs2 []vector.Vec) ([]entity.Pair, error) {
	if len(vecs1) == 0 || len(vecs2) == 0 {
		return nil, h.Validate()
	}
	s, err := h.NewSketch(len(vecs1[0]))
	if err != nil {
		return nil, err
	}
	idx := s.Index(s.Sign(vecs1), s.tables, h.Hashes)
	codes2 := s.Sign(vecs2)
	var out []entity.Pair
	for j, v := range vecs2 {
		idx.Query(v, codes2.Row(j), h.Probes, func(e1 int32) {
			out = append(out, entity.Pair{Left: e1, Right: int32(j)})
		})
	}
	slices.SortFunc(out, entity.ComparePairs)
	return out, nil
}
