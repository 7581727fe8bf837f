// Package sparse implements the sparse vector-based NN methods of Section
// IV-C: set-based similarity joins over token sets. It provides the three
// normalized set similarity measures (Cosine, Dice, Jaccard), a ScanCount
// inverted index suited to the low similarity thresholds of ER, the range
// join (ε-Join) and the k-nearest-neighbor join (kNN-Join) with the
// distinct-similarity-value tie semantics of the paper.
package sparse

import (
	"cmp"
	"math"

	"erfilter/internal/text"
)

// Measure is a normalized set similarity measure over token sets.
type Measure int

// The similarity measures of Section IV-C.
const (
	// Cosine is |A∩B| / sqrt(|A|·|B|).
	Cosine Measure = iota
	// Dice is 2·|A∩B| / (|A|+|B|).
	Dice
	// Jaccard is |A∩B| / |A∪B|.
	Jaccard
)

// Measures lists all similarity measures.
func Measures() []Measure { return []Measure{Cosine, Dice, Jaccard} }

// String implements fmt.Stringer.
func (m Measure) String() string {
	switch m {
	case Cosine:
		return "Cosine"
	case Dice:
		return "Dice"
	case Jaccard:
		return "Jaccard"
	}
	return "unknown"
}

// Sim computes the similarity from an overlap count and the two set sizes.
// It returns 0 when either set is empty.
func (m Measure) Sim(overlap, sizeA, sizeB int) float64 {
	if sizeA == 0 || sizeB == 0 || overlap == 0 {
		return 0
	}
	o := float64(overlap)
	a, b := float64(sizeA), float64(sizeB)
	switch m {
	case Cosine:
		return o / math.Sqrt(a*b)
	case Dice:
		return 2 * o / (a + b)
	case Jaccard:
		return o / (a + b - o)
	}
	return 0
}

// Corpus holds the dictionary-encoded token sets of the two collections of
// a Clean-Clean ER task. Token ids are shared across both collections so
// overlaps can be counted directly.
type Corpus struct {
	// Sets1 and Sets2 hold the token-id set of every entity. Multiset
	// models are already expanded to counter tokens, so each slice is a
	// set of distinct ids.
	Sets1, Sets2 [][]int32
	// NumTokens is the dictionary size.
	NumTokens int
}

// BuildCorpus tokenizes both collections under the representation model and
// encodes the tokens with a shared dictionary.
func BuildCorpus(texts1, texts2 []string, model text.Model) *Corpus {
	dict := map[string]int32{}
	encode := func(texts []string) [][]int32 {
		sets := make([][]int32, len(texts))
		for i, s := range texts {
			toks := model.Tokens(s)
			ids := make([]int32, 0, len(toks))
			for _, tok := range toks {
				id, ok := dict[tok]
				if !ok {
					id = int32(len(dict))
					dict[tok] = id
				}
				ids = append(ids, id)
			}
			sets[i] = ids
		}
		return sets
	}
	c := &Corpus{}
	c.Sets1 = encode(texts1)
	c.Sets2 = encode(texts2)
	c.NumTokens = len(dict)
	return c
}

// Index is a ScanCount inverted index over one collection of token sets.
// For a query set it merge-counts the posting lists of the query's tokens,
// yielding the overlap with every indexed set that shares at least one
// token. ScanCount is the ε-Join algorithm of choice for the low
// similarity thresholds typical of ER (Section IV-C).
type Index struct {
	postings [][]int32
	sizes    []int
	// scratch state for Query: stamped overlap counters.
	counts []int32
	stamp  []int32
	round  int32
	found  []int32
	// sims (parallel to found) and top are KNNQuery's cut buffers.
	sims []float64
	top  TopDistinct
}

// NewIndex builds a ScanCount index over the given token sets.
func NewIndex(sets [][]int32, numTokens int) *Index {
	idx := &Index{
		postings: make([][]int32, numTokens),
		sizes:    make([]int, len(sets)),
		counts:   make([]int32, len(sets)),
		stamp:    make([]int32, len(sets)),
		round:    0,
	}
	for i := range idx.stamp {
		idx.stamp[i] = -1
	}
	for e, set := range sets {
		idx.sizes[e] = len(set)
		for _, tok := range set {
			idx.postings[tok] = append(idx.postings[tok], int32(e))
		}
	}
	return idx
}

// Size returns the token-set size of indexed entity e.
func (idx *Index) Size(e int32) int { return idx.sizes[e] }

// Overlaps merge-counts the posting lists of the query set and invokes
// fn(entity, overlap) for every indexed entity sharing at least one token.
// The callback order is unspecified. The scratch buffers make repeated
// queries allocation-free; an Index must not be queried concurrently.
func (idx *Index) Overlaps(query []int32, fn func(e int32, overlap int)) {
	idx.round++
	idx.found = idx.found[:0]
	for _, tok := range query {
		if int(tok) >= len(idx.postings) {
			continue
		}
		for _, e := range idx.postings[tok] {
			if idx.stamp[e] != idx.round {
				idx.stamp[e] = idx.round
				idx.counts[e] = 0
				idx.found = append(idx.found, e)
			}
			idx.counts[e]++
		}
	}
	for _, e := range idx.found {
		fn(e, int(idx.counts[e]))
	}
}

// Neighbor is one query result: an indexed entity and its similarity to
// the query set.
type Neighbor struct {
	Entity int32
	Sim    float64
}

// RangeQuery returns the indexed entities whose similarity to the query set
// is at least eps, in unspecified order.
func (idx *Index) RangeQuery(query []int32, m Measure, eps float64) []Neighbor {
	var out []Neighbor
	qs := len(query)
	idx.Overlaps(query, func(e int32, overlap int) {
		if sim := m.Sim(overlap, qs, idx.sizes[e]); sim >= eps {
			out = append(out, Neighbor{Entity: e, Sim: sim})
		}
	})
	return out
}

// KNNQuery returns the indexed entities having the k highest *distinct*
// similarity values to the query, i.e. more than k entities are returned
// when some are equidistant from the query, per the paper's kNN-Join
// semantics. Entities with zero similarity are never returned. Results are
// ordered by similarity descending, then entity ascending; the cut is
// IncSnapshot.KNNQuery's (see SelectKNN).
func (idx *Index) KNNQuery(query []int32, m Measure, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	qs := len(query)
	idx.sims = idx.sims[:0]
	idx.Overlaps(query, func(e int32, overlap int) {
		idx.sims = append(idx.sims, m.Sim(overlap, qs, idx.sizes[e]))
	})
	return SelectKNN(idx.sims, k, &idx.top, func(i int, sim float64) Neighbor {
		return Neighbor{Entity: idx.found[i], Sim: sim}
	}, func(a, b Neighbor) int {
		if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
			return c
		}
		return cmp.Compare(a.Entity, b.Entity)
	})
}
