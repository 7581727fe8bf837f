package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fullSortKNN is the oracle for the kNN-Join cut: the algorithm the
// indexes ran before SelectKNN. It scores every set by a naive overlap,
// sorts every positive candidate by (sim desc, id asc) and keeps the
// prefix spanning k distinct similarity values.
func fullSortKNN(ids []int64, sets [][]int32, query []int32, m Measure, k int) []IncNeighbor {
	if k <= 0 {
		return nil
	}
	var cands []IncNeighbor
	for i, set := range sets {
		if sim := m.Sim(naiveOverlap(query, set), len(query), len(set)); sim > 0 {
			cands = append(cands, IncNeighbor{ID: ids[i], Sim: sim})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Sim != cands[j].Sim {
			return cands[i].Sim > cands[j].Sim
		}
		return cands[i].ID < cands[j].ID
	})
	distinct := 0
	last := math.Inf(1)
	for i, c := range cands {
		if c.Sim != last {
			if distinct == k {
				return cands[:i]
			}
			distinct++
			last = c.Sim
		}
	}
	return cands
}

// tieHeavySets draws n sets of 1..4 distinct tokens from a small
// vocabulary, so many sets share a similarity to any query.
func tieHeavySets(rng *rand.Rand, n, vocab int) [][]int32 {
	sets := make([][]int32, n)
	for i := range sets {
		perm := rng.Perm(vocab)[:1+rng.Intn(4)]
		for _, tok := range perm {
			sets[i] = append(sets[i], int32(tok))
		}
	}
	return sets
}

// TestKNNQueryMatchesFullSortOracle checks the output-sensitive cut of
// IncSnapshot.KNNQuery and Index.KNNQuery against the full-sort oracle,
// order and similarity exactly, over tie-heavy random indexes with
// tombstoned slots, every measure, k below and above the number of
// distinct values and the overlap count, and queries overlapping nothing.
func TestKNNQueryMatchesFullSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sc Scratch // shared across every query, as a pooled Scratch is
	for trial := 0; trial < 300; trial++ {
		vocab := 4 + rng.Intn(8)
		sets := tieHeavySets(rng, rng.Intn(60), vocab)
		inc := NewIncIndex()
		for i, set := range sets {
			if err := inc.Add(int64(3*i+1), set); err != nil {
				t.Fatal(err)
			}
		}
		var liveIDs []int64
		var liveSets [][]int32
		for i, set := range sets {
			id := int64(3*i + 1)
			if rng.Intn(4) == 0 {
				inc.Remove(id)
				continue
			}
			liveIDs = append(liveIDs, id)
			liveSets = append(liveSets, set)
		}
		snap := inc.Freeze()
		batch := NewIndex(liveSets, vocab)

		queries := tieHeavySets(rng, 4, vocab)
		queries = append(queries,
			[]int32{int32(vocab), int32(vocab + 1)}, // tokens no set holds
			nil,                                     // the empty query
		)
		for qi, q := range queries {
			for _, m := range Measures() {
				for _, k := range []int{1, 2, 3, 7, 100} {
					want := fullSortKNN(liveIDs, liveSets, q, m, k)
					if got := snap.KNNQuery(q, m, k, &sc); !slices.Equal(got, want) {
						t.Fatalf("trial %d query %d %v k=%d: IncSnapshot.KNNQuery = %v, want %v", trial, qi, m, k, got, want)
					}
					got := batch.KNNQuery(q, m, k)
					mapped := make([]IncNeighbor, len(got))
					for i, n := range got {
						mapped[i] = IncNeighbor{ID: liveIDs[n.Entity], Sim: n.Sim}
					}
					if !slices.Equal(mapped, want) {
						t.Fatalf("trial %d query %d %v k=%d: Index.KNNQuery = %v, want %v", trial, qi, m, k, mapped, want)
					}
				}
			}
		}
	}
}

func TestTopDistinct(t *testing.T) {
	var top TopDistinct
	if f := top.floor(); !math.IsInf(f, 1) {
		t.Fatalf("empty floor = %v, want +Inf", f)
	}
	top.reset(3)
	for _, s := range []float64{0.5, 0, 0.2, 0.5, -1, 0.9, 0.2, 0.7, 0.1, 0.9} {
		top.offer(s)
	}
	if want := []float64{0.9, 0.7, 0.5}; !slices.Equal(top.vals, want) {
		t.Fatalf("kept %v, want %v", top.vals, want)
	}
	if f := top.floor(); f != 0.5 {
		t.Fatalf("floor = %v, want 0.5", f)
	}
	top.reset(5)
	top.offer(0.3)
	top.offer(0.3)
	if f := top.floor(); f != 0.3 || len(top.vals) != 1 {
		t.Fatalf("after a repeated value: kept %v, floor %v", top.vals, f)
	}
}
