package core

import (
	"fmt"

	"erfilter/internal/entity"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// EpsJoinFilter is the range-join sparse NN method (ε-Join, Table IV).
type EpsJoinFilter struct {
	// Clean applies stop-word removal and stemming first (CL).
	Clean bool
	// Model is the representation model (RM).
	Model text.Model
	// Measure is the similarity measure (SM).
	Measure sparse.Measure
	// Threshold is the similarity threshold t.
	Threshold float64
}

// Name implements Filter.
func (f *EpsJoinFilter) Name() string {
	return fmt.Sprintf("eps-join[cl=%v,%s,%s,t=%.2f]", f.Clean, f.Model, f.Measure, f.Threshold)
}

// Run implements Filter.
func (f *EpsJoinFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	in.Texts(f.Clean) // cleaning is preprocessing; tokenizing is indexing
	out.Timing.Preprocess = sw.lap()

	corpus := in.Corpus(f.Clean, f.Model)
	idx := sparse.NewIndex(corpus.Sets1, corpus.NumTokens)
	out.Timing.Index = sw.lap()

	var pairs []entity.Pair
	for e2, q := range corpus.Sets2 {
		for _, n := range idx.RangeQuery(q, f.Measure, f.Threshold) {
			pairs = append(pairs, entity.Pair{Left: n.Entity, Right: int32(e2)})
		}
	}
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	out.Pairs = pairs
	return out, nil
}

// KNNJoinFilter is the k-nearest-neighbor-join sparse NN method (Table IV).
type KNNJoinFilter struct {
	// Clean applies stop-word removal and stemming first (CL).
	Clean bool
	// Model is the representation model (RM).
	Model text.Model
	// Measure is the similarity measure (SM).
	Measure sparse.Measure
	// K is the cardinality threshold: neighbors per query entity.
	K int
	// Reverse (RVS) indexes E2 and queries with E1 instead of the
	// default direction.
	Reverse bool
}

// Name implements Filter.
func (f *KNNJoinFilter) Name() string {
	return fmt.Sprintf("knn-join[cl=%v,%s,%s,k=%d,rvs=%v]", f.Clean, f.Model, f.Measure, f.K, f.Reverse)
}

// Run implements Filter.
func (f *KNNJoinFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	in.Texts(f.Clean) // cleaning is preprocessing; tokenizing is indexing
	out.Timing.Preprocess = sw.lap()

	corpus := in.Corpus(f.Clean, f.Model)
	indexSets, querySets := corpus.Sets1, corpus.Sets2
	if f.Reverse {
		indexSets, querySets = corpus.Sets2, corpus.Sets1
	}
	idx := sparse.NewIndex(indexSets, corpus.NumTokens)
	out.Timing.Index = sw.lap()

	var pairs []entity.Pair
	for qi, q := range querySets {
		for _, n := range idx.KNNQuery(q, f.Measure, f.K) {
			if f.Reverse {
				pairs = append(pairs, entity.Pair{Left: int32(qi), Right: n.Entity})
			} else {
				pairs = append(pairs, entity.Pair{Left: n.Entity, Right: int32(qi)})
			}
		}
	}
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	out.Pairs = pairs
	return out, nil
}
