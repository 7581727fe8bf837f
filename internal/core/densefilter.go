package core

import (
	"fmt"

	"erfilter/internal/deepblocker"
	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/lsh"
	"erfilter/internal/vector"
)

// MinHashFilter is MinHash LSH over character k-shingles (Table V). It is
// the only dense NN method with a syntactic scope (Table I).
type MinHashFilter struct {
	Clean       bool
	Bands, Rows int
	// K is the shingle size.
	K int
}

// Name implements Filter.
func (f *MinHashFilter) Name() string {
	return fmt.Sprintf("mh-lsh[cl=%v,bands=%d,rows=%d,k=%d]", f.Clean, f.Bands, f.Rows, f.K)
}

// Run implements Filter.
func (f *MinHashFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	t1, t2 := in.Texts(f.Clean)
	out.Timing.Preprocess = sw.lap()

	mh := &lsh.MinHash{Bands: f.Bands, Rows: f.Rows, K: f.K, Seed: in.Seed}
	idx := mh.Build(t1)
	out.Timing.Index = sw.lap()

	var pairs []entity.Pair
	for j, s := range t2 {
		idx.Query(s, func(e1 int32) {
			pairs = append(pairs, entity.Pair{Left: e1, Right: int32(j)})
		})
	}
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	out.Pairs = pairs
	return out, nil
}

// HyperplaneFilter is Hyperplane LSH over tuple embeddings (Table V).
type HyperplaneFilter struct {
	Clean          bool
	Tables, Hashes int
	Probes         int
}

// Name implements Filter.
func (f *HyperplaneFilter) Name() string {
	return fmt.Sprintf("hp-lsh[cl=%v,tables=%d,hashes=%d,probes=%d]", f.Clean, f.Tables, f.Hashes, f.Probes)
}

// Run implements Filter.
func (f *HyperplaneFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	v1, v2 := in.Embeddings(f.Clean)
	out.Timing.Preprocess = sw.lap()

	hp := &lsh.Hyperplane{Tables: f.Tables, Hashes: f.Hashes, Probes: f.Probes, Seed: in.Seed}
	sketch, err := hp.NewSketch(in.embDim)
	if err != nil {
		return nil, err
	}
	idx := sketch.Index(sketch.Sign(v1), f.Tables, f.Hashes)
	out.Timing.Index = sw.lap()

	var pairs []entity.Pair
	codes2 := sketch.Sign(v2)
	for j, v := range v2 {
		idx.Query(v, codes2.Row(j), f.Probes, func(e1 int32) {
			pairs = append(pairs, entity.Pair{Left: e1, Right: int32(j)})
		})
	}
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	out.Pairs = pairs
	return out, nil
}

// CrossPolytopeFilter is Cross-Polytope LSH over tuple embeddings.
type CrossPolytopeFilter struct {
	Clean          bool
	Tables, Hashes int
	LastCPDim      int
	Probes         int
}

// Name implements Filter.
func (f *CrossPolytopeFilter) Name() string {
	return fmt.Sprintf("cp-lsh[cl=%v,tables=%d,hashes=%d,cpdim=%d,probes=%d]",
		f.Clean, f.Tables, f.Hashes, f.LastCPDim, f.Probes)
}

// Run implements Filter.
func (f *CrossPolytopeFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	v1, v2 := in.Embeddings(f.Clean)
	out.Timing.Preprocess = sw.lap()

	cp := &lsh.CrossPolytope{Tables: f.Tables, Hashes: f.Hashes, LastCPDim: f.LastCPDim, Probes: f.Probes, Seed: in.Seed}
	idx, err := cp.Build(v1)
	if err != nil {
		return nil, err
	}
	out.Timing.Index = sw.lap()

	var pairs []entity.Pair
	for j, v := range v2 {
		idx.Query(v, func(e1 int32) {
			pairs = append(pairs, entity.Pair{Left: e1, Right: int32(j)})
		})
	}
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	out.Pairs = pairs
	return out, nil
}

// searchToPairs runs the kNN search of every query vector against the
// index and converts the hits to pairs, honoring the RVS direction.
func searchToPairs(idx knn.Searcher, queries []vector.Vec, k int, reverse bool) []entity.Pair {
	var pairs []entity.Pair
	for qi, q := range queries {
		for _, r := range idx.Search(q, k) {
			if reverse {
				pairs = append(pairs, entity.Pair{Left: int32(qi), Right: r.ID})
			} else {
				pairs = append(pairs, entity.Pair{Left: r.ID, Right: int32(qi)})
			}
		}
	}
	return pairs
}

// FlatKNNFilter is the FAISS analog: exact (Flat-index) kNN search over
// normalized tuple embeddings with Euclidean distance, the configuration
// the paper settles on for FAISS.
type FlatKNNFilter struct {
	Clean   bool
	K       int
	Reverse bool
}

// Name implements Filter.
func (f *FlatKNNFilter) Name() string {
	return fmt.Sprintf("faiss-flat[cl=%v,k=%d,rvs=%v]", f.Clean, f.K, f.Reverse)
}

// Run implements Filter.
func (f *FlatKNNFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	v1, v2 := in.Embeddings(f.Clean)
	out.Timing.Preprocess = sw.lap()

	indexed, queries := v1, v2
	if f.Reverse {
		indexed, queries = v2, v1
	}
	idx := knn.NewFlat(indexed, knn.L2Squared)
	out.Timing.Index = sw.lap()

	out.Pairs = searchToPairs(idx, queries, f.K, f.Reverse)
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	return out, nil
}

// PartitionedKNNFilter is the SCANN analog: k-means-partitioned kNN search
// with brute-force or asymmetric-hashing scoring.
type PartitionedKNNFilter struct {
	Clean   bool
	K       int
	Reverse bool
	Scoring knn.Scoring
	Metric  knn.Metric
}

// Name implements Filter.
func (f *PartitionedKNNFilter) Name() string {
	return fmt.Sprintf("scann[cl=%v,k=%d,rvs=%v,%s,%s]", f.Clean, f.K, f.Reverse, f.Scoring, f.Metric)
}

// Run implements Filter.
func (f *PartitionedKNNFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	v1, v2 := in.Embeddings(f.Clean)
	out.Timing.Preprocess = sw.lap()

	indexed, queries := v1, v2
	if f.Reverse {
		indexed, queries = v2, v1
	}
	idx := knn.NewPartitioned(indexed, knn.PartitionedConfig{
		Metric:  f.Metric,
		Scoring: f.Scoring,
		Seed:    in.Seed,
	})
	out.Timing.Index = sw.lap()

	out.Pairs = searchToPairs(idx, queries, f.K, f.Reverse)
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	return out, nil
}

// DeepBlockerFilter is the DeepBlocker analog: the Autoencoder
// tuple-embedding module trained self-supervised on the (substituted)
// fastText embeddings, with exact kNN for indexing and querying. Training
// happens in the preprocessing phase, which dominates the run-time, as the
// paper observes.
type DeepBlockerFilter struct {
	Clean   bool
	K       int
	Reverse bool
	// Hidden and Epochs override the autoencoder defaults (0 = default).
	Hidden, Epochs int
}

// Name implements Filter.
func (f *DeepBlockerFilter) Name() string {
	return fmt.Sprintf("deepblocker[cl=%v,k=%d,rvs=%v]", f.Clean, f.K, f.Reverse)
}

// Run implements Filter.
func (f *DeepBlockerFilter) Run(in *Input) (*Outcome, error) {
	sw := newStopwatch()
	out := &Outcome{}

	v1, v2 := in.Embeddings(f.Clean)
	// Train on the union of both collections (self-supervised).
	training := make([]vector.Vec, 0, len(v1)+len(v2))
	training = append(training, v1...)
	training = append(training, v2...)
	ae := deepblocker.Train(training, deepblocker.TrainConfig{
		Hidden: f.Hidden,
		Epochs: f.Epochs,
		Seed:   in.Seed,
	})
	e1 := ae.EncodeAll(v1)
	e2 := ae.EncodeAll(v2)
	out.Timing.Preprocess = sw.lap()

	indexed, queries := e1, e2
	if f.Reverse {
		indexed, queries = e2, e1
	}
	idx := knn.NewFlat(indexed, knn.L2Squared)
	out.Timing.Index = sw.lap()

	out.Pairs = searchToPairs(idx, queries, f.K, f.Reverse)
	out.Timing.Query = sw.lap()
	out.Timing.Total = sw.total()
	return out, nil
}
