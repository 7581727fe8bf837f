package tuning

import (
	"fmt"
	"math"
	"slices"

	"erfilter/internal/core"
	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/lsh"
	"erfilter/internal/parallel"
	"erfilter/internal/vector"
)

// DenseSpace is the configuration space of the dense NN methods (Table V).
type DenseSpace struct {
	CleanOptions []bool
	// Repetitions averages stochastic methods over this many seeds
	// (the paper uses 10).
	Repetitions int

	// MinHash grid.
	MHBandRows [][2]int
	MHShingles []int

	// Hyperplane / Cross-Polytope grids.
	HPTables, HPHashes []int
	CPTables, CPHashes []int
	CPLastDims         []int
	// ProbeLadder is the auto-escalation sequence of multi-probe counts
	// used to reach the target recall (the paper sets probes
	// automatically the same way).
	ProbeLadder []int

	// MaxK bounds the cardinality threshold of FAISS/SCANN/DeepBlocker.
	MaxK int
	// AEHidden/AEEpochs bound the DeepBlocker autoencoder (0 = defaults).
	AEHidden, AEEpochs int

	// Workers bounds the grid-search worker pool (<=0 = NumCPU,
	// 1 = sequential). Results are identical at any worker count.
	Workers int
}

// DefaultDenseSpace returns the Table V grid; full=false thins each axis.
func DefaultDenseSpace(full bool) DenseSpace {
	s := DenseSpace{
		CleanOptions: []bool{false, true},
		Repetitions:  3,
		ProbeLadder:  []int{1, 2, 4, 8, 16, 32, 64, 128},
		MaxK:         1000,
	}
	if full {
		s.Repetitions = 10
		s.MaxK = 5000
		for _, product := range []int{128, 256, 512} {
			for rows := 2; rows <= product/2; rows *= 2 {
				s.MHBandRows = append(s.MHBandRows, [2]int{product / rows, rows})
			}
		}
		s.MHShingles = []int{2, 3, 4, 5}
		s.HPTables = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
		s.HPHashes = []int{4, 8, 12, 16, 20}
		s.CPTables = s.HPTables
		s.CPHashes = []int{1, 2, 3}
		s.CPLastDims = []int{1, 4, 16, 64, 256, 512}
	} else {
		s.MHBandRows = [][2]int{{16, 8}, {32, 8}, {32, 16}, {64, 8}, {16, 16}, {64, 4}, {128, 2}, {128, 4}}
		s.MHShingles = []int{2, 3, 5}
		s.HPTables = []int{4, 8, 16}
		s.HPHashes = []int{6, 10, 14}
		s.CPTables = []int{4, 8, 16}
		s.CPHashes = []int{1, 2}
		s.CPLastDims = []int{16, 64, 256}
		s.MaxK = 300
	}
	return s
}

// averageMetrics evaluates a stochastic filter over the repetitions and
// returns the mean PC/PQ/candidate count, as the paper does for stochastic
// methods.
func averageMetrics(in *core.Input, mk func(seed uint64) core.Filter, reps int) (core.Metrics, error) {
	return averageReps(reps, func(r int) (core.Metrics, error) {
		run := in.WithSeed(repSeed(in, r))
		out, err := mk(run.Seed).Run(run)
		if err != nil {
			return core.Metrics{}, err
		}
		return core.Evaluate(out.Pairs, in.Task.Truth), nil
	})
}

// repSeed is the seed of repetition r of a stochastic method.
func repSeed(in *core.Input, r int) uint64 { return in.Seed + uint64(r)*0x9e37 }

// averageReps returns the mean of the repetitions' metrics, summed in
// repetition order.
func averageReps(reps int, run func(r int) (core.Metrics, error)) (core.Metrics, error) {
	reps = max(reps, 1)
	var sum core.Metrics
	for r := 0; r < reps; r++ {
		m, err := run(r)
		if err != nil {
			return core.Metrics{}, err
		}
		sum.PC += m.PC
		sum.PQ += m.PQ
		sum.Candidates += m.Candidates
		sum.Matches += m.Matches
	}
	f := float64(reps)
	return core.Metrics{
		PC: sum.PC / f, PQ: sum.PQ / f,
		Candidates: sum.Candidates / reps, Matches: sum.Matches / reps,
	}, nil
}

// tuneDenseBranches runs one tracker-feeding closure per independent grid
// branch on the worker pool and reduces the branch trackers in canonical
// order. Unlike the sparse helper, branch closures may fail (filters
// return errors); the error surfaced is the lowest-index one, matching a
// sequential scan.
func tuneDenseBranches(workers, n int, method string, target float64, fn func(tr *tracker, bi int) error) (*Result, error) {
	trackers := make([]*tracker, n)
	err := parallel.ForEach(workers, n, func(bi int) error {
		tr := newTracker(method, target)
		if err := fn(tr, bi); err != nil {
			return err
		}
		trackers[bi] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeTrackers(method, target, trackers), nil
}

// TuneMinHash grid-searches MinHash LSH under Problem 1. Every
// (CL, bands×rows, k) cell is independent and evaluated concurrently.
func TuneMinHash(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean bool
		br    [2]int
		k     int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, br := range space.MHBandRows {
			for _, k := range space.MHShingles {
				branches = append(branches, branch{clean, br, k})
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "MH-LSH", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		m, err := averageMetrics(in, func(seed uint64) core.Filter {
			return &core.MinHashFilter{Clean: b.clean, Bands: b.br[0], Rows: b.br[1], K: b.k}
		}, space.Repetitions)
		if err != nil {
			return err
		}
		f := &core.MinHashFilter{Clean: b.clean, Bands: b.br[0], Rows: b.br[1], K: b.k}
		tr.offer(m, f, map[string]string{
			"CL": fmtBool(b.clean), "#bands": fmt.Sprintf("%d", b.br[0]),
			"#rows": fmt.Sprintf("%d", b.br[1]), "k": fmt.Sprintf("%d", b.k),
		})
		return nil
	})
}

// TuneHyperplane grid-searches Hyperplane LSH; for every (CL, tables,
// hashes) cell the probe count escalates along the ladder until the target
// recall is reached, mirroring the paper's automatic multi-probe setting.
// The (CL, tables, hashes) branches fan out; each probe ladder stays
// sequential because its termination depends on the previous rung.
//
// Grid-invariant work is done once: every repetition's seed gets one
// hyperplane sketch at the grid's largest tables and hashes, every (CL,
// repetition) signs both collections under it once, and those codes
// serve every smaller grid point (see lsh.HyperplaneSketch). Every branch
// buckets each repetition once for its whole probe ladder. The metrics
// equal those of HyperplaneFilter.Run at every grid point.
func TuneHyperplane(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean          int // index into space.CleanOptions
		tables, hashes int
	}
	var branches []branch
	for ci := range space.CleanOptions {
		for _, tables := range space.HPTables {
			for _, hashes := range space.HPHashes {
				branches = append(branches, branch{ci, tables, hashes})
			}
		}
	}
	if len(branches) == 0 {
		return mergeTrackers("HP-LSH", target, nil), nil
	}
	top := lsh.Hyperplane{Tables: slices.Max(space.HPTables), Hashes: slices.Max(space.HPHashes)}
	for _, hashes := range space.HPHashes {
		if err := (&lsh.Hyperplane{Hashes: hashes}).Validate(); err != nil {
			return nil, err
		}
	}

	// One sketch per repetition (the planes do not depend on CL), and
	// the sign codes of both collections per (CL, repetition).
	reps := max(space.Repetitions, 1)
	sketches, err := parallel.Map(space.Workers, reps, func(r int) (*lsh.HyperplaneSketch, error) {
		h := top
		h.Seed = repSeed(in, r)
		return h.NewSketch(in.EmbedDim())
	})
	if err != nil {
		return nil, err
	}
	type signed struct {
		sketch         *lsh.HyperplaneSketch
		codes1, codes2 lsh.SignCodes
		queries        []vector.Vec
	}
	coded, err := parallel.Map(space.Workers, len(space.CleanOptions)*reps, func(i int) (signed, error) {
		v1, v2 := in.Embeddings(space.CleanOptions[i/reps])
		s := sketches[i%reps]
		return signed{s, s.Sign(v1), s.Sign(v2), v2}, nil
	})
	if err != nil {
		return nil, err
	}

	truth := in.Task.Truth
	return tuneDenseBranches(space.Workers, len(branches), "HP-LSH", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		clean := space.CleanOptions[b.clean]
		own := coded[b.clean*reps : (b.clean+1)*reps]
		idxs := make([]*lsh.HyperplaneIndex, reps)
		for r, sk := range own {
			idxs[r] = sk.sketch.Index(sk.codes1, b.tables, b.hashes)
		}
		for _, probes := range space.ProbeLadder {
			// Counting cannot fail, so averageReps returns no error here.
			m, _ := averageReps(reps, func(r int) (core.Metrics, error) {
				sk, idx := own[r], idxs[r]
				cands, matches, qi := 0, 0, int32(0)
				count := func(e1 int32) {
					cands++
					if truth.Contains(pair(e1, qi)) {
						matches++
					}
				}
				for j, v := range sk.queries {
					qi = int32(j)
					idx.Query(v, sk.codes2.Row(j), probes, count)
				}
				return metricsFromCounts(cands, matches, truth.Size()), nil
			})
			f := &core.HyperplaneFilter{Clean: clean, Tables: b.tables, Hashes: b.hashes, Probes: probes}
			tr.offer(m, f, map[string]string{
				"CL": fmtBool(clean), "#tables": fmt.Sprintf("%d", b.tables),
				"#hashes": fmt.Sprintf("%d", b.hashes), "#probes": fmt.Sprintf("%d", probes),
			})
			if m.PC >= target {
				break
			}
		}
		return nil
	})
}

// TuneCrossPolytope grid-searches Cross-Polytope LSH with the same
// probe-escalation rule; (CL, tables, hashes, last CP dim) branches fan
// out.
func TuneCrossPolytope(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean                   bool
		tables, hashes, lastDim int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, tables := range space.CPTables {
			for _, hashes := range space.CPHashes {
				for _, lastDim := range space.CPLastDims {
					branches = append(branches, branch{clean, tables, hashes, lastDim})
				}
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "CP-LSH", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		for _, probes := range space.ProbeLadder {
			probes := probes
			m, err := averageMetrics(in, func(seed uint64) core.Filter {
				return &core.CrossPolytopeFilter{Clean: b.clean, Tables: b.tables, Hashes: b.hashes, LastCPDim: b.lastDim, Probes: probes}
			}, space.Repetitions)
			if err != nil {
				return err
			}
			f := &core.CrossPolytopeFilter{Clean: b.clean, Tables: b.tables, Hashes: b.hashes, LastCPDim: b.lastDim, Probes: probes}
			tr.offer(m, f, map[string]string{
				"CL": fmtBool(b.clean), "#tables": fmt.Sprintf("%d", b.tables),
				"#hashes": fmt.Sprintf("%d", b.hashes),
				"cp dim":  fmt.Sprintf("%d", b.lastDim),
				"#probes": fmt.Sprintf("%d", probes),
			})
			if m.PC >= target {
				break
			}
		}
		return nil
	})
}

// kGrid returns the paper's cardinality-threshold grid: [1,100] step 1,
// [105,1000] step 5, [1010,5000] step 10, capped at maxK.
func kGrid(maxK int) []int {
	var out []int
	add := func(lo, hi, step int) {
		for k := lo; k <= hi && k <= maxK; k += step {
			out = append(out, k)
		}
	}
	add(1, 100, 1)
	add(105, 1000, 5)
	add(1010, 5000, 10)
	return out
}

// sweepCardinality computes per-K metrics from ranked search results and
// feeds them to the tracker ascending, stopping at the first K that
// reaches the target. search(queries, k) must return the per-query ranked
// hit lists.
func sweepCardinality(
	tr *tracker, in *core.Input, target float64,
	idx knn.Searcher, queries []vector.Vec, reverse bool, maxK int,
	mkFilter func(k int) core.Filter, mkConfig func(k int) map[string]string,
) {
	grid := kGrid(maxK)
	if len(grid) == 0 {
		return
	}
	top := grid[len(grid)-1]
	truth := in.Task.Truth

	// One search per query at the largest K; prefix counts give every
	// smaller K for free.
	candAt := make([]int, top)
	matchAt := make([]int, top)
	for qi, q := range queries {
		for rank, r := range idx.Search(q, top) {
			candAt[rank]++
			p := entity.Pair{Left: r.ID, Right: int32(qi)}
			if reverse {
				p = entity.Pair{Left: int32(qi), Right: r.ID}
			}
			if truth.Contains(p) {
				matchAt[rank]++
			}
		}
	}
	cands, matches := 0, 0
	next := 0
	for k := 1; k <= top; k++ {
		cands += candAt[k-1]
		matches += matchAt[k-1]
		if next < len(grid) && grid[next] == k {
			next++
			m := metricsFromCounts(cands, matches, truth.Size())
			tr.offer(m, mkFilter(k), mkConfig(k))
			if m.PC >= target {
				return
			}
		}
	}
}

// TuneFlatKNN grid-searches the FAISS analog (CL × RVS × K); the four
// (CL, RVS) branches fan out, the ascending K sweep early-terminates
// inside each.
func TuneFlatKNN(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct{ clean, reverse bool }
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, reverse := range []bool{false, true} {
			branches = append(branches, branch{clean, reverse})
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "FAISS", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		v1, v2 := in.Embeddings(b.clean)
		indexed, queries := v1, v2
		if b.reverse {
			indexed, queries = v2, v1
		}
		idx := knn.NewFlat(indexed, knn.L2Squared)
		maxK := space.MaxK
		if maxK > len(indexed) {
			maxK = len(indexed)
		}
		clean, reverse := b.clean, b.reverse
		sweepCardinality(tr, in, target, idx, queries, reverse, maxK,
			func(k int) core.Filter {
				return &core.FlatKNNFilter{Clean: clean, K: k, Reverse: reverse}
			},
			func(k int) map[string]string {
				return map[string]string{
					"CL": fmtBool(clean), "RVS": fmtBool(reverse), "K": fmt.Sprintf("%d", k),
				}
			})
		return nil
	})
}

// TunePartitioned grid-searches the SCANN analog
// (CL × RVS × {BF,AH} × {DP,L2²} × K) over 16 independent branches.
func TunePartitioned(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean, reverse bool
		scoring        knn.Scoring
		metric         knn.Metric
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, reverse := range []bool{false, true} {
			for _, scoring := range []knn.Scoring{knn.BruteForce, knn.AsymmetricHashing} {
				for _, metric := range []knn.Metric{knn.DotProduct, knn.L2Squared} {
					branches = append(branches, branch{clean, reverse, scoring, metric})
				}
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "SCANN", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		v1, v2 := in.Embeddings(b.clean)
		indexed, queries := v1, v2
		if b.reverse {
			indexed, queries = v2, v1
		}
		idx := knn.NewPartitioned(indexed, knn.PartitionedConfig{
			Metric: b.metric, Scoring: b.scoring, Seed: in.Seed,
		})
		maxK := space.MaxK
		if maxK > len(indexed) {
			maxK = len(indexed)
		}
		clean, reverse, scoring, metric := b.clean, b.reverse, b.scoring, b.metric
		sweepCardinality(tr, in, target, idx, queries, reverse, maxK,
			func(k int) core.Filter {
				return &core.PartitionedKNNFilter{Clean: clean, K: k, Reverse: reverse, Scoring: scoring, Metric: metric}
			},
			func(k int) map[string]string {
				return map[string]string{
					"CL": fmtBool(clean), "RVS": fmtBool(reverse),
					"index": scoring.String(), "similarity": metric.String(),
					"K": fmt.Sprintf("%d", k),
				}
			})
		return nil
	})
}

// TuneDeepBlocker grid-searches the DeepBlocker analog (CL × RVS × K),
// averaging over the repetitions because training is stochastic. The
// autoencoder is trained once per (CL, seed) and shared across the RVS and
// K axes; the (CL, seed) training branches fan out, and their per-cell
// sums are reduced in canonical branch order so the floating-point
// accumulation matches the sequential pass bit for bit.
func TuneDeepBlocker(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	reps := space.Repetitions
	if reps < 1 {
		reps = 1
	}
	type cell struct {
		pcSum, pqSum float64
		cands, match int
	}
	truth := in.Task.Truth
	keyOf := func(clean, reverse bool, k int) string {
		return fmt.Sprintf("%v/%v/%d", clean, reverse, k)
	}
	maxK := space.MaxK

	type branch struct {
		clean bool
		rep   int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for r := 0; r < reps; r++ {
			branches = append(branches, branch{clean, r})
		}
	}

	// Each branch trains one autoencoder and sweeps both directions,
	// contributing one repetition's counts per (CL, RVS, K) cell.
	partials, err := parallel.Map(space.Workers, len(branches), func(bi int) (map[string]*cell, error) {
		b := branches[bi]
		part := map[string]*cell{}
		v1, v2 := in.Embeddings(b.clean)
		seed := in.Seed + uint64(b.rep)*0x51ed
		training := make([]vector.Vec, 0, len(v1)+len(v2))
		training = append(training, v1...)
		training = append(training, v2...)
		ae := trainAE(training, space, seed)
		e1 := ae.EncodeAll(v1)
		e2 := ae.EncodeAll(v2)
		for _, reverse := range []bool{false, true} {
			indexed, queries := e1, e2
			if reverse {
				indexed, queries = e2, e1
			}
			idx := knn.NewFlat(indexed, knn.L2Squared)
			top := maxK
			if top > len(indexed) {
				top = len(indexed)
			}
			candAt := make([]int, top)
			matchAt := make([]int, top)
			for qi, q := range queries {
				for rank, res := range idx.Search(q, top) {
					candAt[rank]++
					p := entity.Pair{Left: res.ID, Right: int32(qi)}
					if reverse {
						p = entity.Pair{Left: int32(qi), Right: res.ID}
					}
					if truth.Contains(p) {
						matchAt[rank]++
					}
				}
			}
			cands, matches := 0, 0
			next := 0
			grid := kGrid(top)
			for k := 1; k <= top; k++ {
				cands += candAt[k-1]
				matches += matchAt[k-1]
				if next < len(grid) && grid[next] == k {
					next++
					c := part[keyOf(b.clean, reverse, k)]
					if c == nil {
						c = &cell{}
						part[keyOf(b.clean, reverse, k)] = c
					}
					m := metricsFromCounts(cands, matches, truth.Size())
					c.pcSum += m.PC
					c.pqSum += m.PQ
					c.cands += m.Candidates
					c.match += m.Matches
					// Stop this repetition's sweep a little past the
					// target to bound work while keeping the averaged
					// cells complete near the decision boundary.
					if m.PC >= math.Min(1, target+0.05) {
						break
					}
				}
			}
		}
		return part, nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce the per-branch sums in branch (clean, repetition) order:
	// each key receives its repetitions' contributions in the same order
	// as the sequential loop, keeping the float sums identical.
	best := map[string]*cell{}
	for _, part := range partials {
		for key, pc := range part {
			c := best[key]
			if c == nil {
				c = &cell{}
				best[key] = c
			}
			c.pcSum += pc.pcSum
			c.pqSum += pc.pqSum
			c.cands += pc.cands
			c.match += pc.match
		}
	}

	tr := newTracker("DeepBlocker", target)
	for _, clean := range space.CleanOptions {
		for _, reverse := range []bool{false, true} {
			for _, k := range kGrid(maxK) {
				c := best[keyOf(clean, reverse, k)]
				if c == nil {
					continue
				}
				f := float64(reps)
				m := core.Metrics{PC: c.pcSum / f, PQ: c.pqSum / f, Candidates: c.cands / reps, Matches: c.match / reps}
				filter := &core.DeepBlockerFilter{Clean: clean, K: k, Reverse: reverse, Hidden: space.AEHidden, Epochs: space.AEEpochs}
				cfg := map[string]string{
					"CL": fmtBool(clean), "RVS": fmtBool(reverse), "K": fmt.Sprintf("%d", k),
				}
				tr.offer(m, filter, cfg)
				if m.PC >= target {
					break
				}
			}
		}
	}
	return tr.result(), nil
}

// trainAE trains the DeepBlocker autoencoder with the space's bounds.
func trainAE(training []vector.Vec, space DenseSpace, seed uint64) aeEncoder {
	return aeTrain(training, space.AEHidden, space.AEEpochs, seed)
}
