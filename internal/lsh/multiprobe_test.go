package lsh

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"erfilter/internal/entity"
	"erfilter/internal/vector"
)

// genericProbeSequence is the multi-probe enumeration the prober replaced,
// kept as the test oracle: choice slices, a boxed container/heap and
// string fingerprints for the seen set.
func genericProbeSequence(options [][]float64, max int) [][]int {
	if max <= 0 {
		return nil
	}
	n := len(options)
	base := make([]int, n)
	out := [][]int{base}
	if max == 1 || n == 0 {
		return out
	}
	pq := &genericHeap{}
	seen := map[string]bool{}
	push := func(choices []int) {
		k := fingerprint(choices)
		if seen[k] {
			return
		}
		seen[k] = true
		var c float64
		for p, i := range choices {
			c += options[p][i]
		}
		heap.Push(pq, genericState{choices: choices, cost: c})
	}
	for p := 0; p < n; p++ {
		if len(options[p]) > 1 {
			next := append([]int(nil), base...)
			next[p] = 1
			push(next)
		}
	}
	for pq.Len() > 0 && len(out) < max {
		s := heap.Pop(pq).(genericState)
		out = append(out, s.choices)
		for p := 0; p < n; p++ {
			if s.choices[p]+1 < len(options[p]) {
				next := append([]int(nil), s.choices...)
				next[p]++
				push(next)
			}
		}
	}
	return out
}

func fingerprint(choices []int) string {
	b := make([]byte, len(choices))
	for i, c := range choices {
		b[i] = byte(c)
	}
	return string(b)
}

type genericState struct {
	choices []int
	cost    float64
}

type genericHeap []genericState

func (h genericHeap) Len() int            { return len(h) }
func (h genericHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h genericHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *genericHeap) Push(x interface{}) { *h = append(*h, x.(genericState)) }
func (h *genericHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// probeChoices loads per-position penalty lists into pr and decodes the
// choice keys of its sequence into per-position choice slices.
func probeChoices(pr *prober, options [][]float64, width uint, max int) [][]int {
	nopt, pen := pr.reset(len(options), width)
	for p, opts := range options {
		nopt[p] = uint8(len(opts))
		copy(pen[p<<width:], opts)
	}
	var out [][]int
	for _, key := range pr.sequence(max) {
		c := make([]int, len(options))
		for p := range c {
			c[p] = int(key >> (uint(p) * width) & (1<<width - 1))
		}
		out = append(out, c)
	}
	return out
}

// randomOptions draws penalties for n positions of up to maxOpts choices
// from a coarse grid, so equal costs (and equal sums) are frequent.
func randomOptions(rng *rand.Rand, n, maxOpts int) [][]float64 {
	grid := []float64{0, 0.125, 0.25, 0.25, 0.5, 0.75, 1, 1}
	out := make([][]float64, n)
	for p := range out {
		k := 1 + rng.Intn(maxOpts)
		if maxOpts == 2 {
			k = 2
		}
		opts := []float64{0}
		for len(opts) < k {
			opts = append(opts, grid[rng.Intn(len(grid))])
		}
		slices.Sort(opts[1:])
		out[p] = opts
	}
	return out
}

// TestProbeEngineMatchesGenericOracle checks that the packed-key prober
// emits exactly the generic engine's sequence, order included, for
// hyperplane shapes (binary choices, up to 20 positions) and
// cross-polytope shapes (1–3 positions of up to 4 choices), at every
// max from 1 to 130. One prober serves every case, so stale scratch
// state would show.
func TestProbeEngineMatchesGenericOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pr := &prober{}
	shapes := []struct {
		name           string
		width          uint
		maxN, maxOpts  int
		trialsPerShape int
	}{
		{"hyperplane", 1, 20, 2, 40},
		{"cross-polytope", 2, 3, 4, 60},
	}
	for _, sh := range shapes {
		for trial := 0; trial < sh.trialsPerShape; trial++ {
			n := 1 + rng.Intn(sh.maxN)
			options := randomOptions(rng, n, sh.maxOpts)
			want := genericProbeSequence(options, 130)
			for max := 1; max <= 130; max++ {
				got := probeChoices(pr, options, sh.width, max)
				w := want[:min(max, len(want))]
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("%s trial %d, max %d, options %v:\n got %v\nwant %v", sh.name, trial, max, options, got, w)
				}
			}
		}
	}
}

// TestProberDoesNotAllocate pins the warm engine to zero allocations.
func TestProberDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	options := randomOptions(rng, 14, 2)
	pr := &prober{}
	run := func() {
		nopt, pen := pr.reset(len(options), 1)
		for p, opts := range options {
			nopt[p] = uint8(len(opts))
			copy(pen[p<<1:], opts)
		}
		pr.sequence(128)
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm prober allocates %v times per sequence", n)
	}
}

func mustCandidates(t *testing.T) func([]entity.Pair, error) []entity.Pair {
	return func(ps []entity.Pair, err error) []entity.Pair {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
}

func randomUnitVecs(n, dim int, seed uint64) []vector.Vec {
	out := make([]vector.Vec, n)
	buf := make([]float64, dim)
	for i := range out {
		vector.Gaussian(buf, seed+uint64(i))
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = float32(buf[j])
		}
		out[i] = vector.Normalize(v)
	}
	return out
}

// perTableCandidates is the hyperplane index the sketch replaced, kept as
// the test oracle: per table it draws exactly Hashes planes, projects
// every vector onto them, and multi-probes with the generic engine. It
// returns the pairs in emission order.
func perTableCandidates(h Hyperplane, vecs1, vecs2 []vector.Vec) []entity.Pair {
	dim := len(vecs1[0])
	type table struct {
		planes  []float64
		buckets map[uint64][]int32
	}
	project := func(planes []float64, v vector.Vec) (uint64, []float64) {
		var k uint64
		dots := make([]float64, h.Hashes)
		for i := range dots {
			row := planes[i*dim : (i+1)*dim]
			for j := range row {
				dots[i] += row[j] * float64(v[j])
			}
			if dots[i] >= 0 {
				k |= 1 << uint(i)
			}
		}
		return k, dots
	}
	tables := make([]table, h.Tables)
	for t := range tables {
		tables[t].planes = make([]float64, h.Hashes*dim)
		vector.Gaussian(tables[t].planes, h.Seed+uint64(t)*0x2545f4914f6cdd1d+11)
		tables[t].buckets = map[uint64][]int32{}
		for i, v := range vecs1 {
			k, _ := project(tables[t].planes, v)
			tables[t].buckets[k] = append(tables[t].buckets[k], int32(i))
		}
	}
	var out []entity.Pair
	for j, v := range vecs2 {
		seen := map[int32]bool{}
		for _, tb := range tables {
			base, dots := project(tb.planes, v)
			keys := []uint64{base}
			if h.Probes > 1 {
				options := make([][]float64, h.Hashes)
				for i := range options {
					options[i] = []float64{0, math.Abs(dots[i])}
				}
				keys = keys[:0]
				for _, choice := range genericProbeSequence(options, h.Probes) {
					k := base
					for bit, c := range choice {
						if c == 1 {
							k ^= 1 << uint(bit)
						}
					}
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				for _, e1 := range tb.buckets[k] {
					if !seen[e1] {
						seen[e1] = true
						out = append(out, entity.Pair{Left: e1, Right: int32(j)})
					}
				}
			}
		}
	}
	return out
}

// TestHyperplaneSketchMatchesPerTableIndex checks the prefix argument at
// the index layer: an index cut from a sketch drawn at larger (tables,
// hashes) emits exactly the pairs, in order, of a per-table index drawn
// at the configuration itself, at every probe count of the ladder.
func TestHyperplaneSketchMatchesPerTableIndex(t *testing.T) {
	for _, dim := range []int{17, 32} {
		vecs1 := randomUnitVecs(120, dim, 100)
		vecs2 := randomUnitVecs(25, dim, 900)
		for _, seed := range []uint64{1, 7} {
			top := Hyperplane{Tables: 6, Hashes: 20, Seed: seed}
			s, err := top.NewSketch(dim)
			if err != nil {
				t.Fatal(err)
			}
			codes1, codes2 := s.Sign(vecs1), s.Sign(vecs2)
			for _, shape := range [][2]int{{1, 1}, {3, 7}, {6, 20}, {4, 12}} {
				idx := s.Index(codes1, shape[0], shape[1])
				for _, probes := range []int{1, 2, 4, 16, 64} {
					var got []entity.Pair
					for j, v := range vecs2 {
						idx.Query(v, codes2.Row(j), probes, func(e1 int32) {
							got = append(got, entity.Pair{Left: e1, Right: int32(j)})
						})
					}
					want := perTableCandidates(Hyperplane{Tables: shape[0], Hashes: shape[1], Probes: probes, Seed: seed}, vecs1, vecs2)
					if !slices.Equal(got, want) {
						t.Fatalf("dim %d seed %d shape %v probes %d: %d pairs, want %d", dim, seed, shape, probes, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestHyperplaneRefusesWideHashes: sign bits past 64 used to be dropped
// silently, so a 70-hash table behaved as a 64-hash one.
func TestHyperplaneRefusesWideHashes(t *testing.T) {
	vecs := randomUnitVecs(4, 8, 1)
	for _, tc := range []struct {
		hashes int
		ok     bool
	}{
		{-1, false}, {0, false}, {1, true}, {20, true}, {64, true}, {65, false}, {70, false},
	} {
		h := &Hyperplane{Tables: 2, Hashes: tc.hashes, Probes: 4, Seed: 1}
		_, err := h.Candidates(vecs, vecs)
		if tc.ok != (err == nil) {
			t.Errorf("hashes=%d: err = %v, want ok=%v", tc.hashes, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "1..64") {
			t.Errorf("hashes=%d: error %q does not name the valid range", tc.hashes, err)
		}
		if _, err := h.NewSketch(8); tc.ok != (err == nil) {
			t.Errorf("hashes=%d: NewSketch err = %v, want ok=%v", tc.hashes, err, tc.ok)
		}
	}
}

// TestCrossPolytopeRefusesWideProbeKeys: a probe choice key packs two
// bits per hash function, so more than 32 hash functions cannot be
// multi-probed.
func TestCrossPolytopeRefusesWideProbeKeys(t *testing.T) {
	vecs := randomUnitVecs(4, 8, 2)
	for _, tc := range []struct {
		hashes int
		ok     bool
	}{
		{0, false}, {1, true}, {3, true}, {32, true}, {33, false}, {40, false},
	} {
		c := &CrossPolytope{Tables: 1, Hashes: tc.hashes, Probes: 4, Seed: 1}
		_, err := c.Candidates(vecs, vecs)
		if tc.ok != (err == nil) {
			t.Errorf("hashes=%d: err = %v, want ok=%v", tc.hashes, err, tc.ok)
		}
		if _, err := c.Build(vecs); tc.ok != (err == nil) {
			t.Errorf("hashes=%d: Build err = %v, want ok=%v", tc.hashes, err, tc.ok)
		}
	}
}
