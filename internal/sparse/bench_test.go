package sparse_test

import (
	"fmt"
	"sync"
	"testing"

	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// d10Probe is a frozen incremental index over the E1 side of the D10
// analog (movies) under C3G tokens, with the E2 token sets as queries:
// realistic token-frequency skew, where a typical query overlaps nearly
// every indexed set and keeps a handful.
type d10Probe struct {
	snap    *sparse.IncSnapshot
	queries [][]int32
}

func newD10Probe(tb testing.TB, scale float64) *d10Probe {
	task := datagen.ByName("D10", scale)
	if task == nil {
		tb.Fatal("datagen has no D10 analog")
	}
	t1 := entity.NewView(task.E1, entity.SchemaAgnostic, "").Texts()
	t2 := entity.NewView(task.E2, entity.SchemaAgnostic, "").Texts()
	model, err := text.ParseModel("C3G")
	if err != nil {
		tb.Fatal(err)
	}
	corpus := sparse.BuildCorpus(t1, t2, model)
	idx := sparse.NewIncIndex()
	for i, set := range corpus.Sets1 {
		if err := idx.Add(int64(i), set); err != nil {
			tb.Fatal(err)
		}
	}
	return &d10Probe{snap: idx.Freeze(), queries: corpus.Sets2}
}

var (
	d10Once sync.Once
	d10Full *d10Probe
	knnSink []sparse.IncNeighbor
)

// BenchmarkIncKNNQuery is the sparse-layer benchmark of the kNN-Join
// probe: ScanCount plus the top-k cut of one IncSnapshot.KNNQuery at the
// serving k and at the tuning grid's largest k, cycling through the D10
// E2 queries with one Scratch reused across them. Run it with
// `make bench-sparse`.
func BenchmarkIncKNNQuery(b *testing.B) {
	d10Once.Do(func() { d10Full = newD10Probe(b, 1) })
	p := d10Full
	for _, k := range []int{3, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var sc sparse.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				knnSink = p.snap.KNNQuery(p.queries[i%len(p.queries)], sparse.Cosine, k, &sc)
			}
		})
	}
}

// TestIncKNNQueryAllocs pins the output-sensitive cut's allocation
// budget: with a warm Scratch a KNNQuery allocates only its result.
func TestIncKNNQueryAllocs(t *testing.T) {
	p := newD10Probe(t, 0.02)
	var q []int32
	for _, cand := range p.queries {
		if len(cand) > len(q) {
			q = cand
		}
	}
	for _, k := range []int{1, 3, 100} {
		var sc sparse.Scratch
		if len(p.snap.KNNQuery(q, sparse.Cosine, k, &sc)) == 0 {
			t.Fatalf("k=%d: the probe query overlaps nothing", k)
		}
		allocs := testing.AllocsPerRun(50, func() { p.snap.KNNQuery(q, sparse.Cosine, k, &sc) })
		if allocs != 1 {
			t.Fatalf("k=%d: warm KNNQuery allocates %v times per query, want 1 (the result)", k, allocs)
		}
	}
}
