package tuning

import (
	"sync"
	"testing"

	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
)

// The tuning-layer benchmarks run on the D4 (bibliographic) analog at
// scale 0.05 under schema-agnostic settings with 96-dimensional
// embeddings and 2 workers: one cell of the offline-tune benchmark
// workload. Run them with `make bench-tuning`.
var (
	d4Once sync.Once
	d4Task *entity.Task
)

func d4Input(b *testing.B) *core.Input {
	d4Once.Do(func() { d4Task = datagen.ByName("D4", 0.05) })
	if d4Task == nil {
		b.Fatal("datagen has no D4 analog")
	}
	in := core.NewInputDim(d4Task, entity.SchemaAgnostic, 96)
	in.Seed = 1
	return in
}

// BenchmarkTuneHyperplane times TuneHyperplane over the default grid
// with the embeddings already cached, as they are when bench.Run reaches
// the dense tuners.
func BenchmarkTuneHyperplane(b *testing.B) {
	in := d4Input(b)
	for _, clean := range []bool{false, true} {
		in.Embeddings(clean)
	}
	space := DefaultDenseSpace(false)
	space.Workers = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TuneHyperplane(in, space, DefaultTarget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneSparse times TuneEpsJoin then TuneKNNJoin on one shared
// input, as bench.Run runs them. Each iteration starts from a fresh
// input with cleaned texts, so the corpora are tokenized inside the
// timed region.
func BenchmarkTuneSparse(b *testing.B) {
	base := d4Input(b)
	space := DefaultSparseSpace(false)
	space.Workers = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := base.Fresh()
		in.Texts(true)
		b.StartTimer()
		TuneEpsJoin(in, space, DefaultTarget)
		TuneKNNJoin(in, space, DefaultTarget)
	}
}
