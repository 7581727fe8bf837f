package core

import (
	"reflect"
	"sync"
	"testing"

	"erfilter/internal/blocking"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
	"erfilter/internal/metablocking"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

func quickTask(t *testing.T) *entity.Task {
	t.Helper()
	return datagen.Generate(datagen.QuickSpec(60, 150, 40, 42))
}

func TestEvaluate(t *testing.T) {
	truth := entity.NewGroundTruth([]entity.Pair{{Left: 0, Right: 0}, {Left: 1, Right: 1}})
	pairs := []entity.Pair{
		{Left: 0, Right: 0}, // match
		{Left: 0, Right: 0}, // duplicate entry, counted once
		{Left: 0, Right: 1}, // non-match
		{Left: 2, Right: 2}, // non-match
	}
	m := Evaluate(pairs, truth)
	if m.Candidates != 3 {
		t.Fatalf("candidates = %d", m.Candidates)
	}
	if m.Matches != 1 {
		t.Fatalf("matches = %d", m.Matches)
	}
	if m.PC != 0.5 {
		t.Fatalf("PC = %v", m.PC)
	}
	if m.PQ != 1.0/3.0 {
		t.Fatalf("PQ = %v", m.PQ)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	truth := entity.NewGroundTruth(nil)
	m := Evaluate(nil, truth)
	if m.PC != 0 || m.PQ != 0 || m.Candidates != 0 {
		t.Fatalf("empty evaluation = %+v", m)
	}
}

func TestBlockingWorkflowEndToEnd(t *testing.T) {
	task := quickTask(t)
	in := NewInput(task, entity.SchemaAgnostic)
	w := &BlockingWorkflow{
		Builder:     blocking.Standard{},
		Purging:     true,
		FilterRatio: 0.8,
		Cleaning:    ComparisonCleaning{Scheme: metablocking.ARCS, Algorithm: metablocking.RCNP},
	}
	out, err := w.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(out.Pairs, task.Truth)
	if m.PC < 0.7 {
		t.Fatalf("blocking workflow PC = %.2f, too low", m.PC)
	}
	if m.Candidates >= task.E1.Len()*task.E2.Len() {
		t.Fatal("no reduction over the Cartesian product")
	}
	if out.Timing.Total <= 0 {
		t.Fatal("timing not recorded")
	}
}

func TestPBWHighRecall(t *testing.T) {
	task := quickTask(t)
	in := NewInput(task, entity.SchemaAgnostic)
	out, err := NewPBW().Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(out.Pairs, task.Truth)
	// Comparison Propagation loses no recall over the purged blocks.
	if m.PC < 0.9 {
		t.Fatalf("PBW PC = %.2f", m.PC)
	}
}

func TestComparisonPropagationNoRecallLoss(t *testing.T) {
	task := quickTask(t)
	in := NewInput(task, entity.SchemaAgnostic)
	noClean := &BlockingWorkflow{
		Builder: blocking.Standard{}, FilterRatio: 1,
		Cleaning: ComparisonCleaning{Propagation: true},
	}
	out, err := noClean.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(out.Pairs, task.Truth)
	// PC of CP equals the PC upper bound of the raw blocks.
	blocks := noClean.BlocksAfterCleaning(in)
	ub := Evaluate(metablocking.Propagate(blocks), task.Truth)
	if m.PC != ub.PC {
		t.Fatalf("CP PC %.3f != block PC upper bound %.3f", m.PC, ub.PC)
	}
}

func TestMetaBlockingImprovesPrecision(t *testing.T) {
	task := quickTask(t)
	in := NewInput(task, entity.SchemaAgnostic)
	cp := &BlockingWorkflow{Builder: blocking.Standard{}, Purging: true, FilterRatio: 1,
		Cleaning: ComparisonCleaning{Propagation: true}}
	o1, _ := cp.Run(in)
	m1 := Evaluate(o1.Pairs, task.Truth)
	best := 0.0
	for _, alg := range metablocking.Algorithms() {
		mb := &BlockingWorkflow{Builder: blocking.Standard{}, Purging: true, FilterRatio: 1,
			Cleaning: ComparisonCleaning{Scheme: metablocking.ARCS, Algorithm: alg}}
		o2, _ := mb.Run(in)
		if m2 := Evaluate(o2.Pairs, task.Truth); m2.PQ > best {
			best = m2.PQ
		}
	}
	if best <= m1.PQ {
		t.Fatalf("no meta-blocking configuration beat CP PQ %.3f (best %.3f)", m1.PQ, best)
	}
}

func TestSparseFiltersEndToEnd(t *testing.T) {
	task := quickTask(t)
	in := NewInput(task, entity.SchemaAgnostic)

	eps := &EpsJoinFilter{Clean: true, Model: text.Model{N: 3}, Measure: sparse.Cosine, Threshold: 0.3}
	out, err := eps.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(out.Pairs, task.Truth)
	if m.PC < 0.6 {
		t.Fatalf("eps-join PC = %.2f", m.PC)
	}

	knnj := &KNNJoinFilter{Clean: true, Model: text.Model{N: 3}, Measure: sparse.Cosine, K: 2}
	out2, err := knnj.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m2 := Evaluate(out2.Pairs, task.Truth)
	if m2.PC < 0.6 {
		t.Fatalf("knn-join PC = %.2f", m2.PC)
	}
	// Cardinality threshold: |C| <= ~k * |queries| (ties aside).
	if m2.Candidates > 3*2*task.E2.Len() {
		t.Fatalf("knn-join candidates %d way beyond k*|E2|", m2.Candidates)
	}
	if out2.Timing.Query <= 0 {
		t.Fatal("query phase not timed")
	}
}

func TestDenseFiltersEndToEnd(t *testing.T) {
	task := datagen.Generate(datagen.QuickSpec(40, 80, 25, 43))
	in := NewInputDim(task, entity.SchemaAgnostic, 64)
	in.Seed = 3

	for _, f := range []Filter{
		&MinHashFilter{Bands: 32, Rows: 4, K: 3},
		&HyperplaneFilter{Tables: 8, Hashes: 6, Probes: 4},
		&CrossPolytopeFilter{Tables: 8, Hashes: 1, LastCPDim: 16, Probes: 4},
		&FlatKNNFilter{K: 3},
		&PartitionedKNNFilter{K: 3},
		&PartitionedKNNFilter{K: 3, Scoring: 1 /* AH */},
		&DeepBlockerFilter{K: 3, Hidden: 16, Epochs: 3},
	} {
		out, err := f.Run(in)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		m := Evaluate(out.Pairs, task.Truth)
		if m.PC < 0.3 {
			t.Errorf("%s: PC = %.2f, suspiciously low", f.Name(), m.PC)
		}
		if m.Candidates == 0 {
			t.Errorf("%s: no candidates", f.Name())
		}
	}
}

func TestFlatKNNReverseDirection(t *testing.T) {
	task := datagen.Generate(datagen.QuickSpec(30, 90, 20, 44))
	in := NewInputDim(task, entity.SchemaAgnostic, 32)
	fwd := &FlatKNNFilter{K: 1}
	rev := &FlatKNNFilter{K: 1, Reverse: true}
	of, _ := fwd.Run(in)
	or, _ := rev.Run(in)
	// Forward: one candidate per E2 entity (90); reverse: per E1 (30).
	if len(of.Pairs) != task.E2.Len() {
		t.Fatalf("forward pairs = %d, want %d", len(of.Pairs), task.E2.Len())
	}
	if len(or.Pairs) != task.E1.Len() {
		t.Fatalf("reverse pairs = %d, want %d", len(or.Pairs), task.E1.Len())
	}
	for _, p := range or.Pairs {
		if int(p.Left) >= task.E1.Len() || int(p.Right) >= task.E2.Len() {
			t.Fatalf("reverse pair out of range: %v", p)
		}
	}
}

func TestSchemaBasedViewsSmaller(t *testing.T) {
	task := datagen.ByName("D2", 0.05)
	agn := NewInput(task, entity.SchemaAgnostic)
	bas := NewInput(task, entity.SchemaBased)
	sAgn := entity.TextStatsOf(agn.V1, agn.V2)
	sBas := entity.TextStatsOf(bas.V1, bas.V2)
	if sBas.CharacterLength >= sAgn.CharacterLength {
		t.Fatalf("schema-based chars %d >= agnostic %d", sBas.CharacterLength, sAgn.CharacterLength)
	}
	if sBas.VocabularySize >= sAgn.VocabularySize {
		t.Fatalf("schema-based vocab %d >= agnostic %d", sBas.VocabularySize, sAgn.VocabularySize)
	}
}

func TestInputCaching(t *testing.T) {
	task := datagen.Generate(datagen.QuickSpec(20, 30, 10, 45))
	in := NewInputDim(task, entity.SchemaAgnostic, 16)
	a1, _ := in.Texts(true)
	b1, _ := in.Texts(true)
	if &a1[0] != &b1[0] {
		t.Fatal("cleaned texts not cached")
	}
	e1, _ := in.Embeddings(false)
	e2, _ := in.Embeddings(false)
	if &e1[0] != &e2[0] {
		t.Fatal("embeddings not cached")
	}
	fresh := in.Fresh()
	f1, _ := fresh.Texts(true)
	if &f1[0] == &a1[0] {
		t.Fatal("Fresh did not drop caches")
	}
}

// TestCorpusCache checks that corpora are cached per (CL, RM) key and
// shared with WithSeed copies, and that Fresh starts without any, so the
// run time of a tuned configuration still includes tokenization.
func TestCorpusCache(t *testing.T) {
	task := datagen.Generate(datagen.QuickSpec(20, 30, 10, 45))
	in := NewInputDim(task, entity.SchemaAgnostic, 16)
	c3g, _ := text.ParseModel("C3G")
	t1g, _ := text.ParseModel("T1G")
	a := in.Corpus(true, c3g)
	if in.Corpus(true, c3g) != a || in.WithSeed(9).Corpus(true, c3g) != a {
		t.Fatal("corpus not cached per key")
	}
	if in.Corpus(false, c3g) == a || in.Corpus(true, t1g) == a {
		t.Fatal("distinct keys share a corpus")
	}
	t1, t2 := in.Texts(true)
	if want := sparse.BuildCorpus(t1, t2, c3g); !reflect.DeepEqual(a, want) {
		t.Fatal("cached corpus differs from BuildCorpus")
	}
	fresh := in.Fresh()
	if n := len(fresh.caches.corpora); n != 0 {
		t.Fatalf("Fresh input starts with %d cached corpora", n)
	}
	if fresh.Corpus(true, c3g) == a {
		t.Fatal("Fresh input reuses the original's corpus")
	}
}

// TestCorpusConcurrent builds every key from many goroutines at once;
// under -race it checks the per-key once.
func TestCorpusConcurrent(t *testing.T) {
	in := NewInputDim(quickTask(t), entity.SchemaAgnostic, 16)
	models := text.Models()
	got := make([][]*sparse.Corpus, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range models {
				m := models[(i+g)%len(models)]
				got[g] = append(got[g], in.Corpus(g%2 == 0, m))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, c := range got[g] {
			if c != in.Corpus(g%2 == 0, models[(i+g)%len(models)]) {
				t.Fatalf("goroutine %d saw a second corpus for one key", g)
			}
		}
	}
}

func TestBaselineConstructors(t *testing.T) {
	if NewPBW().Name() == "" || NewDBW().Name() == "" {
		t.Fatal("baseline names empty")
	}
	dk := NewDkNN(true)
	if dk.Reverse {
		t.Fatal("DkNN with smaller E2 should not reverse")
	}
	dk2 := NewDkNN(false)
	if !dk2.Reverse {
		t.Fatal("DkNN with smaller E1 should reverse")
	}
	if NewDDB(true).K != 5 {
		t.Fatal("DDB K != 5")
	}
}
