package tuning

import (
	"fmt"
	"testing"

	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
)

// perConfigTuneHyperplane is the hyperplane tuner the shared sketches
// replaced, kept as the test oracle: every (CL, tables, hashes, probes)
// grid point runs HyperplaneFilter.Run once per repetition on its own
// freshly drawn hyperplanes.
func perConfigTuneHyperplane(in *core.Input, space DenseSpace, target float64) (*Result, error) {
	type branch struct {
		clean          bool
		tables, hashes int
	}
	var branches []branch
	for _, clean := range space.CleanOptions {
		for _, tables := range space.HPTables {
			for _, hashes := range space.HPHashes {
				branches = append(branches, branch{clean, tables, hashes})
			}
		}
	}
	return tuneDenseBranches(space.Workers, len(branches), "HP-LSH", target, func(tr *tracker, bi int) error {
		b := branches[bi]
		for _, probes := range space.ProbeLadder {
			m, err := averageMetrics(in, func(seed uint64) core.Filter {
				return &core.HyperplaneFilter{Clean: b.clean, Tables: b.tables, Hashes: b.hashes, Probes: probes}
			}, space.Repetitions)
			if err != nil {
				return err
			}
			f := &core.HyperplaneFilter{Clean: b.clean, Tables: b.tables, Hashes: b.hashes, Probes: probes}
			tr.offer(m, f, map[string]string{
				"CL": fmtBool(b.clean), "#tables": fmt.Sprintf("%d", b.tables),
				"#hashes": fmt.Sprintf("%d", b.hashes), "#probes": fmt.Sprintf("%d", probes),
			})
			if m.PC >= target {
				break
			}
		}
		return nil
	})
}

// TestTuneHyperplaneMatchesPerConfigRuns checks that sharing one sketch
// per (CL, repetition) across the grid, and one index per branch across
// the probe ladder, changes nothing: the winner, its metrics and the
// evaluation count equal those of running every grid point on its own.
// The embedding width is odd, so table matrices end mid Box–Muller pair.
func TestTuneHyperplaneMatchesPerConfigRuns(t *testing.T) {
	task := datagen.Generate(datagen.QuickSpec(50, 90, 30, 19))
	space := DefaultDenseSpace(false)
	space.Repetitions = 2
	space.HPTables = []int{1, 3, 6}
	space.HPHashes = []int{2, 7, 13}
	space.Workers = 2
	// Under the 0.99 target most ladders climb to their top rung.
	for _, c := range []struct {
		seed   uint64
		target float64
	}{{1, 0.8}, {5, 0.8}, {23, 0.8}, {5, 0.99}} {
		in := core.NewInputDim(task, entity.SchemaAgnostic, 37)
		in.Seed = c.seed
		got, err := TuneHyperplane(in, space, c.target)
		if err != nil {
			t.Fatal(err)
		}
		want, err := perConfigTuneHyperplane(in, space, c.target)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("seed %d target %v", c.seed, c.target), want, got)
	}
}

// TestTuneHyperplaneRefusesWideHashes: a grid hash width outside 1..64
// is an error, not a silently truncated key.
func TestTuneHyperplaneRefusesWideHashes(t *testing.T) {
	in := testInput(t)
	for _, hashes := range [][]int{{0, 8}, {8, 65}} {
		space := denseTestSpace(1)
		space.HPHashes = hashes
		if _, err := TuneHyperplane(in, space, DefaultTarget); err == nil {
			t.Errorf("hashes %v: no error", hashes)
		}
	}
}
