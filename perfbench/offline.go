package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"

	"erfilter/internal/bench"
	"erfilter/internal/core"
	"erfilter/internal/datagen"
	"erfilter/internal/entity"
)

// offline-tune: the paper's own pipeline, bench.Run with the default
// (reduced) grids, on the D4 bibliographic analog in both schema
// settings, for a fixed method subset. No serving layer runs; core,
// tuning, parallel and the batch joins do all the work. One cycle is
// one bench.Run; the run repeats cycles until its time is up.

const (
	offlineDataset = "D4"
	offlineScale   = 0.05
	offlineSmallSc = 0.012
	offlineWorkers = 2
	offlineSetups  = 3
	offlineDim     = 96 // bench.Options' default embedding width
	// offlineSeed is bench's default seed for the stochastic methods.
	// The run's seed does not reach them: the LSH tuner stops its probe
	// ladder once recall is met, so its work, and the cycle time, swing
	// by a quarter from one seed to the next and a run would measure
	// the seed rather than the code. The analog's data is bench's own.
	offlineSeed = 1
)

func offlineOptions(p params, workers int) bench.Options {
	scale := offlineScale
	if p.small {
		scale = offlineSmallSc
	}
	return bench.Options{
		Scale: scale, Datasets: []string{offlineDataset}, Methods: offlineMethods,
		Seed: offlineSeed, Workers: workers, EmbedDim: offlineDim,
	}
}

// renderReport is the run's output with every run time masked: per cell
// and method the tuned configuration, PC, PQ and candidate count.
func renderReport(rep *bench.Report) []byte {
	var b bytes.Buffer
	for _, c := range rep.Cells {
		for _, m := range offlineMethods {
			mr := c.Results[m]
			if mr == nil {
				fmt.Fprintf(&b, "%s %s missing\n", c.Key(), m)
				continue
			}
			keys := make([]string, 0, len(mr.Config))
			for k := range mr.Config {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "%s %s PC=%.6f PQ=%.6f |C|=%d satisfied=%v err=%v", c.Key(), m,
				mr.Metrics.PC, mr.Metrics.PQ, mr.Metrics.Candidates, mr.Satisfied, mr.Err)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, mr.Config[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runOffline(p params) (*result, error) {
	seqOpts, opts := offlineOptions(p, 1), offlineOptions(p, offlineWorkers)
	var task *entity.Task
	for _, s := range datagen.Specs(opts.Scale) {
		if s.Name == offlineDataset {
			task = datagen.Generate(s)
		}
	}
	settings := []entity.SchemaSetting{entity.SchemaAgnostic}
	if datagen.SchemaBasedDatasets[offlineDataset] {
		settings = append(settings, entity.SchemaBased)
	}
	r := newResult()
	r.infof("inputs: %s analog scale %g (|E1|=%d, |E2|=%d), %d schema settings, methods %v, stochastic seed %d, %d workers",
		offlineDataset, opts.Scale, task.E1.Len(), task.E2.Len(), len(settings), offlineMethods, opts.Seed, offlineWorkers)

	// Set-up is the preprocessing every method of a cycle starts from:
	// the cleaned and raw texts and embeddings of both settings.
	_, setup, err := setupMedian(offlineSetups, func() ([]*core.Input, time.Duration, error) {
		begin := time.Now()
		var ins []*core.Input
		for _, s := range settings {
			in := core.NewInputDim(task, s, offlineDim)
			for _, clean := range []bool{false, true} {
				in.Texts(clean)
				in.Embeddings(clean)
			}
			ins = append(ins, in)
		}
		return ins, time.Since(begin), nil
	}, func([]*core.Input) {})
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = setup

	// The expected output comes from the sequential path; every timed
	// cycle on the worker pool must reproduce it byte for byte.
	ref, err := bench.Run(seqOpts, io.Discard)
	if err != nil {
		return nil, err
	}
	want := renderReport(ref)

	var cpuUtil []float64
	cycles := func(d time.Duration, tr *tracer) *loopStats {
		return closedLoop(1, d, func(int) error {
			begin, cpu0 := time.Now(), cpuTime()
			var rep *bench.Report
			var err error
			run := func() { rep, err = bench.Run(opts, io.Discard) }
			if tr != nil {
				tr.timed("bench.run", 0, tr.newID(), run)
			} else {
				run()
			}
			cpuUtil = append(cpuUtil, (cpuTime()-cpu0).Seconds()/(time.Since(begin).Seconds()*offlineWorkers))
			if err != nil {
				return err
			}
			if got := renderReport(rep); !bytes.Equal(got, want) {
				return fmt.Errorf("cycle output differs from the sequential reference:\n%s\nwant:\n%s", got, want)
			}
			return nil
		})
	}
	var stats *loopStats
	var tr *tracer
	var overhead float64
	if !p.trace {
		stats = cycles(p.seconds, nil)
	} else {
		base := cycles(p.seconds/2, nil)
		tr = newTracer()
		stats = cycles(p.seconds/2, tr)
		overhead = ratio(median(stats.lat), median(base.lat)) - 1
		stats.n += base.n
		stats.failed += base.failed
	}
	r.count(stats, "cycle")
	stats.primary(r)
	r.infof("%s", stats.summary("bench.Run cycle"))
	r.infof("offline_s = %.6g s (median cycle)", r.e2e["p50_ms"]/1000)
	r.infof("reference output:\n%s", bytes.TrimSpace(want))

	if p.trace {
		if err := offlineReplayLayers(p, r, opts); err != nil {
			return nil, err
		}
		r.layer["parallel.cpu_util"] = median(cpuUtil)
		r.layer["trace.overhead_ratio"] = overhead
		if err := writeTrace(p, r, tr, "load"); err != nil {
			return nil, err
		}
	}
	r.e2e["heap_live_mib"] = heapLiveMiB()
	return r, nil
}

// offlineReplayLayers runs each method alone through bench.Run, timing
// its tuning, and takes core's own run time of the tuned configuration
// from the report.
func offlineReplayLayers(p params, r *result, opts bench.Options) error {
	rt := newTracer()
	for _, m := range offlineMethods {
		o := opts
		o.Methods = []string{m}
		var rep *bench.Report
		var err error
		rt.timed("tuning."+m, 0, rt.newID(), func() { rep, err = bench.Run(o, io.Discard) })
		if err != nil {
			return err
		}
		var run time.Duration
		for _, c := range rep.Cells {
			if mr := c.Results[m]; mr != nil {
				run += mr.Timing.Total
			}
		}
		r.layer["core.run_s."+m] = run.Seconds()
	}
	dur, _ := rt.layerTimes()
	for _, m := range offlineMethods {
		r.layer["tuning."+m+"_s"] = dur["tuning."+m] / 1e6
	}
	return writeTrace(p, r, rt, "replay")
}
