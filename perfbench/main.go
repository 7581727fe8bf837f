// Command perfbench is the repository benchmark: it generates its
// inputs from a seed with internal/datagen, drives one workload through
// the layers' public calls and the serve handler on a loopback
// listener, checks the outputs, and prints one JSON result line.
//
//	perfbench --workload resolve-knnj --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by replaying
// sampled inputs layer by layer, plus the tracing overhead. DESIGN.md in
// this directory lists the workloads, why each was chosen, and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0. Each
// workload has one primary request — the one a user waits on — and the
// latency and rate metrics describe it.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ops_s", "1/s"},
	{"heap_live_mib", "MiB"},
}

// offlineMethods is the fixed method subset of the offline-tune
// workload: one blocking workflow, both sparse joins, the exact dense
// kNN and one LSH family.
var offlineMethods = []string{"SBW", "eps-Join", "kNNJ", "FAISS", "HP-LSH"}

// layerMetrics are reported by every workload with --trace 1; a layer
// the workload does not exercise reports 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"serve.handler_us", "us"},
		{"serve.self_us", "us"},
		{"serve.resp_bytes", "bytes"},
		{"serve.alloc_bytes_per_req", "bytes"},
		{"online.query_us", "us"},
		{"online.self_us", "us"},
		{"online.candidates", "count"},
		{"online.alloc_bytes_per_query", "bytes"},
		{"online.insert_us_per_row", "us"},
		{"query.parse_us", "us"},
		{"query.evals_per_query", "count"},
		{"query.pass_ratio", "ratio"},
		{"text.encode_us", "us"},
		{"vector.embed_us", "us"},
		{"sparse.knn_us", "us"},
		{"sparse.range_us", "us"},
		{"sparse.overlap_cands", "count"},
		{"sparse.kept_ratio", "ratio"},
		{"sparse.alloc_bytes_per_query", "bytes"},
		{"wal.syncs_per_write", "count"},
		{"wal.bytes_per_row", "bytes"},
		{"wal.append_sync_us", "us"},
		{"segment.flushes", "count"},
		{"segment.merges", "count"},
		{"segment.count", "count"},
		{"segment.write_amp", "ratio"},
		{"knn.hnsw_search_us", "us"},
		{"knn.hnsw_add_us", "us"},
		{"match.score_us", "us"},
		{"match.assign_us", "us"},
		{"match.comparisons_per_query", "count"},
		{"match.decided_ratio", "ratio"},
	}
	for _, m := range offlineMethods {
		ms = append(ms, metricDef{"tuning." + m + "_s", "s"})
	}
	for _, m := range offlineMethods {
		ms = append(ms, metricDef{"core.run_s." + m, "s"})
	}
	return append(ms,
		metricDef{"parallel.cpu_util", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// params are the knobs of one run.
type params struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	// clients is the closed-loop client count, capped at the CPU count.
	clients int
	// small shrinks every input for the package's own tests.
	small bool
	// workDir holds the run's on-disk state and trace output.
	workDir string
}

// result is the outcome of one workload run.
type result struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	// info lines are printed before the JSON line: inputs, request
	// groups and the per-workload figures (read/write split, quality)
	// that are not gated.
	info []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one correctness check, recording a failure message when
// ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// infof records one human-readable line of the run report.
func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(params) (*result, error){
	"resolve-knnj":   runResolve,
	"ingest-durable": runIngest,
	"match-hnsw":     runMatch,
	"offline-tune":   runOffline,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured duration of the run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	work := ".bench_build/perfbench"
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	p := params{
		name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, clients: procs, workDir: work,
	}
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d go=%s %s/%s seed=%d workload=%s seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		*seed, *name, *seconds, *trace)
	res, err := wl(p)
	if err != nil {
		return err
	}
	return report(out, res, p.trace)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the run's info lines, every metric by name with its
// unit, and the JSON result as the last line. It fails when a
// correctness check failed, after printing.
func report(out io.Writer, res *result, trace bool) error {
	for _, l := range res.info {
		fmt.Fprintln(out, l)
	}
	defs, vals := e2eMetrics, res.e2e
	if trace {
		defs, vals = layerMetrics, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !trace {
			return fmt.Errorf("workload did not report end-to-end metric %s", d.name)
		}
		fmt.Fprintf(out, "metric %s = %.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, f := range res.failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if res.failed > 0 {
		return errors.New("correctness checks failed")
	}
	return nil
}
