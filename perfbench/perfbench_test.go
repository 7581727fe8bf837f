package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// runSmall runs one workload on the shrunken inputs.
func runSmall(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	p := params{
		name: name, seed: seed, seconds: time.Second, trace: trace,
		clients: 2, small: true, workDir: t.TempDir(),
	}
	res, err := workloads[name](p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d checks failed: %v", name, res.failed, res.attempted, res.failures)
	}
	return res
}

// lastLine parses the JSON result line a report ends with.
func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return got
}

// TestSmokeEveryWorkload runs every workload untraced and traced and
// validates the result line: its keys, and every metric's name and
// unit against the tables BENCHMARK.json is written from.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := runSmall(t, name, 1, trace)
			var buf bytes.Buffer
			if err := report(&buf, res, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			got := lastLine(t, buf.String())
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
				t.Fatalf("%s: result keys %v, want %v", name, keys, want)
			}
			if got["correct"] != true || got["attempted"].(float64) < 1 {
				t.Fatalf("%s: result %v", name, got)
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			ms := got["metrics"].(map[string]any)
			if len(ms) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, trace, len(ms), len(defs))
			}
			for _, d := range defs {
				m, ok := ms[d.name].(map[string]any)
				if !ok || m["unit"] != d.unit {
					t.Fatalf("%s: metric %s = %v, want unit %s", name, d.name, ms[d.name], d.unit)
				}
				if v := m["value"].(float64); !trace && v <= 0 {
					t.Fatalf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
		}
	}
}

// TestCountsRepeat pins the per-layer counts that must repeat exactly
// for a seed with one writer: fsyncs per write, flushes and merges,
// ScanCount output, comparisons per query, and allocated bytes.
func TestCountsRepeat(t *testing.T) {
	exact := map[string][]string{
		"ingest-durable": {"wal.syncs_per_write", "wal.bytes_per_row", "segment.flushes", "segment.merges", "segment.count",
			"sparse.overlap_cands", "online.alloc_bytes_per_query"},
		"resolve-knnj": {"sparse.overlap_cands", "sparse.kept_ratio", "query.evals_per_query", "online.candidates",
			"online.alloc_bytes_per_query", "sparse.alloc_bytes_per_query", "serve.alloc_bytes_per_req"},
		"match-hnsw": {"match.comparisons_per_query", "match.decided_ratio", "online.alloc_bytes_per_query",
			"serve.alloc_bytes_per_req"},
	}
	for name, keys := range exact {
		a, b := runSmall(t, name, 3, true), runSmall(t, name, 3, true)
		for _, k := range keys {
			if raceEnabled && strings.Contains(k, "alloc_bytes") {
				continue
			}
			if a.layer[k] != b.layer[k] {
				t.Errorf("%s: %s = %v then %v, want an exact repeat", name, k, a.layer[k], b.layer[k])
			}
		}
	}
	for _, k := range []string{"segment.flushes", "segment.merges"} {
		if v := runSmall(t, "ingest-durable", 3, true).layer[k]; v < 1 {
			t.Errorf("ingest-durable: %s = %v, want flush and merge cycles in the replay", k, v)
		}
	}
}

// TestPinnedOutputs pins seed-1 answers of the shrunken inputs: the
// sampled candidate PC of resolve-knnj and the offline-tune report.
func TestPinnedOutputs(t *testing.T) {
	res := runSmall(t, "resolve-knnj", 1, false)
	if !slices.ContainsFunc(res.info, func(l string) bool {
		return strings.HasPrefix(l, "candidate PC over 110 sampled queries with a true match = 0.981818")
	}) {
		t.Errorf("resolve-knnj PC line changed: %q", res.info)
	}
	res = runSmall(t, "offline-tune", 1, false)
	if !slices.ContainsFunc(res.info, func(l string) bool {
		return strings.Contains(l, "Da4 kNNJ PC=1.000000 PQ=0.866667 |C|=30")
	}) {
		t.Errorf("offline-tune reference output changed: %q", res.info)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the program: the same
// workloads, and the same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}

// TestRunRejectsBadFlags covers the command line.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "resolve-knnj", "--seconds", "0"},
		{"--workload", "resolve-knnj", "--trace", "2"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
