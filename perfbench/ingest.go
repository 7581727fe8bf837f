package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/metrics"
	"erfilter/internal/online"
	"erfilter/internal/serve"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// ingest-durable: one writer sends the D9 bibliographic analog's E2 rows
// as small POST /v1/entities batches into a 2-shard, WAL-durable,
// disk-tier ε-Join store while one reader sends E1 profiles as POST
// /v1/query. The memtable cap is small, so flushes and merges complete
// in every run and the data set always outgrows the memtable.

const (
	ingestShards  = 2
	ingestFanin   = 4
	ingestBatch   = 16 // rows per write request
	ingestSetups  = 3
	ingestSample  = 64 // read queries compared across the reopen, and replayed
	ingestScale   = 1.0
	ingestSmallSc = 0.05
)

// ingestSizes are the row counts that scale with the inputs.
type ingestSizes struct {
	memCap  int // memtable entities per shard before a flush
	preload int // rows inserted during set-up
	writes  int // rows the writer sends during the run
	replay  int // rows inserted by the traced replay
}

// ingestConfig indexes character trigrams: their CPU cost per row keeps
// the write latency from being mostly fsync, whose latency on a shared
// disk moves from run to run far more than the code does.
func ingestConfig(sz ingestSizes) online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{
		Method: online.EpsJoin, Model: c3g, Measure: sparse.Jaccard, Threshold: 0.5,
		Storage: online.StorageDisk, MemtableCap: sz.memCap, MergeFanin: ingestFanin,
	}
}

// userBytes is the payload size of one row: attribute names and values.
func userBytes(attrs []entity.Attribute) int64 {
	var n int64
	for _, a := range attrs {
		n += int64(len(a.Name) + len(a.Value))
	}
	return n
}

func runIngest(p params) (*result, error) {
	scale, sz := ingestScale, ingestSizes{memCap: 512, preload: 8192, writes: 20480, replay: 8192}
	if p.small {
		scale, sz = ingestSmallSc, ingestSizes{memCap: 64, preload: 256, writes: 1024, replay: 1024}
	}
	task, err := genTask("D9", scale, p.seed)
	if err != nil {
		return nil, err
	}
	// Rows are E2 in a seeded order, cut into write batches; the first
	// preload rows are inserted during set-up, the writer sends the rest
	// and then starts over (re-sent rows become new entities).
	order := sendOrder(task.E2, p.seed)
	nb := len(order) / ingestBatch
	rows := make([][]entity.Attribute, nb*ingestBatch)
	bodies := make([][]byte, nb)
	for b := 0; b < nb; b++ {
		ents := make([]map[string]any, ingestBatch)
		for j := range ents {
			prof := task.E2.Profiles[order[b*ingestBatch+j]]
			rows[b*ingestBatch+j] = wireAttrs(prof)
			ents[j] = map[string]any{"attrs": attrMap(prof)}
		}
		bodies[b] = mustJSON(map[string]any{"entities": ents})
	}
	sz.preload = min(sz.preload, len(rows)/2) / ingestBatch * ingestBatch
	sz.replay = min(sz.replay, len(rows)) / ingestBatch * ingestBatch
	var reads [][]entity.Attribute
	var readBodies [][]byte
	for _, e1 := range sendOrder(task.E1, p.seed+1) {
		reads = append(reads, wireAttrs(task.E1.Profiles[e1]))
		readBodies = append(readBodies, mustJSON(map[string]any{"attrs": attrMap(task.E1.Profiles[e1])}))
	}
	cfg := ingestConfig(sz)
	opt := online.StoreOptions{}

	base, err := os.MkdirTemp(p.workDir, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	type state struct {
		dir   string
		ss    *online.ShardedStore
		srv   *server
		acked map[int64]int // entity id -> row index
	}
	setupN := 0
	st, setup, err := setupMedian(ingestSetups, func() (*state, time.Duration, error) {
		setupN++
		dir := filepath.Join(base, fmt.Sprintf("store-%d", setupN))
		begin := time.Now()
		ss, err := online.OpenShardedStore(dir, cfg, ingestShards, opt)
		if err != nil {
			return nil, 0, err
		}
		s := &state{dir: dir, ss: ss, acked: map[int64]int{}}
		for lo := 0; lo < sz.preload; lo += 1024 {
			hi := min(lo+1024, sz.preload)
			ids, err := ss.InsertBatch(rows[lo:hi])
			if err != nil {
				ss.Close()
				return nil, 0, err
			}
			for i, id := range ids {
				s.acked[id] = lo + i
			}
		}
		s.srv, err = startServer(serve.WrapSharded(ss.Resolver()), serve.WrapShardedStore(ss), serve.Options{})
		if err != nil {
			ss.Close()
			return nil, 0, err
		}
		return s, time.Since(begin), nil
	}, func(s *state) {
		s.srv.close()
		s.ss.Close()
		os.RemoveAll(s.dir)
	})
	if err != nil {
		return nil, err
	}

	r := newResult()
	r.e2e["setup_s"] = setup
	r.infof("inputs: D9 analog scale %g, %d E2 rows in batches of %d (%d preloaded), %d E1 read queries, %d shards, memtable cap %d, merge fan-in %d, 1 writer + 1 reader",
		scale, len(rows), ingestBatch, sz.preload, len(reads), ingestShards, sz.memCap, ingestFanin)

	nextBatch := sz.preload / ingestBatch
	writes := sz.writes / ingestBatch
	loops, tr, overhead := runLoad(p, st.srv, func(d time.Duration, tr *tracer) []*loopStats {
		cl := newClient(st.srv.url, 2, tr)
		defer cl.close()
		var w, rd *loopStats
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// The writer sends a fixed number of batches (half in each
			// phase of a traced run), so every run ends with the same
			// collection and the same heap.
			budget := int(float64(writes) * d.Seconds() / p.seconds.Seconds())
			w = closedLoop(1, d, func(seq int) error {
				if seq >= budget {
					return errDone
				}
				b := nextBatch % nb
				nextBatch++
				data, err := cl.post("/v1/entities", bodies[b])
				if err != nil {
					return err
				}
				var resp struct {
					IDs []int64 `json:"ids"`
				}
				if err := json.Unmarshal(data, &resp); err != nil || len(resp.IDs) != ingestBatch {
					return fmt.Errorf("write batch %d: bad answer %.200s", b, data)
				}
				for j, id := range resp.IDs {
					st.acked[id] = b*ingestBatch + j
				}
				return nil
			})
		}()
		go func() {
			defer wg.Done()
			rd = closedLoop(1, d, func(seq int) error {
				_, err := cl.post("/v1/query", readBodies[seq%len(readBodies)])
				return err
			})
		}()
		wg.Wait()
		return []*loopStats{w, rd}
	})
	wr, readStats := loops[0], loops[1]
	r.count(wr, "write")
	r.count(readStats, "read")
	wr.primary(r)
	r.infof("%s", wr.summary("write POST /v1/entities"))
	r.infof("%s", readStats.summary("read POST /v1/query"))
	r.infof("write_p50_ms = %.6g ms, write_p99_ms = %.6g ms, write_rows_s = %.6g acked rows/s",
		quantile(wr.lat, 0.5), quantile(wr.lat, 0.99), r.e2e["ops_s"]*float64(ingestBatch))
	r.infof("read_p50_ms = %.6g ms, read_p99_ms = %.6g ms, read_ops_s = %.6g req/s",
		quantile(readStats.lat, 0.5), quantile(readStats.lat, 0.99), float64(len(readStats.lat))/readStats.elapsed.Seconds())

	// Final checkpoint, then close and reopen: every acked row must be
	// back, and sampled answers must not change across the reopen.
	if err := st.srv.close(); err != nil {
		return nil, err
	}
	if err := st.ss.Checkpoint(); err != nil {
		return nil, err
	}
	disk, err := dirBytes(st.dir, func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	var user int64
	for _, row := range st.acked {
		user += userBytes(rows[row])
	}
	stats := st.ss.Resolver().Stats()
	segs := 0
	for _, s := range stats.PerShard {
		segs += s.Segments
	}
	r.infof("space_amp = %.6g (on-disk bytes after the final checkpoint %d / user bytes %d); %d live segments, %d entities",
		ratio(float64(disk), float64(user)), disk, user, segs, stats.Entities)
	sample := func(snap serve.Snapshot) [][]byte {
		out := make([][]byte, min(ingestSample, len(reads)))
		for i := range out {
			cands, _ := snap.QueryTraced(reads[i], online.QueryOptions{})
			out[i] = candBytes(cands)
		}
		return out
	}
	before := sample(st.ss.Resolver().Snapshot())
	// A merge still running holds its inputs on the heap.
	if err := waitMerges(st.ss.Resolver()); err != nil {
		return nil, err
	}
	r.e2e["heap_live_mib"] = heapLiveMiB()
	if err := st.ss.Close(); err != nil {
		return nil, err
	}
	ss, err := online.OpenShardedStore(st.dir, cfg, ingestShards, opt)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	res := ss.Resolver()
	r.check(res.Len() == len(st.acked), "reopened store holds %d entities, %d were acked", res.Len(), len(st.acked))
	for id, row := range st.acked {
		got, ok := res.Get(id)
		r.check(ok && slices.Equal(got, rows[row]), "acked entity %d (row %d) missing or changed after reopen", id, row)
	}
	for i, b := range sample(res.Snapshot()) {
		r.check(bytes.Equal(b, before[i]), "read query %d answers differently after reopen", i)
	}
	if err := ss.Close(); err != nil {
		return nil, err
	}

	if p.trace {
		if err := ingestReplayLayers(p, r, cfg, sz, filepath.Join(base, "replay"), rows, reads, readBodies); err != nil {
			return nil, err
		}
		r.layer["trace.overhead_ratio"] = overhead
		if err := writeTrace(p, r, tr, "load"); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ingestReplayLayers inserts a fixed prefix of the rows into a fresh
// store, one batch at a time and letting each merge settle before the
// next batch, so the write-path counts repeat exactly for a seed. It
// then replays the sampled reads layer by layer against that store.
func ingestReplayLayers(p params, r *result, cfg online.Config, sz ingestSizes, dir string,
	rows, reads [][]entity.Attribute, readBodies [][]byte) error {
	ss, err := online.OpenShardedStore(dir, cfg, ingestShards, online.StoreOptions{})
	if err != nil {
		return err
	}
	defer ss.Close()
	reg := metrics.NewRegistry()
	ss.RegisterMetrics(reg)
	rt := newTracer()
	seg := newSegmentWatch(dir, ingestShards)
	var ids []int64
	batches := sz.replay / ingestBatch
	for b := 0; b < batches; b++ {
		batch := rows[b*ingestBatch : (b+1)*ingestBatch]
		var got []int64
		var err error
		rt.timed("online.insert", 0, rt.newID(), func() { got, err = ss.InsertBatch(batch) })
		if err != nil {
			return err
		}
		ids = append(ids, got...)
		if err := seg.settle(ss.Resolver()); err != nil {
			return err
		}
	}
	walBytes, err := dirBytes(dir, func(n string) bool { return strings.HasPrefix(n, "wal-") })
	if err != nil {
		return err
	}
	sc, err := scrape(reg)
	if err != nil {
		return err
	}
	dur, _ := rt.layerTimes()
	l := r.layer
	l["online.insert_us_per_row"] = dur["online.insert"] / float64(ingestBatch)
	l["wal.syncs_per_write"] = ratio(sc["wal_fsyncs_total"], float64(batches))
	l["wal.bytes_per_row"] = ratio(float64(walBytes), float64(sz.replay))
	l["wal.append_sync_us"] = 1e6 * ratio(sc["wal_fsync_duration_seconds_sum"], sc["wal_fsync_duration_seconds_count"])
	l["segment.flushes"] = float64(seg.flushes)
	l["segment.merges"] = float64(seg.merges)
	l["segment.count"] = float64(seg.live())
	live, err := dirBytes(dir, func(n string) bool { return strings.HasSuffix(n, ".seg") })
	if err != nil {
		return err
	}
	l["segment.write_amp"] = ratio(float64(seg.written), float64(live))
	r.infof("replay: %d rows in %d batches, %d flushes, %d merges, %d live segments", sz.replay, batches, seg.flushes, seg.merges, seg.live())

	// Reads, layer by layer: handler, Snapshot.QueryTraced, encode, and
	// the benchmark's own ScanCount range probe over the same sets.
	sp, err := newSparseProbe(cfg, ids, rows[:sz.replay])
	if err != nil {
		return err
	}
	h := serve.NewServer(serve.WrapSharded(ss.Resolver()), serve.WrapShardedStore(ss), serve.Options{}).Handler()
	snap := ss.Resolver().Snapshot()
	restore := replayMode()
	defer restore()
	var respBytes, serveAlloc, onlineAlloc, cands, overlap, kept []float64
	for i := 0; i < min(ingestSample, len(reads)); i++ {
		attrs, body := reads[i], readBodies[i]
		req := rt.newID()
		serveInProcess(h, "/v1/query", body)
		var code, size int
		hid := rt.timed("serve.handler", 0, req, func() {
			rec := serveInProcess(h, "/v1/query", body)
			code, size = rec.Code, rec.Body.Len()
		})
		r.check(code == http.StatusOK, "replayed read %d answered %d", i, code)
		respBytes = append(respBytes, float64(size))
		serveAlloc = append(serveAlloc, allocBytes(func() { serveInProcess(h, "/v1/query", body) }))
		snap.QueryTraced(attrs, online.QueryOptions{})
		var got []online.Candidate
		oid := rt.timed("online.query", hid, req, func() { got, _ = snap.QueryTraced(attrs, online.QueryOptions{}) })
		onlineAlloc = append(onlineAlloc, allocBytes(func() { snap.QueryTraced(attrs, online.QueryOptions{}) }))
		cands = append(cands, float64(len(got)))
		var toks []string
		rt.timed("text.encode", oid, req, func() { toks = cfg.Model.Tokens(cfg.TextOf(attrs)) })
		set := sp.encode(toks)
		var ns []sparse.IncNeighbor
		rt.timed("sparse.range", oid, req, func() { ns = sp.snap.RangeQuery(set, cfg.Measure, cfg.Threshold, &sp.sc) })
		r.check(len(ns) == len(got), "read %d: benchmark probe returned %d candidates, store %d", i, len(ns), len(got))
		o := sp.overlapping(set)
		overlap = append(overlap, float64(o))
		kept = append(kept, ratio(float64(len(ns)), float64(o)))
	}
	dur, self := rt.layerTimes()
	l["serve.handler_us"] = dur["serve.handler"]
	l["serve.self_us"] = self["serve.handler"]
	l["serve.resp_bytes"] = mean(respBytes)
	l["serve.alloc_bytes_per_req"] = mean(serveAlloc)
	l["online.query_us"] = dur["online.query"]
	l["online.self_us"] = self["online.query"]
	l["online.candidates"] = mean(cands)
	l["online.alloc_bytes_per_query"] = mean(onlineAlloc)
	l["text.encode_us"] = dur["text.encode"]
	l["sparse.range_us"] = dur["sparse.range"]
	l["sparse.overlap_cands"] = mean(overlap)
	l["sparse.kept_ratio"] = mean(kept)
	return writeTrace(p, r, rt, "replay")
}

// segmentWatch infers the segment tier's flushes and merges from the
// outside: after every write batch it waits until the background merge
// has brought each shard back to at most the fan-in, then decodes the
// change in each shard's live-segment count. One batch flushes at most
// once per shard, and a merge folds fan-in segments into one, so a
// change of d decodes uniquely as d = flushes - (fan-in - 1) * merges.
// Every segment file it sees is counted once towards the bytes written;
// a flush output that a merge folds away before the batch settles is
// not seen, so the written bytes are a lower bound.
type segmentWatch struct {
	dirs            []string
	segs            []int
	seen            map[string]bool
	flushes, merges int
	written         int64
}

func newSegmentWatch(dir string, shards int) *segmentWatch {
	w := &segmentWatch{segs: make([]int, shards), seen: map[string]bool{}}
	for i := 0; i < shards; i++ {
		w.dirs = append(w.dirs, filepath.Join(dir, fmt.Sprintf("shard-%d", i), "segments"))
	}
	return w
}

func (w *segmentWatch) live() int {
	n := 0
	for _, s := range w.segs {
		n += s
	}
	return n
}

// waitMerges waits until no shard holds more segments than the fan-in,
// which is when the background merge has nothing left to do.
func waitMerges(res *online.ShardedResolver) error {
	_, err := settledStats(res)
	return err
}

// settledStats waits as waitMerges does and returns the per-shard stats
// it saw then.
func settledStats(res *online.ShardedResolver) ([]online.Stats, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		per := res.Stats().PerShard
		busy := false
		for _, s := range per {
			busy = busy || s.Segments > ingestFanin
		}
		if !busy {
			// Let a merge goroutine that just finished its last step
			// exit, so the next flush starts a fresh merge.
			time.Sleep(time.Millisecond)
			return per, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("segment merges did not settle within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *segmentWatch) settle(res *online.ShardedResolver) error {
	per, err := settledStats(res)
	if err != nil {
		return err
	}
	for i, s := range per {
		d := s.Segments - w.segs[i]
		f := ((d % (ingestFanin - 1)) + (ingestFanin - 1)) % (ingestFanin - 1)
		if f > 1 {
			return fmt.Errorf("shard %d: segment count moved by %d in one batch", i, d)
		}
		w.flushes += f
		w.merges += (f - d) / (ingestFanin - 1)
		w.segs[i] = s.Segments
		names, err := os.ReadDir(w.dirs[i])
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		for _, e := range names {
			name := filepath.Join(w.dirs[i], e.Name())
			if !strings.HasSuffix(name, ".seg") || w.seen[name] {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			w.seen[name] = true
			w.written += info.Size()
		}
	}
	return nil
}
