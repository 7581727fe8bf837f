package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/online"
	"erfilter/internal/query"
	"erfilter/internal/serve"
	"erfilter/internal/sparse"
	"erfilter/internal/text"
)

// resolve-knnj: the D10 movie analog's E1 is indexed by the sparse
// kNN-Join (C3G, cosine, k=3) on one in-memory shard; two closed-loop
// clients send E2 profiles as single POST /v1/query requests, one in
// whereEvery carrying a year predicate. The ScanCount probe and the
// top-k cut dominate each request; WAL, segment, knn and match do no
// work.

const (
	whereEvery     = 8   // every 8th query carries a where clause
	resolveSample  = 128 // leading queries checked against in-process answers
	resolveReplay  = 64  // leading queries replayed layer by layer when traced
	resolveSetups  = 3
	resolveScale   = 1.0
	resolveSmallSc = 0.03
)

// whereClause is the predicate of the filtered queries: 20th-century
// movies, which passes about two thirds of the collection. The kNN cut
// over-fetches and re-probes until k distinct scores pass; a selective
// predicate (one genre of twelve) makes the number of re-probes, and the
// tail latency, swing widely from one query sample to the next.
const whereClause = `year ^= "19"`

// resolveQuery is one prepared /v1/query input.
type resolveQuery struct {
	e2    int // E2 profile index
	attrs []entity.Attribute
	where string
	body  []byte
}

// options are the in-process equivalent of the request's where clause.
func (q *resolveQuery) options() (online.QueryOptions, error) {
	var opt online.QueryOptions
	if q.where == "" {
		return opt, nil
	}
	pq, err := query.Parse(q.where)
	if err != nil {
		return opt, err
	}
	if pq.Where != nil {
		opt.Predicate = pq.Match
	}
	opt.MinScore = pq.MinScore
	return opt, nil
}

func resolveConfig() online.Config {
	c3g, _ := text.ParseModel("C3G")
	return online.Config{Method: online.KNNJoin, Model: c3g, Measure: sparse.Cosine, K: 3}
}

func runResolve(p params) (*result, error) {
	scale := resolveScale
	if p.small {
		scale = resolveSmallSc
	}
	task, err := genTask("D10", scale, p.seed)
	if err != nil {
		return nil, err
	}
	truth := truthByE2(task)
	var qs []resolveQuery
	for i, e2 := range sendOrder(task.E2, p.seed) {
		prof := task.E2.Profiles[e2]
		q := resolveQuery{e2: e2, attrs: wireAttrs(prof)}
		if i%whereEvery == whereEvery-1 {
			q.where = whereClause
		}
		q.body = mustJSON(map[string]any{"attrs": attrMap(prof), "where": q.where})
		qs = append(qs, q)
	}
	cfg := resolveConfig()
	e1Rows := wireRows(task.E1)

	type state struct {
		res    *online.Resolver
		srv    *server
		ids    []int64
		insert time.Duration
	}
	st, setup, err := setupMedian(resolveSetups, func() (*state, time.Duration, error) {
		begin := time.Now()
		res := online.NewResolver(cfg)
		ids := res.InsertBatch(e1Rows)
		insert := time.Since(begin)
		srv, err := startServer(serve.WrapResolver(res), nil, serve.Options{})
		if err != nil {
			return nil, 0, err
		}
		return &state{res, srv, ids, insert}, time.Since(begin), nil
	}, func(s *state) { s.srv.close() })
	if err != nil {
		return nil, err
	}
	e1Of := make(map[int64]int, len(st.ids))
	for i, id := range st.ids {
		e1Of[id] = i
	}

	r := newResult()
	r.e2e["setup_s"] = setup
	r.infof("inputs: D10 analog scale %g, |E1|=%d indexed, |E2|=%d queries (%d with a true match), 1 in %d with a where clause, %d clients",
		scale, task.E1.Len(), task.E2.Len(), len(truth), whereEvery, p.clients)
	sample := make([][]byte, min(resolveSample, len(qs)))
	loops, tr, overhead := runLoad(p, st.srv, func(d time.Duration, tr *tracer) []*loopStats {
		cl := newClient(st.srv.url, p.clients, tr)
		defer cl.close()
		return []*loopStats{closedLoop(p.clients, d, func(seq int) error {
			data, err := cl.post("/v1/query", qs[seq%len(qs)].body)
			if err == nil && seq < len(sample) {
				sample[seq] = data
			}
			return err
		})}
	})
	// The listener goes before the checks and the replay, so no
	// connection goroutine is left to touch the shared pools.
	if err := st.srv.close(); err != nil {
		return nil, err
	}
	reads := loops[0]
	r.count(reads, "query")
	reads.primary(r)
	r.infof("%s", reads.summary("read POST /v1/query"))

	// The HTTP answers of the sampled queries must be byte-identical to
	// in-process Snapshot.Query on the same input; PC is taken over the
	// sampled unfiltered queries that have a true match.
	snap := st.res.Snapshot()
	hits, withTruth := 0, 0
	for i, data := range sample {
		q := &qs[i]
		opt, err := q.options()
		if err != nil {
			return nil, err
		}
		cands := snap.Query(q.attrs, opt)
		if len(cands) > 1000 {
			cands = cands[:1000]
		}
		var got struct {
			Candidates json.RawMessage `json:"candidates"`
		}
		ok := data != nil && json.Unmarshal(data, &got) == nil && bytes.Equal(got.Candidates, candBytes(cands))
		r.check(ok, "query %d (E2 %d): HTTP candidates differ from in-process Snapshot.Query", i, q.e2)
		if e1, has := truth[q.e2]; has && q.where == "" {
			withTruth++
			for _, c := range cands {
				if e1Of[c.ID] == e1 {
					hits++
					break
				}
			}
		}
	}
	r.infof("candidate PC over %d sampled queries with a true match = %.6f", withTruth, ratio(float64(hits), float64(withTruth)))
	r.infof("read_p50_ms = %.6g ms, read_p99_ms = %.6g ms, read_ops_s = %.6g req/s", r.e2e["p50_ms"], r.e2e["p99_ms"], r.e2e["ops_s"])

	if p.trace {
		if err := resolveReplayLayers(p, r, cfg, e1Rows, st.res, st.ids, qs); err != nil {
			return nil, err
		}
		r.layer["online.insert_us_per_row"] = us(st.insert) / float64(len(st.ids))
		r.layer["trace.overhead_ratio"] = overhead
		if err := writeTrace(p, r, tr, "load"); err != nil {
			return nil, err
		}
	}
	r.e2e["heap_live_mib"] = heapLiveMiB()
	runtime.KeepAlive(st)
	return r, nil
}

// sparseProbe is the benchmark's own incremental ScanCount index over
// the same token sets the resolver holds, so the probe's cost and its
// candidate counts can be measured apart from the resolver.
type sparseProbe struct {
	cfg  online.Config
	snap *sparse.IncSnapshot
	dict map[string]int32
	sc   sparse.Scratch
}

func newSparseProbe(cfg online.Config, ids []int64, rows [][]entity.Attribute) (*sparseProbe, error) {
	vocab := online.NewVocab()
	idx := sparse.NewIncIndex()
	for i, attrs := range rows {
		if err := idx.Add(ids[i], vocab.Encode(cfg.Model.Tokens(cfg.TextOf(attrs)))); err != nil {
			return nil, err
		}
	}
	return &sparseProbe{cfg: cfg, snap: idx.Freeze(), dict: vocab.Frozen()}, nil
}

// encode maps query tokens as the resolver does: a token outside the
// vocabulary keeps its place in the set size but overlaps nothing.
func (sp *sparseProbe) encode(toks []string) []int32 {
	out := make([]int32, len(toks))
	for i, t := range toks {
		if id, ok := sp.dict[t]; ok {
			out[i] = id
		} else {
			out[i] = int32(len(sp.dict))
		}
	}
	return out
}

// overlapping is the ScanCount output: every set sharing a token.
func (sp *sparseProbe) overlapping(q []int32) int {
	return len(sp.snap.RangeQuery(q, sp.cfg.Measure, math.SmallestNonzeroFloat64, &sp.sc))
}

// resolveReplayLayers replays the leading queries one layer at a time:
// the handler, Snapshot.QueryTraced, the where clause, the text encode
// and the benchmark's own ScanCount probe over the same sets.
func resolveReplayLayers(p params, r *result, cfg online.Config, rows [][]entity.Attribute, res *online.Resolver,
	ids []int64, qs []resolveQuery) error {
	sp, err := newSparseProbe(cfg, ids, rows)
	if err != nil {
		return err
	}
	h := serve.NewServer(serve.WrapResolver(res), nil, serve.Options{}).Handler()
	restore := replayMode()
	defer restore()
	rt := newTracer()
	snap := res.Snapshot()
	var respBytes, serveAlloc, onlineAlloc, sparseAlloc, cands, overlap, kept []float64
	var evals, passes, whereQueries float64
	for i := 0; i < min(resolveReplay, len(qs)); i++ {
		q := &qs[i]
		opt, err := q.options()
		if err != nil {
			return err
		}
		req := rt.newID()
		serveInProcess(h, "/v1/query", q.body)
		var code, size int
		hid := rt.timed("serve.handler", 0, req, func() {
			rec := serveInProcess(h, "/v1/query", q.body)
			code, size = rec.Code, rec.Body.Len()
		})
		r.check(code == http.StatusOK, "replayed query %d answered %d", i, code)
		respBytes = append(respBytes, float64(size))
		serveAlloc = append(serveAlloc, allocBytes(func() { serveInProcess(h, "/v1/query", q.body) }))

		if q.where != "" {
			rt.timed("query.parse", hid, req, func() { _, _ = query.Parse(q.where) })
			counted := opt
			counted.Predicate = func(a []entity.Attribute) bool {
				evals++
				ok := opt.Predicate(a)
				if ok {
					passes++
				}
				return ok
			}
			snap.Query(q.attrs, counted)
			whereQueries++
		}

		snap.QueryTraced(q.attrs, opt)
		var got []online.Candidate
		oid := rt.timed("online.query", hid, req, func() { got, _ = snap.QueryTraced(q.attrs, opt) })
		onlineAlloc = append(onlineAlloc, allocBytes(func() { snap.QueryTraced(q.attrs, opt) }))
		cands = append(cands, float64(len(got)))

		var toks []string
		rt.timed("text.encode", oid, req, func() { toks = cfg.Model.Tokens(cfg.TextOf(q.attrs)) })
		set := sp.encode(toks)
		var ns []sparse.IncNeighbor
		rt.timed("sparse.knn", oid, req, func() { ns = sp.snap.KNNQuery(set, cfg.Measure, cfg.K, &sp.sc) })
		sparseAlloc = append(sparseAlloc, allocBytes(func() { sp.snap.KNNQuery(set, cfg.Measure, cfg.K, &sp.sc) }))
		o := sp.overlapping(set)
		overlap = append(overlap, float64(o))
		kept = append(kept, ratio(float64(len(ns)), float64(o)))
		if q.where == "" {
			r.check(len(ns) == len(got), "query %d: benchmark probe returned %d candidates, resolver %d", i, len(ns), len(got))
		}
	}
	dur, self := rt.layerTimes()
	l := r.layer
	l["serve.handler_us"] = dur["serve.handler"]
	l["serve.self_us"] = self["serve.handler"]
	l["serve.resp_bytes"] = mean(respBytes)
	l["serve.alloc_bytes_per_req"] = mean(serveAlloc)
	l["online.query_us"] = dur["online.query"]
	l["online.self_us"] = self["online.query"]
	l["online.candidates"] = mean(cands)
	l["online.alloc_bytes_per_query"] = mean(onlineAlloc)
	l["query.parse_us"] = dur["query.parse"]
	l["query.evals_per_query"] = ratio(evals, whereQueries)
	l["query.pass_ratio"] = ratio(passes, evals)
	l["text.encode_us"] = dur["text.encode"]
	l["sparse.knn_us"] = dur["sparse.knn"]
	l["sparse.overlap_cands"] = mean(overlap)
	l["sparse.kept_ratio"] = mean(kept)
	l["sparse.alloc_bytes_per_query"] = mean(sparseAlloc)
	return writeTrace(p, r, rt, "replay")
}

// writeTrace writes a run's spans under the work directory.
func writeTrace(p params, r *result, tr *tracer, phase string) error {
	if tr == nil {
		return nil
	}
	path, err := tr.write(p.workDir, fmt.Sprintf("trace-%s-seed%d-%s.json", p.name, p.seed, phase))
	if err != nil {
		return err
	}
	r.infof("%s spans written to %s", phase, path)
	return nil
}
