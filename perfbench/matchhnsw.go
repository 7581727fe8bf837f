package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/match"
	"erfilter/internal/online"
	"erfilter/internal/serve"
	"erfilter/internal/vector"
)

// match-hnsw: the D2 product analog, scaled to about two thousand E1
// entities, is indexed by FlatKNN over an incremental HNSW graph at a
// reduced embedding dimension; two closed-loop clients send small E2
// batches as POST /v1/match (Jaro-Winkler scoring, bipartite
// assignment). It exercises embedding, the dense probe, QueryBatch,
// pair scoring and assignment, and bypasses sparse and wal.

const (
	matchBatch    = 8  // E2 queries per /v1/match request
	matchSample   = 32 // leading batches checked against in-process DecideBatch
	matchDim      = 32
	matchK        = 5
	matchSetups   = 3
	matchScale    = 2.0
	matchSmallSc  = 0.1
	matchAssignBy = "bipartite"
)

// matchConfigs index and score the best attribute alone (the paper's
// schema-based setting): Jaro-Winkler over whole product descriptions
// would decide almost nothing. The metric is erserve's default.
func matchConfigs(best string) (online.Config, match.Config) {
	rc := online.Config{
		Method: online.FlatKNN, Setting: entity.SchemaBased, BestAttribute: best,
		K: matchK, Dim: matchDim, Dense: online.DenseHNSW,
	}
	mc := match.Config{Scorer: match.ScoreJaroWinkler, Assign: match.AssignBipartite}.Normalize()
	return rc, mc
}

func runMatch(p params) (*result, error) {
	scale := matchScale
	if p.small {
		scale = matchSmallSc
	}
	task, err := genTask("D2", scale, p.seed)
	if err != nil {
		return nil, err
	}
	truth := truthByE2(task)
	order := sendOrder(task.E2, p.seed)
	nb := len(order) / matchBatch
	batches := make([][][]entity.Attribute, nb)
	bodies := make([][]byte, nb)
	for b := range batches {
		qs := make([]map[string]any, matchBatch)
		for j := range qs {
			prof := task.E2.Profiles[order[b*matchBatch+j]]
			batches[b] = append(batches[b], wireAttrs(prof))
			qs[j] = map[string]any{"attrs": attrMap(prof)}
		}
		bodies[b] = mustJSON(map[string]any{"queries": qs, "assign": matchAssignBy})
	}
	rcfg, mcfg := matchConfigs(task.BestAttribute)
	e1Rows := wireRows(task.E1)

	type state struct {
		res    *online.Resolver
		srv    *server
		ids    []int64
		insert time.Duration
	}
	st, setup, err := setupMedian(matchSetups, func() (*state, time.Duration, error) {
		begin := time.Now()
		res := online.NewResolver(rcfg)
		ids := res.InsertBatch(e1Rows)
		insert := time.Since(begin)
		srv, err := startServer(serve.WrapResolver(res), nil, serve.Options{Match: &serve.MatchOptions{Config: mcfg}})
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
	r.infof("inputs: D2 analog scale %g, |E1|=%d indexed (HNSW, dim %d, k=%d), %d E2 batches of %d, %d clients",
		scale, task.E1.Len(), matchDim, matchK, nb, matchBatch, p.clients)
	sample := make([][]byte, min(matchSample, nb))
	loops, tr, overhead := runLoad(p, st.srv, func(d time.Duration, tr *tracer) []*loopStats {
		cl := newClient(st.srv.url, p.clients, tr)
		defer cl.close()
		return []*loopStats{closedLoop(p.clients, d, func(seq int) error {
			data, err := cl.post("/v1/match", bodies[seq%nb])
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
	reqs := loops[0]
	r.count(reqs, "match")
	reqs.primary(r)
	r.infof("%s", reqs.summary("read POST /v1/match"))

	// HTTP decisions must be identical to in-process DecideBatch; F1 is
	// taken over the sampled batches, recall@k of HNSW against the exact
	// oracle over their queries.
	snap := st.res.Snapshot()
	dec := match.NewDecider(mcfg, st.res.Config())
	var correct, decided, want, recallHit, recallWant float64
	for b, data := range sample {
		res := dec.DecideBatch(snap, batches[b], match.Request{}, match.AssignBipartite)
		var got struct {
			Matches json.RawMessage `json:"matches"`
		}
		ok := data != nil && json.Unmarshal(data, &got) == nil && bytes.Equal(got.Matches, decisionBytes(res.Decisions))
		r.check(ok, "batch %d: HTTP decisions differ from in-process DecideBatch", b)
		for _, d := range res.Decisions {
			decided++
			if e1, has := truth[order[b*matchBatch+d.Query]]; has && e1Of[d.ID] == e1 {
				correct++
			}
		}
		for j, attrs := range batches[b] {
			if _, has := truth[order[b*matchBatch+j]]; has {
				want++
			}
			approx := snap.Query(attrs, online.QueryOptions{})
			exact := snap.Query(attrs, online.QueryOptions{Exact: true})
			if len(exact) == 0 {
				continue
			}
			cut := exact[len(exact)-1].Score
			hit := 0
			for _, c := range approx {
				if c.Score >= cut {
					hit++
				}
			}
			recallHit += float64(min(hit, len(exact)))
			recallWant += float64(len(exact))
		}
	}
	prec, rec := ratio(correct, decided), ratio(correct, want)
	r.infof("match_f1 = %.6f (precision %.6f, recall %.6f over %d sampled batches)", ratio(2*prec*rec, prec+rec), prec, rec, len(sample))
	r.infof("recall_at_k = %.6f (HNSW against the exact oracle, k=%d)", ratio(recallHit, recallWant), matchK)
	r.infof("read_p50_ms = %.6g ms, read_p99_ms = %.6g ms, read_ops_s = %.6g req/s", r.e2e["p50_ms"], r.e2e["p99_ms"], r.e2e["ops_s"])

	if p.trace {
		if err := matchReplayLayers(p, r, rcfg, mcfg, e1Rows, batches, bodies); err != nil {
			return nil, err
		}
		r.layer["trace.overhead_ratio"] = overhead
		if err := writeTrace(p, r, tr, "load"); err != nil {
			return nil, err
		}
	}
	r.e2e["heap_live_mib"] = heapLiveMiB()
	runtime.KeepAlive(st)
	return r, nil
}

// decisionBytes renders decisions as the server serializes them.
func decisionBytes(ds []match.Decision) []byte {
	if ds == nil {
		ds = []match.Decision{}
	}
	return mustJSON(ds)
}

// matchReplayLayers replays the sampled batches one layer at a time: the
// handler, DecideBatch, the QueryBatch it makes, the embedding and the
// benchmark's own HNSW probe over the same vectors, and the assignment
// over the same thresholded edges. It serves from a fresh resolver and
// server: their sampled recall and decision probes count calls, so only
// fresh ones allocate the same on every run.
func matchReplayLayers(p params, r *result, rcfg online.Config, mcfg match.Config, rows [][]entity.Attribute,
	batches [][][]entity.Attribute, bodies [][]byte) error {
	rt := newTracer()
	res := online.NewResolver(rcfg)
	var ids []int64
	rt.timed("online.insert", 0, 0, func() { ids = res.InsertBatch(rows) })
	h := serve.NewServer(serve.WrapResolver(res), nil, serve.Options{Match: &serve.MatchOptions{Config: mcfg}}).Handler()
	rcfg = res.Config()
	emb := vector.NewEmbedder(rcfg.Dim)
	graph := knn.NewIncHNSW(rcfg.Metric, rcfg.HNSW)
	for i, attrs := range rows {
		v := emb.Text(rcfg.TextOf(attrs))
		var err error
		rt.timed("knn.hnsw_add", 0, 0, func() { err = graph.Add(ids[i], v) })
		if err != nil {
			return err
		}
	}
	gs := graph.Freeze()
	restore := replayMode()
	defer restore()
	snap := res.Snapshot()
	dec := match.NewDecider(mcfg, rcfg)
	var respBytes, serveAlloc, onlineAlloc, cands, comparisons, decidedRatio []float64
	for b := 0; b < min(matchSample, len(batches)); b++ {
		batch, body := batches[b], bodies[b]
		req := rt.newID()
		serveInProcess(h, "/v1/match", body)
		var code, size int
		hid := rt.timed("serve.handler", 0, req, func() {
			rec := serveInProcess(h, "/v1/match", body)
			code, size = rec.Code, rec.Body.Len()
		})
		r.check(code == http.StatusOK, "replayed match batch %d answered %d", b, code)
		respBytes = append(respBytes, float64(size))
		serveAlloc = append(serveAlloc, allocBytes(func() { serveInProcess(h, "/v1/match", body) }))

		var mres match.Result
		did := rt.timed("match.decide", hid, req, func() { mres = dec.DecideBatch(snap, batch, match.Request{}, match.AssignBipartite) })
		comparisons = append(comparisons, float64(mres.Comparisons)/float64(len(batch)))
		decidedRatio = append(decidedRatio, ratio(float64(len(mres.Decisions)), float64(mres.Comparisons)))

		snap.QueryBatch(batch, online.QueryOptions{})
		var got [][]online.Candidate
		oid := rt.timed("online.query", did, req, func() { got, _ = snap.QueryBatch(batch, online.QueryOptions{}) })
		onlineAlloc = append(onlineAlloc, allocBytes(func() { snap.QueryBatch(batch, online.QueryOptions{}) }))
		n := 0
		for _, cs := range got {
			n += len(cs)
		}
		cands = append(cands, float64(n)/float64(len(batch)))

		vecs := make([]vector.Vec, len(batch))
		rt.timed("vector.embed", oid, req, func() {
			for j, attrs := range batch {
				vecs[j] = emb.Text(rcfg.TextOf(attrs))
			}
		})
		rt.timed("knn.hnsw_search", oid, req, func() {
			for _, v := range vecs {
				gs.Search(v, rcfg.K)
			}
		})

		// The edges DecideBatch assigns: every candidate pair the scorer
		// puts at or above the threshold.
		var edges []match.Edge
		for q, cs := range got {
			qt := rcfg.TextOf(batch[q])
			for _, c := range cs {
				attrs, ok := snap.Attrs(c.ID)
				if !ok {
					continue
				}
				if sim := mcfg.Scorer.Sim(qt, rcfg.TextOf(attrs)); sim >= mcfg.Threshold {
					edges = append(edges, match.Edge{Q: q, ID: c.ID, Score: sim})
				}
			}
		}
		rt.timed("match.assign", did, req, func() { match.Bipartite(edges) })
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
	l["vector.embed_us"] = dur["vector.embed"] / matchBatch
	l["knn.hnsw_search_us"] = dur["knn.hnsw_search"] / matchBatch
	l["knn.hnsw_add_us"] = dur["knn.hnsw_add"]
	l["online.insert_us_per_row"] = dur["online.insert"] / float64(len(rows))
	l["match.score_us"] = dur["match.decide"] - dur["online.query"]
	l["match.assign_us"] = dur["match.assign"]
	l["match.comparisons_per_query"] = mean(comparisons)
	l["match.decided_ratio"] = mean(decidedRatio)
	return writeTrace(p, r, rt, "replay")
}
