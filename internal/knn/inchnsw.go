package knn

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"

	"erfilter/internal/vector"
)

// HNSWParams are the tuning knobs of an incremental HNSW index. The zero
// value selects the same defaults as the batch HNSW (M=16, beam widths
// 100/64, seed 0).
type HNSWParams struct {
	// M is the maximum number of neighbors per node per layer (2M at
	// layer 0); 0 selects 16.
	M int
	// EfConstruction is the beam width during insertion; 0 selects 100.
	EfConstruction int
	// EfSearch is the default beam width during queries; 0 selects 64.
	EfSearch int
	// Seed drives the deterministic level assignment.
	Seed uint64
}

// Normalized returns the params with defaults filled in — the concrete
// values an index built from them will actually run with (and persist).
func (p HNSWParams) Normalized() HNSWParams { return p.withDefaults() }

func (p HNSWParams) withDefaults() HNSWParams {
	if p.M <= 0 {
		p.M = 16
	}
	if p.EfConstruction <= 0 {
		p.EfConstruction = 100
	}
	if p.EfSearch <= 0 {
		p.EfSearch = 64
	}
	return p
}

// IncHNSW is the incremental variant of the batch HNSW graph, mirroring
// IncFlat's contract: vectors are added and removed under stable external
// int64 ids, deletions are tombstones reclaimed by Compact, and Freeze
// publishes an immutable snapshot for lock-free concurrent searches.
//
// Tombstoned nodes stay in the graph as routing waypoints — search
// traverses them but never returns them — so deletions cannot sever the
// navigable small-world structure. Compact rebuilds the graph from
// scratch over the survivors; because a node's layer is a pure function
// of (external id, seed), every survivor keeps its layer across the
// rebuild.
//
// An IncHNSW is a single-writer structure: Add, Remove, Compact and
// Freeze must be externally serialized. Snapshots stay valid forever:
// Freeze copies the per-node adjacency headers lazily (a generation
// counter marks which nodes the writer still owns; the first post-freeze
// mutation of a node copies its layer table), while the id, vector and
// link backing arrays are shared append-only.
type IncHNSW struct {
	metric  Metric
	p       HNSWParams
	levelML float64

	ids    []int64      // slot → external id
	vecs   []vector.Vec // slot → vector (retained, not copied)
	live   []bool       // slot → not tombstoned
	links  [][][]int32  // slot → layer → neighbor slots
	ownGen []uint64     // slot → freeze generation that owns links[slot]
	gen    uint64       // current freeze generation
	dead   int
	slotOf map[int64]int32
	entry  int32
	maxL   int

	vis *visitSet // construction scratch
}

// NewIncHNSW returns an empty incremental HNSW index under the metric.
func NewIncHNSW(metric Metric, p HNSWParams) *IncHNSW {
	p = p.withDefaults()
	return &IncHNSW{
		metric:  metric,
		p:       p,
		levelML: 1 / math.Log(float64(p.M)),
		slotOf:  make(map[int64]int32),
		entry:   -1,
		maxL:    -1,
		vis:     &visitSet{},
	}
}

// Params returns the index's normalized tuning knobs.
func (h *IncHNSW) Params() HNSWParams { return h.p }

// Metric returns the metric the index ranks under.
func (h *IncHNSW) Metric() Metric { return h.metric }

// Len returns the number of live (non-tombstoned) vectors.
func (h *IncHNSW) Len() int { return len(h.ids) - h.dead }

// Dead returns the number of tombstoned slots awaiting compaction.
func (h *IncHNSW) Dead() int { return h.dead }

// Has reports whether id is currently indexed (live).
func (h *IncHNSW) Has(id int64) bool {
	_, ok := h.slotOf[id]
	return ok
}

// Dim returns the dimensionality of the indexed vectors (0 when empty).
func (h *IncHNSW) Dim() int {
	if len(h.vecs) == 0 {
		return 0
	}
	return len(h.vecs[0])
}

// claim takes writer ownership of slot's layer table before a mutation.
// Snapshots share the table published at freeze time; the first mutation
// after a freeze copies the layer headers so in-place neighbor appends
// and prune replacements stay invisible to every published snapshot.
// (Appends into a shared neighbor backing array land strictly beyond any
// snapshot's recorded length, so the int32 contents need no copy.)
func (h *IncHNSW) claim(s int32) {
	if h.ownGen[s] == h.gen {
		return
	}
	h.links[s] = append([][]int32(nil), h.links[s]...)
	h.ownGen[s] = h.gen
}

// Add indexes the vector under the external id. The vector is retained,
// not copied; callers must not mutate it afterwards. It is an error to
// add an id that is currently indexed.
func (h *IncHNSW) Add(id int64, v vector.Vec) error {
	if _, ok := h.slotOf[id]; ok {
		return fmt.Errorf("knn: id %d already indexed", id)
	}
	slot := int32(len(h.ids))
	level := levelFor(uint64(id)+1, h.p.Seed, h.levelML)
	h.ids = append(h.ids, id)
	h.vecs = append(h.vecs, v)
	h.live = append(h.live, true)
	h.links = append(h.links, make([][]int32, level+1))
	h.ownGen = append(h.ownGen, h.gen)
	h.slotOf[id] = slot
	h.insertLinks(slot, level)
	return nil
}

func (h *IncHNSW) insertLinks(slot int32, level int) {
	if h.entry < 0 {
		h.entry = slot
		h.maxL = level
		return
	}
	g := hnswView{metric: h.metric, vecs: h.vecs, links: h.links}
	q := h.vecs[slot]
	ep := []cand{{id: h.entry, d: g.dist(q, h.entry)}}
	for l := h.maxL; l > level; l-- {
		ep = g.searchLayer(q, ep, 1, l, h.vis)
	}
	top := level
	if top > h.maxL {
		top = h.maxL
	}
	for l := top; l >= 0; l-- {
		found := g.searchLayer(q, ep, h.p.EfConstruction, l, h.vis)
		m := h.p.M
		if l == 0 {
			m = 2 * h.p.M
		}
		neighbors := selectNeighbors(found, m, func(a, b int32) float64 {
			return h.metric.score(h.vecs[a], h.vecs[b])
		})
		for _, n := range neighbors {
			h.links[slot][l] = append(h.links[slot][l], n.id)
			h.claim(n.id)
			h.links[n.id][l] = append(h.links[n.id][l], slot)
			if len(h.links[n.id][l]) > m {
				h.pruneSlot(n.id, l, m)
			}
		}
		ep = found
	}
	if level > h.maxL {
		h.maxL = level
		h.entry = slot
	}
}

// pruneSlot trims an over-connected claimed slot's layer links back to
// m with the same diversity heuristic as insertion (see selectNeighbors
// in hnsw.go), relative to the slot's own vector.
func (h *IncHNSW) pruneSlot(s int32, layer, m int) {
	links := h.links[s][layer]
	cands := make([]cand, 0, len(links))
	for _, n := range links {
		cands = append(cands, cand{id: n, d: h.metric.score(h.vecs[s], h.vecs[n])})
	}
	sortCands(cands)
	sel := selectNeighbors(cands, m, func(a, b int32) float64 {
		return h.metric.score(h.vecs[a], h.vecs[b])
	})
	kept := make([]int32, 0, m)
	for _, c := range sel {
		kept = append(kept, c.id)
	}
	h.links[s][layer] = kept
}

// Remove tombstones the vector indexed under id, reporting whether it
// was present. The node stays in the graph as a routing waypoint until
// the next Compact.
func (h *IncHNSW) Remove(id int64) bool {
	slot, ok := h.slotOf[id]
	if !ok {
		return false
	}
	delete(h.slotOf, id)
	h.live[slot] = false
	h.dead++
	return true
}

// Compact rebuilds the graph from scratch over the survivors in slot
// order. Arrays are freshly allocated, so frozen snapshots remain valid;
// levels are a pure function of (id, seed), so every survivor keeps its
// layer.
func (h *IncHNSW) Compact() {
	if h.dead == 0 {
		return
	}
	ids, vecs, live := h.ids, h.vecs, h.live
	n := len(ids) - h.dead
	h.ids = make([]int64, 0, n)
	h.vecs = make([]vector.Vec, 0, n)
	h.live = make([]bool, 0, n)
	h.links = make([][][]int32, 0, n)
	h.ownGen = make([]uint64, 0, n)
	h.slotOf = make(map[int64]int32, n)
	h.dead = 0
	h.entry = -1
	h.maxL = -1
	for slot := range ids {
		if !live[slot] {
			continue
		}
		if err := h.Add(ids[slot], vecs[slot]); err != nil {
			// Unreachable: live ids are unique by construction.
			panic(err)
		}
	}
}

// Freeze publishes an immutable point-in-time snapshot. The id, vector
// and adjacency-header arrays are shared (the writer copies a node's
// headers before its first post-freeze mutation — see claim); the
// tombstone bits are copied.
func (h *IncHNSW) Freeze() *HNSWSnapshot {
	h.gen++
	return &HNSWSnapshot{
		metric: h.metric,
		p:      h.p,
		ids:    h.ids[:len(h.ids):len(h.ids)],
		vecs:   h.vecs[:len(h.vecs):len(h.vecs)],
		live:   append([]bool(nil), h.live...),
		links:  append([][][]int32(nil), h.links...),
		entry:  h.entry,
		maxL:   h.maxL,
		count:  h.Len(),
	}
}

// HNSWSnapshot is an immutable view of an IncHNSW at one instant; any
// number of goroutines may call the Search methods concurrently.
type HNSWSnapshot struct {
	metric Metric
	p      HNSWParams
	ids    []int64
	vecs   []vector.Vec
	live   []bool
	links  [][][]int32
	entry  int32
	maxL   int
	count  int
}

// Len returns the number of live vectors visible to the snapshot.
func (s *HNSWSnapshot) Len() int { return s.count }

// Search returns (approximately) the k best-scoring live vectors, best
// first (score ascending, ties by ascending id), using the index's
// default beam width.
func (s *HNSWSnapshot) Search(q vector.Vec, k int) []IncResult {
	return s.SearchEf(q, k, 0)
}

// SearchEf is Search with an explicit beam width; ef <= 0 selects the
// index default, and the beam is never narrower than k. Wider beams
// raise recall at the cost of latency.
func (s *HNSWSnapshot) SearchEf(q vector.Vec, k, ef int) []IncResult {
	if k <= 0 || s.entry < 0 || s.count == 0 {
		return nil
	}
	if ef <= 0 {
		ef = s.p.EfSearch
	}
	if ef < k {
		ef = k
	}
	g := hnswView{metric: s.metric, vecs: s.vecs, links: s.links}
	vis := visitPool.Get().(*visitSet)
	defer visitPool.Put(vis)
	ep := []cand{{id: s.entry, d: g.dist(q, s.entry)}}
	for l := s.maxL; l > 0; l-- {
		ep = g.searchLayer(q, ep, 1, l, vis)
	}
	found := g.searchLive(q, s.live, ep, ef, vis)
	slices.SortFunc(found, func(a, b cand) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(s.ids[a.id], s.ids[b.id])
	})
	if len(found) > k {
		found = found[:k]
	}
	out := make([]IncResult, len(found))
	for i, c := range found {
		out[i] = IncResult{ID: s.ids[c.id], Score: c.d}
	}
	return out
}

// SearchExact brute-force scans the snapshot's live vectors, returning
// exactly what a FlatSnapshot over the same (id, vector, tombstone)
// state would: the k lexicographically smallest (score, id) results.
func (s *HNSWSnapshot) SearchExact(q vector.Vec, k int) []IncResult {
	if k <= 0 {
		return nil
	}
	h := &incTopK{k: k}
	for slot, v := range s.vecs {
		if !s.live[slot] {
			continue
		}
		h.offer(s.ids[slot], s.metric.score(q, v))
	}
	out := append([]IncResult(nil), h.items...)
	slices.SortFunc(out, compareIncResults)
	return out
}

// hnswView bundles the arrays both the writer (during construction) and
// snapshots (during queries) search over.
type hnswView struct {
	metric Metric
	vecs   []vector.Vec
	links  [][][]int32
}

func (g hnswView) dist(q vector.Vec, s int32) float64 {
	return g.metric.score(q, g.vecs[s])
}

// searchLayer runs a best-first beam search of width ef on one layer,
// starting from the given entry points. Returns the ef closest nodes,
// best first. Tombstones are ignored: construction and upper-layer
// descent route through every node.
func (g hnswView) searchLayer(q vector.Vec, entries []cand, ef, layer int, vis *visitSet) []cand {
	vis.reset(len(g.links))
	frontier := candMinHeap{}
	results := candMaxHeap{}
	for _, e := range entries {
		if vis.testAndSet(e.id) {
			continue
		}
		heap.Push(&frontier, e)
		heap.Push(&results, e)
	}
	for frontier.Len() > 0 {
		cur := heap.Pop(&frontier).(cand)
		if results.Len() >= ef && cur.d > results[0].d {
			break
		}
		for _, n := range g.links[cur.id][layer] {
			if vis.testAndSet(n) {
				continue
			}
			d := g.dist(q, n)
			if results.Len() < ef || d < results[0].d {
				heap.Push(&frontier, cand{id: n, d: d})
				heap.Push(&results, cand{id: n, d: d})
				if results.Len() > ef {
					heap.Pop(&results)
				}
			}
		}
	}
	out := make([]cand, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&results).(cand)
	}
	return out
}

// searchLive is the layer-0 query beam: the frontier traverses
// tombstoned nodes as waypoints, but only live nodes are admitted to the
// result set. When fewer than ef live nodes have been found the beam
// keeps expanding, so deletions degrade latency before they degrade
// recall.
func (g hnswView) searchLive(q vector.Vec, live []bool, entries []cand, ef int, vis *visitSet) []cand {
	vis.reset(len(g.links))
	frontier := candMinHeap{}
	results := candMaxHeap{}
	for _, e := range entries {
		if vis.testAndSet(e.id) {
			continue
		}
		heap.Push(&frontier, e)
		if live[e.id] {
			heap.Push(&results, e)
		}
	}
	for frontier.Len() > 0 {
		cur := heap.Pop(&frontier).(cand)
		if results.Len() >= ef && cur.d > results[0].d {
			break
		}
		for _, n := range g.links[cur.id][0] {
			if vis.testAndSet(n) {
				continue
			}
			d := g.dist(q, n)
			if results.Len() < ef || d < results[0].d {
				heap.Push(&frontier, cand{id: n, d: d})
				if live[n] {
					heap.Push(&results, cand{id: n, d: d})
					if results.Len() > ef {
						heap.Pop(&results)
					}
				}
			}
		}
	}
	out := make([]cand, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&results).(cand)
	}
	return out
}

// visitSet is a round-stamped visited marker: reset is O(1) (a round
// bump) until the uint32 round wraps. One instance serves all the layer
// searches of a single insert or query.
type visitSet struct {
	mark  []uint32
	round uint32
}

func (v *visitSet) reset(n int) {
	if len(v.mark) < n {
		v.mark = make([]uint32, n)
		v.round = 1
		return
	}
	v.round++
	if v.round == 0 {
		for i := range v.mark {
			v.mark[i] = 0
		}
		v.round = 1
	}
}

func (v *visitSet) testAndSet(i int32) bool {
	if v.mark[i] == v.round {
		return true
	}
	v.mark[i] = v.round
	return false
}

// visitPool recycles query-path visit sets across searches (snapshots
// are immutable, so the scratch cannot live on them).
var visitPool = sync.Pool{New: func() interface{} { return &visitSet{} }}
