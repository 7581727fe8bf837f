package knn

import (
	"cmp"
	"container/heap"
	"math"
	"slices"

	"erfilter/internal/vector"
)

// HNSW is a Hierarchical Navigable Small World graph index (Malkov &
// Yashunin), the graph-based approximate method FAISS offers. The paper
// experimented with it and found it does not outperform the Flat index
// under Problem 1; it is implemented here so that finding is reproducible
// (see the ablation experiments).
type HNSW struct {
	// M is the maximum number of neighbors per node per layer (2M at
	// layer 0); 0 selects 16.
	M int
	// EfConstruction is the beam width during insertion; 0 selects 100.
	EfConstruction int
	// EfSearch is the beam width during queries; 0 selects 64.
	EfSearch int
	// Metric ranks candidates (DotProduct or L2Squared).
	Metric Metric
	// Seed drives the random level assignment.
	Seed uint64

	vecs    []vector.Vec
	levels  []int
	links   [][][]int32 // [node][layer][] neighbor ids
	entry   int32
	maxL    int
	levelML float64
}

// NewHNSW builds the graph over the vectors.
func NewHNSW(vecs []vector.Vec, h HNSW) *HNSW {
	idx := &h
	if idx.M <= 0 {
		idx.M = 16
	}
	if idx.EfConstruction <= 0 {
		idx.EfConstruction = 100
	}
	if idx.EfSearch <= 0 {
		idx.EfSearch = 64
	}
	idx.levelML = 1 / math.Log(float64(idx.M))
	idx.entry = -1
	idx.maxL = -1
	for i := range vecs {
		idx.insert(vecs, int32(i))
	}
	idx.vecs = vecs
	return idx
}

// Len returns the number of indexed vectors.
func (h *HNSW) Len() int { return len(h.vecs) }

// randomLevel samples a node's top layer geometrically through the
// shared seeded helper (see level.go).
func (h *HNSW) randomLevel(id int32) int {
	return levelFor(uint64(id)+1, h.Seed, h.levelML)
}

func (h *HNSW) dist(vecs []vector.Vec, a vector.Vec, b int32) float64 {
	return h.Metric.score(a, vecs[b])
}

// searchLayer runs a best-first beam search of width ef on one layer,
// starting from the given entry points. Returns the ef closest nodes.
type cand struct {
	id int32
	d  float64
}

type candMinHeap []cand

func (h candMinHeap) Len() int            { return len(h) }
func (h candMinHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h candMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candMinHeap) Push(x interface{}) { *h = append(*h, x.(cand)) }
func (h *candMinHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type candMaxHeap []cand

func (h candMaxHeap) Len() int            { return len(h) }
func (h candMaxHeap) Less(i, j int) bool  { return h[i].d > h[j].d }
func (h candMaxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candMaxHeap) Push(x interface{}) { *h = append(*h, x.(cand)) }
func (h *candMaxHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (h *HNSW) searchLayer(vecs []vector.Vec, q vector.Vec, entries []cand, ef, layer int) []cand {
	visited := map[int32]bool{}
	frontier := candMinHeap{}
	results := candMaxHeap{}
	for _, e := range entries {
		if visited[e.id] {
			continue
		}
		visited[e.id] = true
		heap.Push(&frontier, e)
		heap.Push(&results, e)
	}
	for frontier.Len() > 0 {
		cur := heap.Pop(&frontier).(cand)
		if results.Len() >= ef && cur.d > results[0].d {
			break
		}
		for _, n := range h.links[cur.id][layer] {
			if visited[n] {
				continue
			}
			visited[n] = true
			d := h.dist(vecs, q, n)
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

// selectNeighbors implements the neighbor-selection heuristic of Malkov
// & Yashunin (Algorithm 4). Scanning candidates best-first, a candidate
// is kept only when it is closer to the query than to every neighbor
// kept before it — a candidate that is not is "shadowed" by a kept
// neighbor which can route to it. This preserves bridge links between
// clusters: keeping simply the m closest fragments clustered data into
// per-cluster islands that greedy search cannot cross. Shadowed
// candidates backfill any remaining degree (the paper's
// keepPrunedConnections), so diversity never costs connectivity.
// between must return the distance between two indexed nodes; cands
// must be sorted best (smallest d) first.
func selectNeighbors(cands []cand, m int, between func(a, b int32) float64) []cand {
	if len(cands) <= m {
		return cands
	}
	kept := make([]cand, 0, m)
	skipped := make([]cand, 0, len(cands))
	for _, c := range cands {
		if len(kept) == m {
			break
		}
		shadowed := false
		for _, r := range kept {
			if between(c.id, r.id) < c.d {
				shadowed = true
				break
			}
		}
		if shadowed {
			skipped = append(skipped, c)
		} else {
			kept = append(kept, c)
		}
	}
	for _, c := range skipped {
		if len(kept) == m {
			break
		}
		kept = append(kept, c)
	}
	return kept
}

func (h *HNSW) insert(vecs []vector.Vec, id int32) {
	level := h.randomLevel(id)
	node := make([][]int32, level+1)
	h.links = append(h.links, node)
	h.levels = append(h.levels, level)

	if h.entry < 0 {
		h.entry = id
		h.maxL = level
		return
	}

	q := vecs[id]
	ep := []cand{{id: h.entry, d: h.dist(vecs, q, h.entry)}}
	// Greedy descent through the layers above the node's level.
	for l := h.maxL; l > level; l-- {
		ep = h.searchLayer(vecs, q, ep, 1, l)
	}
	// Insert at each layer from min(level, maxL) down to 0.
	top := level
	if top > h.maxL {
		top = h.maxL
	}
	for l := top; l >= 0; l-- {
		found := h.searchLayer(vecs, q, ep, h.EfConstruction, l)
		m := h.M
		if l == 0 {
			m = 2 * h.M
		}
		neighbors := selectNeighbors(found, m, func(a, b int32) float64 {
			return h.Metric.score(vecs[a], vecs[b])
		})
		for _, n := range neighbors {
			h.links[id][l] = append(h.links[id][l], n.id)
			h.links[n.id][l] = append(h.links[n.id][l], id)
			// Prune over-connected neighbors.
			if len(h.links[n.id][l]) > m {
				h.pruneNode(vecs, n.id, l, m)
			}
		}
		ep = found
	}
	if level > h.maxL {
		h.maxL = level
		h.entry = id
	}
}

// pruneNode trims an over-connected node's layer links back to m, using
// the same diversity heuristic as insertion (relative to the node's own
// vector) so pruning cannot sever the bridge links insertion kept.
func (h *HNSW) pruneNode(vecs []vector.Vec, id int32, layer, m int) {
	links := h.links[id][layer]
	cands := make([]cand, 0, len(links))
	for _, n := range links {
		cands = append(cands, cand{id: n, d: h.Metric.score(vecs[id], vecs[n])})
	}
	sortCands(cands)
	sel := selectNeighbors(cands, m, func(a, b int32) float64 {
		return h.Metric.score(vecs[a], vecs[b])
	})
	kept := make([]int32, 0, m)
	for _, c := range sel {
		kept = append(kept, c.id)
	}
	h.links[id][layer] = kept
}

// sortCands orders candidates by (distance, id) — the deterministic
// best-first order the selection heuristic scans in.
func sortCands(cands []cand) {
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
}

// Search implements Searcher.
func (h *HNSW) Search(q vector.Vec, k int) []Result {
	if k <= 0 || h.entry < 0 {
		return nil
	}
	ep := []cand{{id: h.entry, d: h.dist(h.vecs, q, h.entry)}}
	for l := h.maxL; l > 0; l-- {
		ep = h.searchLayer(h.vecs, q, ep, 1, l)
	}
	ef := h.EfSearch
	if ef < k {
		ef = k
	}
	found := h.searchLayer(h.vecs, q, ep, ef, 0)
	if len(found) > k {
		found = found[:k]
	}
	out := make([]Result, len(found))
	for i, c := range found {
		out[i] = Result{ID: c.id, Score: c.d}
	}
	return out
}
