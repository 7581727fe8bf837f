package knn

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"erfilter/internal/vector"
)

// IncResult is one search hit of an incremental flat index: the external
// id of an indexed vector and its metric-normalized score (smaller is
// better).
type IncResult struct {
	ID    int64
	Score float64
}

// IncFlat is the incremental variant of the exact Flat index: vectors are
// added and removed under stable external int64 ids, deletions are
// tombstones reclaimed by Compact, and Freeze publishes an immutable
// snapshot for lock-free concurrent searches.
//
// Selection is fully determined by (score, id): a candidate displaces the
// current k-th best only if it scores strictly better or ties with a
// smaller id. Because the batch Flat scores vectors in position order and
// breaks ties by position, a snapshot search equals a batch Flat search
// over the surviving vectors laid out in ascending-id order — which is
// slot order whenever ids are added monotonically, the discipline the
// online resolver follows (the equivalence tests check exactly this).
//
// An IncFlat is a single-writer structure: Add, Remove, Compact and
// Freeze must be externally serialized. Snapshots stay valid forever.
type IncFlat struct {
	metric Metric
	vecs   []vector.Vec // slot → vector (retained, not copied)
	ids    []int64      // slot → external id
	live   []bool       // slot → not tombstoned
	dead   int
	slotOf map[int64]int32
}

// NewIncFlat returns an empty incremental flat index under the metric.
func NewIncFlat(metric Metric) *IncFlat {
	return &IncFlat{metric: metric, slotOf: make(map[int64]int32)}
}

// Len returns the number of live (non-tombstoned) vectors.
func (f *IncFlat) Len() int { return len(f.ids) - f.dead }

// Dead returns the number of tombstoned slots awaiting compaction.
func (f *IncFlat) Dead() int { return f.dead }

// Add indexes the vector under the external id. The vector is retained,
// not copied; callers must not mutate it afterwards. It is an error to
// add an id that is currently indexed.
func (f *IncFlat) Add(id int64, v vector.Vec) error {
	if _, ok := f.slotOf[id]; ok {
		return fmt.Errorf("knn: id %d already indexed", id)
	}
	slot := int32(len(f.ids))
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, v)
	f.live = append(f.live, true)
	f.slotOf[id] = slot
	return nil
}

// Remove tombstones the vector indexed under id, reporting whether it was
// present.
func (f *IncFlat) Remove(id int64) bool {
	slot, ok := f.slotOf[id]
	if !ok {
		return false
	}
	delete(f.slotOf, id)
	f.live[slot] = false
	f.dead++
	return true
}

// Compact rewrites the index without tombstoned slots, preserving the
// survivors' relative order. Arrays are freshly allocated, so frozen
// snapshots remain valid.
func (f *IncFlat) Compact() {
	if f.dead == 0 {
		return
	}
	n := len(f.ids) - f.dead
	ids := make([]int64, 0, n)
	vecs := make([]vector.Vec, 0, n)
	live := make([]bool, n)
	for slot := range f.ids {
		if !f.live[slot] {
			continue
		}
		ids = append(ids, f.ids[slot])
		vecs = append(vecs, f.vecs[slot])
	}
	for i := range live {
		live[i] = true
	}
	f.ids, f.vecs, f.live, f.dead = ids, vecs, live, 0
	slotOf := make(map[int64]int32, len(ids))
	for slot, id := range ids {
		slotOf[id] = int32(slot)
	}
	f.slotOf = slotOf
}

// Freeze publishes an immutable point-in-time snapshot sharing the
// append-only vector and id arrays (later appends land strictly beyond
// the snapshot's recorded lengths) and copying the tombstone bits, the
// only state mutated in place.
func (f *IncFlat) Freeze() *FlatSnapshot {
	return &FlatSnapshot{
		metric: f.metric,
		vecs:   f.vecs[:len(f.vecs):len(f.vecs)],
		ids:    f.ids[:len(f.ids):len(f.ids)],
		live:   append([]bool(nil), f.live...),
		count:  f.Len(),
	}
}

// FlatSnapshot is an immutable view of an IncFlat at one instant; any
// number of goroutines may call Search concurrently.
type FlatSnapshot struct {
	metric Metric
	vecs   []vector.Vec
	ids    []int64
	live   []bool
	count  int
}

// Len returns the number of live vectors visible to the snapshot.
func (s *FlatSnapshot) Len() int { return s.count }

// Search returns the k best-scoring live vectors, best first (score
// ascending, ties by ascending id). Fewer are returned when the snapshot
// holds fewer than k live vectors.
func (s *FlatSnapshot) Search(q vector.Vec, k int) []IncResult {
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

// compareIncResults orders results by (score, id) ascending.
func compareIncResults(a, b IncResult) int {
	if c := cmp.Compare(a.Score, b.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// incTopK keeps the k lexicographically smallest (score, id) results in a
// max-heap, making the selection independent of scan order.
type incTopK struct {
	k     int
	items []IncResult
}

func (h *incTopK) Len() int { return len(h.items) }
func (h *incTopK) Less(i, j int) bool {
	if h.items[i].Score != h.items[j].Score {
		return h.items[i].Score > h.items[j].Score
	}
	return h.items[i].ID > h.items[j].ID
}
func (h *incTopK) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *incTopK) Push(x interface{}) { h.items = append(h.items, x.(IncResult)) }
func (h *incTopK) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

func (h *incTopK) offer(id int64, score float64) {
	if len(h.items) < h.k {
		heap.Push(h, IncResult{ID: id, Score: score})
		return
	}
	worst := h.items[0]
	if score < worst.Score || (score == worst.Score && id < worst.ID) {
		h.items[0] = IncResult{ID: id, Score: score}
		heap.Fix(h, 0)
	}
}
