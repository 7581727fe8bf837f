package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// IncNeighbor is one query result of an incremental index: the external
// entity id of an indexed set and its similarity to the query.
type IncNeighbor struct {
	ID  int64
	Sim float64
}

// Scratch holds the per-query stamped-counter buffers of an incremental
// snapshot query. Snapshots are immutable and may be queried from many
// goroutines at once, so each goroutine brings its own Scratch (typically
// from a sync.Pool); the zero value is ready to use and grows on demand.
type Scratch struct {
	counts []int32
	// round/stamp are int64: a pooled Scratch lives for the process
	// lifetime, and a narrower counter could wrap and false-match a slot
	// stamped exactly one wrap earlier, inflating its overlap count.
	stamp []int64
	round int64
	found []int32
	// sims and top are the kNN-Join cut's buffers (see SelectKNN).
	sims []float64
	top  TopDistinct
}

// grow ensures the buffers cover n slots. New entries are zeroed, which is
// safe because rounds start at 1: a zero stamp never equals a live round.
func (sc *Scratch) grow(n int) {
	if len(sc.counts) >= n {
		return
	}
	counts := make([]int32, n)
	stamp := make([]int64, n)
	copy(counts, sc.counts)
	copy(stamp, sc.stamp)
	sc.counts, sc.stamp = counts, stamp
}

// IncIndex is the incremental variant of the ScanCount inverted index: it
// supports Add and Remove of token sets identified by stable external
// int64 ids, deletion by tombstone, periodic compaction, and Freeze, which
// publishes an immutable point-in-time Snapshot for lock-free concurrent
// queries.
//
// Slots are assigned append-only, so as long as ids are added in
// increasing order (the online resolver allocates them monotonically and
// never reuses one), slot order equals id order and every snapshot query
// is equal to the same query against a batch Index built with NewIndex
// over the surviving sets in ascending-id order — the property the
// equivalence tests check. Compaction preserves slot order, so the
// invariant survives any Add/Remove/Compact interleaving.
//
// An IncIndex itself is a single-writer structure: Add, Remove, Compact
// and Freeze must be externally serialized. Snapshots taken by Freeze stay
// valid and immutable forever after.
type IncIndex struct {
	postings [][]int32 // token id → slots holding that token
	sizes    []int32   // slot → token-set size
	ids      []int64   // slot → external id
	live     []bool    // slot → not tombstoned
	dead     int       // tombstone count
	slotOf   map[int64]int32
}

// NewIncIndex returns an empty incremental index.
func NewIncIndex() *IncIndex {
	return &IncIndex{slotOf: make(map[int64]int32)}
}

// Len returns the number of live (non-tombstoned) sets.
func (x *IncIndex) Len() int { return len(x.ids) - x.dead }

// Dead returns the number of tombstoned slots awaiting compaction.
func (x *IncIndex) Dead() int { return x.dead }

// Add indexes the token set under the external id. Token ids may exceed
// anything seen before; the posting table grows as needed. It is an error
// to add an id that is currently indexed (Remove it first).
func (x *IncIndex) Add(id int64, set []int32) error {
	if _, ok := x.slotOf[id]; ok {
		return fmt.Errorf("sparse: id %d already indexed", id)
	}
	slot := int32(len(x.ids))
	x.ids = append(x.ids, id)
	x.sizes = append(x.sizes, int32(len(set)))
	x.live = append(x.live, true)
	x.slotOf[id] = slot
	for _, tok := range set {
		if int(tok) >= len(x.postings) {
			grown := make([][]int32, int(tok)+1)
			copy(grown, x.postings)
			x.postings = grown
		}
		x.postings[tok] = append(x.postings[tok], slot)
	}
	return nil
}

// Remove tombstones the set indexed under id, reporting whether it was
// present. The slot is reclaimed by the next Compact.
func (x *IncIndex) Remove(id int64) bool {
	slot, ok := x.slotOf[id]
	if !ok {
		return false
	}
	delete(x.slotOf, id)
	x.live[slot] = false
	x.dead++
	return true
}

// Compact rewrites the index without the tombstoned slots, preserving the
// relative order of the survivors. All arrays are freshly allocated, so
// previously frozen snapshots remain valid and unchanged.
func (x *IncIndex) Compact() {
	if x.dead == 0 {
		return
	}
	n := len(x.ids) - x.dead
	remap := make([]int32, len(x.ids)) // old slot → new slot, -1 when dead
	ids := make([]int64, 0, n)
	sizes := make([]int32, 0, n)
	live := make([]bool, n)
	for slot := range x.ids {
		if !x.live[slot] {
			remap[slot] = -1
			continue
		}
		remap[slot] = int32(len(ids))
		ids = append(ids, x.ids[slot])
		sizes = append(sizes, x.sizes[slot])
	}
	for i := range live {
		live[i] = true
	}
	postings := make([][]int32, len(x.postings))
	for tok, list := range x.postings {
		var out []int32
		for _, slot := range list {
			if ns := remap[slot]; ns >= 0 {
				out = append(out, ns)
			}
		}
		postings[tok] = out
	}
	x.postings, x.ids, x.sizes, x.live, x.dead = postings, ids, sizes, live, 0
	slotOf := make(map[int64]int32, len(ids))
	for slot, id := range ids {
		slotOf[id] = int32(slot)
	}
	x.slotOf = slotOf
}

// Freeze publishes an immutable point-in-time snapshot. The snapshot
// shares the append-only posting lists with the index (a later Add may
// extend a shared backing array strictly beyond the snapshot's recorded
// lengths, which the snapshot never reads) and takes its own copy of the
// tombstone bits, the only state mutated in place. Cost is O(tokens +
// slots) header and byte copies; no set data is duplicated.
func (x *IncIndex) Freeze() *IncSnapshot {
	return &IncSnapshot{
		postings: append([][]int32(nil), x.postings...),
		sizes:    x.sizes[:len(x.sizes):len(x.sizes)],
		ids:      x.ids[:len(x.ids):len(x.ids)],
		live:     append([]bool(nil), x.live...),
		count:    x.Len(),
	}
}

// IncSnapshot is an immutable view of an IncIndex at one instant. Any
// number of goroutines may query it concurrently, each with its own
// Scratch; it never blocks and never observes later writes.
type IncSnapshot struct {
	postings [][]int32
	sizes    []int32
	ids      []int64
	live     []bool
	count    int
}

// Len returns the number of live sets visible to the snapshot.
func (s *IncSnapshot) Len() int { return s.count }

// scan merge-counts the query's posting lists into sc: sc.found lists
// every slot sharing at least one token with the query, tombstoned ones
// included, and sc.counts holds each one's overlap.
func (s *IncSnapshot) scan(query []int32, sc *Scratch) {
	sc.grow(len(s.ids))
	sc.round++
	sc.found = sc.found[:0]
	for _, tok := range query {
		if int(tok) >= len(s.postings) {
			continue
		}
		for _, slot := range s.postings[tok] {
			if sc.stamp[slot] != sc.round {
				sc.stamp[slot] = sc.round
				sc.counts[slot] = 0
				sc.found = append(sc.found, slot)
			}
			sc.counts[slot]++
		}
	}
}

// RangeQuery returns the live sets whose similarity to the query is at
// least eps, best first (ties broken by ascending id). It matches
// Index.RangeQuery over the surviving sets up to result order.
func (s *IncSnapshot) RangeQuery(query []int32, m Measure, eps float64, sc *Scratch) []IncNeighbor {
	var out []IncNeighbor
	qs := len(query)
	s.scan(query, sc)
	for _, slot := range sc.found {
		if !s.live[slot] {
			continue
		}
		if sim := m.Sim(int(sc.counts[slot]), qs, int(s.sizes[slot])); sim >= eps {
			out = append(out, IncNeighbor{ID: s.ids[slot], Sim: sim})
		}
	}
	slices.SortFunc(out, compareNeighbors)
	return out
}

// KNNQuery returns the live sets having the k highest distinct similarity
// values to the query, best first, with the same distinct-value tie
// semantics as Index.KNNQuery. Zero-similarity sets are never returned.
// With a warm Scratch the only allocation is the result (see SelectKNN).
func (s *IncSnapshot) KNNQuery(query []int32, m Measure, k int, sc *Scratch) []IncNeighbor {
	if k <= 0 {
		return nil
	}
	qs := len(query)
	s.scan(query, sc)
	sc.sims = sc.sims[:0]
	for _, slot := range sc.found {
		sim := 0.0
		if s.live[slot] {
			sim = m.Sim(int(sc.counts[slot]), qs, int(s.sizes[slot]))
		}
		sc.sims = append(sc.sims, sim)
	}
	return SelectKNN(sc.sims, k, &sc.top, func(i int, sim float64) IncNeighbor {
		return IncNeighbor{ID: s.ids[sc.found[i]], Sim: sim}
	}, compareNeighbors)
}

// compareNeighbors is the result order: similarity descending, then id
// ascending.
func compareNeighbors(a, b IncNeighbor) int {
	if c := cmp.Compare(b.Sim, a.Sim); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
