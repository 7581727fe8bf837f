package sparse

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// mix scrambles a uint64 into a pseudo-random stream for deriving
// deterministic sets from property-test inputs.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// setFrom derives a small token set over a 24-token universe.
func setFrom(v uint64) []int32 {
	v = mix(v)
	n := 1 + int(v%5)
	seen := map[int32]bool{}
	var out []int32
	for i := 0; i < n; i++ {
		v = mix(v + uint64(i) + 1)
		tok := int32(v % 24)
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	return out
}

// mirror is the reference model: surviving id → token set.
type mirror map[int64][]int32

// batchIndex builds a plain batch Index over the survivors in ascending
// id order and returns it with the position→id mapping.
func (m mirror) batchIndex() (*Index, []int64) {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sets := make([][]int32, len(ids))
	for i, id := range ids {
		sets[i] = m[id]
	}
	return NewIndex(sets, 24), ids
}

// applyOps replays a random op sequence against both an IncIndex and the
// mirror. Ops: v%5==0 → remove a surviving id, v%11==0 → compact,
// otherwise add a derived set.
func applyOps(ops []uint64) (*IncIndex, mirror) {
	idx := NewIncIndex()
	m := mirror{}
	var nextID int64
	var liveIDs []int64
	for _, v := range ops {
		switch {
		case v%5 == 0 && len(liveIDs) > 0:
			i := int(mix(v) % uint64(len(liveIDs)))
			id := liveIDs[i]
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
			if !idx.Remove(id) {
				panic("remove of live id failed")
			}
			delete(m, id)
		case v%11 == 0:
			idx.Compact()
		default:
			set := setFrom(v)
			id := nextID
			nextID++
			if err := idx.Add(id, set); err != nil {
				panic(err)
			}
			m[id] = set
			liveIDs = append(liveIDs, id)
		}
	}
	return idx, m
}

// sameNeighbors compares incremental results with batch results mapped
// through the position→id table.
func sameNeighbors(inc []IncNeighbor, batch []Neighbor, ids []int64) bool {
	if len(inc) != len(batch) {
		return false
	}
	for i := range inc {
		if inc[i].ID != ids[batch[i].Entity] || inc[i].Sim != batch[i].Sim {
			return false
		}
	}
	return true
}

// TestIncIndexEquivalenceQuick is the interleaving property test: any
// sequence of Add/Remove/Compact yields snapshot query results identical
// to a batch index built from the surviving sets.
func TestIncIndexEquivalenceQuick(t *testing.T) {
	prop := func(ops []uint64, qseed uint64) bool {
		idx, m := applyOps(ops)
		snap := idx.Freeze()
		batch, ids := m.batchIndex()
		if snap.Len() != len(ids) {
			return false
		}
		for qi := 0; qi < 4; qi++ {
			query := setFrom(qseed + uint64(qi))
			for _, measure := range Measures() {
				for _, k := range []int{1, 3} {
					inc := snap.KNNQuery(query, measure, k, &Scratch{})
					ref := batch.KNNQuery(query, measure, k)
					if !sameNeighbors(inc, ref, ids) {
						t.Logf("kNN mismatch: measure=%v k=%d inc=%v ref=%v", measure, k, inc, ref)
						return false
					}
				}
				for _, eps := range []float64{0.2, 0.5} {
					inc := snap.RangeQuery(query, measure, eps, &Scratch{})
					ref := batch.RangeQuery(query, measure, eps)
					refInc := make([]IncNeighbor, len(ref))
					for i, n := range ref {
						refInc[i] = IncNeighbor{ID: ids[n.Entity], Sim: n.Sim}
					}
					slices.SortFunc(refInc, compareNeighbors)
					if len(inc) != len(refInc) {
						return false
					}
					for i := range inc {
						if inc[i] != refInc[i] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIncIndexSnapshotImmutable pins the RCU contract: a frozen snapshot
// keeps answering from its epoch while the index mutates and compacts
// underneath it.
func TestIncIndexSnapshotImmutable(t *testing.T) {
	idx := NewIncIndex()
	for i := int64(0); i < 10; i++ {
		if err := idx.Add(i, setFrom(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := idx.Freeze()
	query := setFrom(99)
	before := snap.KNNQuery(query, Jaccard, 5, &Scratch{})

	for i := int64(0); i < 10; i += 2 {
		idx.Remove(i)
	}
	for i := int64(10); i < 200; i++ {
		if err := idx.Add(i, setFrom(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	idx.Compact()
	after := snap.KNNQuery(query, Jaccard, 5, &Scratch{})
	if len(before) != len(after) {
		t.Fatalf("snapshot changed under mutation: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot changed under mutation: %v vs %v", before, after)
		}
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot Len = %d, want 10", snap.Len())
	}
}

// TestScratchRoundBeyondInt32 pins that a long-lived pooled Scratch keeps
// counting correctly past the int32 range: the round counter is int64, so
// it cannot wrap and false-match a slot stamped one wrap earlier.
func TestScratchRoundBeyondInt32(t *testing.T) {
	idx := NewIncIndex()
	if err := idx.Add(1, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	snap := idx.Freeze()
	sc := &Scratch{round: math.MaxInt32}
	for i := 0; i < 3; i++ {
		got := snap.RangeQuery([]int32{1, 2, 3}, Jaccard, 0.5, sc)
		if len(got) != 1 || got[0].Sim != 1 {
			t.Fatalf("round %d past int32: got %v", i, got)
		}
	}
	if sc.round != math.MaxInt32+3 {
		t.Fatalf("round = %d, want %d", sc.round, int64(math.MaxInt32+3))
	}
}

func TestIncIndexAddRemoveCompact(t *testing.T) {
	idx := NewIncIndex()
	if err := idx.Add(7, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(7, []int32{4}); err == nil {
		t.Fatal("duplicate add must error")
	}
	if idx.Remove(99) {
		t.Fatal("removing absent id must report false")
	}
	if !idx.Remove(7) {
		t.Fatal("removing live id must report true")
	}
	if idx.Len() != 0 || idx.Dead() != 1 {
		t.Fatalf("len=%d dead=%d", idx.Len(), idx.Dead())
	}
	idx.Compact()
	if idx.Dead() != 0 {
		t.Fatalf("dead after compact = %d", idx.Dead())
	}
	// The id can be reused after removal.
	if err := idx.Add(7, []int32{1}); err != nil {
		t.Fatal(err)
	}
	snap := idx.Freeze()
	got := snap.RangeQuery([]int32{1}, Jaccard, 0.5, &Scratch{})
	if len(got) != 1 || got[0].ID != 7 || got[0].Sim != 1 {
		t.Fatalf("got %v", got)
	}
}
