package segment

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"erfilter/internal/entity"
	"erfilter/internal/knn"
	"erfilter/internal/sparse"
	"erfilter/internal/vector"
)

// segMagic identifies a segment file and its format version.
const segMagic = "ERSEG\x01\n\x00"

// Kind selects what a segment indexes: token sets for the sparse
// (EpsJoin/KNNJoin) methods or dense vectors for FlatKNN.
type Kind uint8

const (
	// KindSparse segments store per-entity token sets as postings.
	KindSparse Kind = iota
	// KindDense segments store one dim-width vector per entity.
	KindDense
)

// Entry is one entity bound for a segment: its id, raw attributes
// (retained for Get and snapshot capture), and the derived index
// payload — unique token strings for sparse kinds, an embedding for
// dense kinds. Entries are self-contained: segments persist token
// strings, not vocabulary codes, so no global dictionary outlives the
// memtable.
type Entry struct {
	ID     int64
	Attrs  []entity.Attribute
	Tokens []string
	Vec    vector.Vec
}

// Hit is one scatter-gather candidate from the tier. For sparse
// queries Score is the similarity (bigger is better); for dense
// queries it is the metric's raw smaller-is-better score, exactly as
// knn indexes report internally.
type Hit struct {
	ID    int64
	Score float64
}

// writeSegment encodes the entries, which must be sorted by strictly
// ascending id, in the ERSEG format:
//
//	magic | kind u8 | count u32 | dim u32 | ntoks u32 | nposts u64
//	ids:      count x u64        (strictly ascending)
//	sizes:    count x u32        (sparse: token-set sizes)
//	tokens:   ntoks x {str, u32} (sorted unique token, posting count)
//	postings: nposts x u32       (slots, grouped by token, ascending)
//	vectors:  count x dim x f32  (dense)
//	attroffs: count x u64        (byte offset of entity i's attr block)
//	attrs:    count x {u32, n x {str,str}}
//	footer:   8 x u64 section offsets + attrs end
//	trailer:  u32 CRC-32C of everything above
//
// Postings for each token are emitted in ascending slot order with no
// duplicates, which Load re-verifies; the per-token posting starts are
// implicit (cumulative), so the postings section is contiguous by
// construction.
func writeSegment(w io.Writer, kind Kind, dim int, ents []Entry) error {
	if len(ents) == 0 {
		return fmt.Errorf("segment: refusing to write empty segment")
	}
	if len(ents) >= maxSegCount {
		return fmt.Errorf("segment: %d entries exceed the per-segment limit", len(ents))
	}
	for i, e := range ents {
		if i > 0 && e.ID <= ents[i-1].ID {
			return fmt.Errorf("segment: entries not strictly ascending at index %d (id %d)", i, e.ID)
		}
		switch kind {
		case KindSparse:
			if e.Vec != nil {
				return fmt.Errorf("segment: sparse entry %d carries a vector", e.ID)
			}
		case KindDense:
			if len(e.Vec) != dim {
				return fmt.Errorf("segment: entry %d vector dim %d, segment dim %d", e.ID, len(e.Vec), dim)
			}
		}
	}

	var toks []string
	posts := map[string][]uint32{}
	var nposts uint64
	if kind == KindSparse {
		for slot, e := range ents {
			for _, tok := range e.Tokens {
				l := posts[tok]
				if len(l) > 0 && l[len(l)-1] == uint32(slot) {
					return fmt.Errorf("segment: entry %d repeats token %q", e.ID, tok)
				}
				posts[tok] = append(l, uint32(slot))
				nposts++
			}
		}
		toks = make([]string, 0, len(posts))
		for tok := range posts {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
	}

	b := newBinWriter(w)
	b.bytes([]byte(segMagic))
	b.u8(uint8(kind))
	b.u32(uint32(len(ents)))
	if kind == KindDense {
		b.u32(uint32(dim))
	} else {
		b.u32(0)
	}
	b.u32(uint32(len(toks)))
	b.u64(nposts)

	idsOff := b.off
	for _, e := range ents {
		b.u64(uint64(e.ID))
	}
	sizesOff := b.off
	if kind == KindSparse {
		for _, e := range ents {
			b.u32(uint32(len(e.Tokens)))
		}
	}
	toksOff := b.off
	for _, tok := range toks {
		b.str(tok)
		b.u32(uint32(len(posts[tok])))
	}
	postsOff := b.off
	for _, tok := range toks {
		for _, slot := range posts[tok] {
			b.u32(slot)
		}
	}
	vecsOff := b.off
	if kind == KindDense {
		for _, e := range ents {
			for _, x := range e.Vec {
				b.f32(x)
			}
		}
	}
	attrOffsOff := b.off
	off := uint64(0)
	for _, e := range ents {
		b.u64(off)
		off += 4
		for _, a := range e.Attrs {
			off += 8 + uint64(len(a.Name)) + uint64(len(a.Value))
		}
	}
	attrsOff := b.off
	for _, e := range ents {
		b.u32(uint32(len(e.Attrs)))
		for _, a := range e.Attrs {
			b.str(a.Name)
			b.str(a.Value)
		}
	}
	// Footer: absolute section offsets so a reader can locate sections
	// without replaying the header arithmetic; Load cross-checks each
	// against the offsets it observed while walking.
	for _, o := range []int64{idsOff, sizesOff, toksOff, postsOff, vecsOff, attrOffsOff, attrsOff, b.off} {
		b.u64(uint64(o))
	}
	return b.trailer()
}

// Reader is one loaded, immutable segment. The raw stream stays mapped
// (or resident, for in-memory filesystems) for the reader's lifetime;
// only the token table lives on the Go heap, so a reader's footprint is
// O(distinct tokens), not O(entities). All methods are safe for
// concurrent use.
type Reader struct {
	name  string
	kind  Kind
	count int
	dim   int
	data  []byte
	unmap func() error

	minID, maxID int64

	idsOff, sizesOff, postsOff, vecsOff, attrOffsOff, attrsOff int

	toks    []string
	postOff []int64 // absolute byte offset of each token's postings
	postLen []int32

	scratch sync.Pool
}

// Load parses and fully validates a segment stream before any use, in
// the ERSNAP style: CRC first, then magic, then every structural
// invariant — ascending ids, sorted unique tokens, contiguous postings
// whose per-slot totals equal the recorded set sizes, bounded strings,
// attribute blocks at exactly their recorded offsets, and a footer that
// matches the walked section layout. A segment that loads cannot lie.
func Load(data []byte, name string, unmap func() error) (*Reader, error) {
	body, err := verifyStream(data, "segment")
	if err != nil {
		return nil, err
	}
	c := &cursor{data: body}
	if string(c.take(len(segMagic))) != segMagic {
		return nil, fmt.Errorf("segment: bad magic in %s", name)
	}
	kind := Kind(c.u8())
	count := int(c.u32())
	dim := int(c.u32())
	ntoks := int(c.u32())
	nposts := c.u64()
	if c.err != nil {
		return nil, c.err
	}
	if kind != KindSparse && kind != KindDense {
		return nil, fmt.Errorf("segment: unknown kind %d", kind)
	}
	if count < 1 || count >= maxSegCount {
		return nil, fmt.Errorf("segment: invalid entity count %d", count)
	}
	switch kind {
	case KindSparse:
		if dim != 0 {
			return nil, fmt.Errorf("segment: sparse segment declares dim %d", dim)
		}
	case KindDense:
		if dim < 1 || dim > 1<<16 {
			return nil, fmt.Errorf("segment: invalid dim %d", dim)
		}
		if ntoks != 0 || nposts != 0 {
			return nil, fmt.Errorf("segment: dense segment declares tokens")
		}
	}
	if uint64(ntoks) > nposts || nposts > uint64(count)*uint64(maxSegAttr) {
		return nil, fmt.Errorf("segment: inconsistent token counts (%d tokens, %d postings)", ntoks, nposts)
	}

	g := &Reader{name: name, kind: kind, count: count, dim: dim, data: data, unmap: unmap}
	g.scratch.New = func() interface{} { return &scratch{} }

	g.idsOff = c.off
	prev := int64(math.MinInt64)
	for i := 0; i < count; i++ {
		id := int64(c.u64())
		if c.err != nil {
			return nil, c.err
		}
		if id <= prev {
			return nil, fmt.Errorf("segment: ids not strictly ascending at slot %d", i)
		}
		prev = id
	}
	g.minID = int64(binary.LittleEndian.Uint64(body[g.idsOff:]))
	g.maxID = prev

	g.sizesOff = c.off
	var sizeSum uint64
	if kind == KindSparse {
		for i := 0; i < count; i++ {
			n := c.u32()
			if uint32(maxSegAttr) < n {
				return nil, fmt.Errorf("segment: token-set size %d exceeds limit", n)
			}
			sizeSum += uint64(n)
		}
		if c.err == nil && sizeSum != nposts {
			return nil, fmt.Errorf("segment: set sizes sum to %d, postings claim %d", sizeSum, nposts)
		}
	}

	toksOff := c.off
	if kind == KindSparse {
		g.toks = make([]string, ntoks)
		g.postLen = make([]int32, ntoks)
		var total uint64
		for i := 0; i < ntoks; i++ {
			g.toks[i] = c.str()
			n := c.u32()
			if c.err != nil {
				return nil, c.err
			}
			if i > 0 && g.toks[i] <= g.toks[i-1] {
				return nil, fmt.Errorf("segment: tokens not sorted unique at %d", i)
			}
			if n < 1 || uint64(n) > nposts {
				return nil, fmt.Errorf("segment: token %q has invalid posting count %d", g.toks[i], n)
			}
			g.postLen[i] = int32(n)
			total += uint64(n)
		}
		if total != nposts {
			return nil, fmt.Errorf("segment: posting counts sum to %d, header claims %d", total, nposts)
		}
	}

	g.postsOff = c.off
	if kind == KindSparse {
		// Per-token postings must be strictly ascending slots, and the
		// number of postings naming each slot must equal its recorded
		// set size — the two sides of the inverted index must agree.
		perSlot := make([]uint32, count)
		g.postOff = make([]int64, ntoks)
		for i := 0; i < ntoks; i++ {
			g.postOff[i] = int64(c.off)
			last := int64(-1)
			for j := int32(0); j < g.postLen[i]; j++ {
				slot := c.u32()
				if c.err != nil {
					return nil, c.err
				}
				if int64(slot) <= last || int(slot) >= count {
					return nil, fmt.Errorf("segment: bad posting slot %d for token %q", slot, g.toks[i])
				}
				last = int64(slot)
				perSlot[slot]++
			}
		}
		for slot := 0; slot < count; slot++ {
			if uint64(perSlot[slot]) != uint64(binary.LittleEndian.Uint32(body[g.sizesOff+4*slot:])) {
				return nil, fmt.Errorf("segment: slot %d posting total disagrees with its set size", slot)
			}
		}
	}

	g.vecsOff = c.off
	if kind == KindDense {
		if c.take(count*dim*4) == nil {
			return nil, c.err
		}
	}

	g.attrOffsOff = c.off
	if c.take(count*8) == nil {
		return nil, c.err
	}
	g.attrsOff = c.off
	for i := 0; i < count; i++ {
		want := binary.LittleEndian.Uint64(body[g.attrOffsOff+8*i:])
		if uint64(c.off-g.attrsOff) != want {
			return nil, fmt.Errorf("segment: attr block %d at offset %d, recorded %d", i, c.off-g.attrsOff, want)
		}
		nattrs := c.u32()
		if nattrs > maxSegAttr {
			return nil, fmt.Errorf("segment: entity %d declares %d attributes", i, nattrs)
		}
		for j := uint32(0); j < nattrs; j++ {
			c.str()
			c.str()
		}
		if c.err != nil {
			return nil, c.err
		}
	}

	attrsEnd := c.off
	for i, want := range []int{g.idsOff, g.sizesOff, toksOff, g.postsOff, g.vecsOff, g.attrOffsOff, g.attrsOff, attrsEnd} {
		if got := int64(c.u64()); c.err == nil && got != int64(want) {
			return nil, fmt.Errorf("segment: footer offset %d is %d, observed %d", i, got, want)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("segment: %d trailing bytes after footer", len(body)-c.off)
	}
	return g, nil
}

// Close releases the underlying mapping, if any. Queries against a
// closed reader are undefined; the tier only closes readers once no
// snapshot can still reach them.
func (g *Reader) Close() error {
	if g.unmap != nil {
		u := g.unmap
		g.unmap = nil
		return u()
	}
	return nil
}

// Count returns the number of entities stored (live or tombstoned).
func (g *Reader) Count() int { return g.count }

// Bytes returns the on-disk size of the segment stream.
func (g *Reader) Bytes() int64 { return int64(len(g.data)) }

// Name returns the segment's file name within the tier directory.
func (g *Reader) Name() string { return g.name }

func (g *Reader) id(slot int) int64 {
	return int64(binary.LittleEndian.Uint64(g.data[g.idsOff+8*slot:]))
}

func (g *Reader) size(slot int) int {
	return int(binary.LittleEndian.Uint32(g.data[g.sizesOff+4*slot:]))
}

// slotOf binary-searches the ids section, returning -1 when absent.
func (g *Reader) slotOf(id int64) int {
	if id < g.minID || id > g.maxID {
		return -1
	}
	lo, hi := 0, g.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.id(mid) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.count && g.id(lo) == id {
		return lo
	}
	return -1
}

// has reports whether the segment stores the id (ignoring tombstones,
// which the tier tracks).
func (g *Reader) has(id int64) bool { return g.slotOf(id) >= 0 }

// attrs decodes the attribute block of a slot.
func (g *Reader) attrs(slot int) []entity.Attribute {
	off := g.attrsOff + int(binary.LittleEndian.Uint64(g.data[g.attrOffsOff+8*slot:]))
	c := &cursor{data: g.data, off: off}
	n := c.u32()
	out := make([]entity.Attribute, n)
	for i := range out {
		out[i] = entity.Attribute{Name: c.str(), Value: c.str()}
	}
	return out
}

// vec decodes the vector of a slot into dst, which must be dim wide.
func (g *Reader) vec(slot int, dst vector.Vec) {
	base := g.vecsOff + slot*g.dim*4
	for j := 0; j < g.dim; j++ {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(g.data[base+4*j:]))
	}
}

// tokens reconstructs the token list of every slot by inverting the
// postings — used by merge, which must rewrite entries verbatim.
// Within a slot, tokens come out in sorted order; writeSegment does
// not care about per-entry token order, only uniqueness.
func (g *Reader) tokens() [][]string {
	out := make([][]string, g.count)
	for i := 0; i < g.count; i++ {
		if n := g.size(i); n > 0 {
			out[i] = make([]string, 0, n)
		}
	}
	for t, tok := range g.toks {
		base := g.postOff[t]
		for j := int32(0); j < g.postLen[t]; j++ {
			slot := binary.LittleEndian.Uint32(g.data[base+int64(4*j):])
			out[slot] = append(out[slot], tok)
		}
	}
	return out
}

// entries materializes every stored entity (live or not) as flushable
// entries — the merge path's input.
func (g *Reader) entries() []Entry {
	out := make([]Entry, g.count)
	var toks [][]string
	if g.kind == KindSparse {
		toks = g.tokens()
	}
	for i := range out {
		out[i] = Entry{ID: g.id(i), Attrs: g.attrs(i)}
		if g.kind == KindSparse {
			out[i].Tokens = toks[i]
		} else {
			v := make(vector.Vec, g.dim)
			g.vec(i, v)
			out[i].Vec = v
		}
	}
	return out
}

// scratch is the segment-local analog of sparse.Scratch: stamped
// overlap counters reused across queries without clearing.
type scratch struct {
	counts []int32
	stamp  []int64
	round  int64
	found  []int32
	// sims (parallel to found) and top are knnQuery's cut buffers.
	sims []float64
	top  sparse.TopDistinct
}

func (sc *scratch) grow(n int) {
	if len(sc.counts) < n {
		sc.counts = make([]int32, n)
		sc.stamp = make([]int64, n)
	}
	sc.found = sc.found[:0]
	sc.round++
}

// overlaps computes |query ∩ stored| per candidate slot by walking the
// query tokens' postings, mirroring sparse.IncIndex exactly: unknown
// tokens are skipped, counts accumulate under a per-round stamp, and fn
// sees each touched slot once with its integer overlap.
func (g *Reader) overlaps(query []string, sc *scratch, fn func(slot, overlap int)) {
	sc.grow(g.count)
	for _, tok := range query {
		t := sort.SearchStrings(g.toks, tok)
		if t == len(g.toks) || g.toks[t] != tok {
			continue
		}
		base := g.postOff[t]
		for j := int32(0); j < g.postLen[t]; j++ {
			slot := int32(binary.LittleEndian.Uint32(g.data[base+int64(4*j):]))
			if sc.stamp[slot] != sc.round {
				sc.stamp[slot] = sc.round
				sc.counts[slot] = 0
				sc.found = append(sc.found, slot)
			}
			sc.counts[slot]++
		}
	}
	for _, slot := range sc.found {
		fn(int(slot), int(sc.counts[slot]))
	}
}

// rangeQuery returns every live stored set with sim >= eps against the
// query token set, sorted (sim desc, id asc) — the same answer
// sparse.IncSnapshot.RangeQuery gives over the same entities, because
// both compute the identical integer overlap and the identical
// Measure.Sim call.
func (g *Reader) rangeQuery(query []string, m sparse.Measure, eps float64, dead func(int64) bool) []Hit {
	sc := g.scratch.Get().(*scratch)
	defer g.scratch.Put(sc)
	qs := len(query)
	var out []Hit
	g.overlaps(query, sc, func(slot, overlap int) {
		id := g.id(slot)
		if dead(id) {
			return
		}
		if sim := m.Sim(overlap, qs, g.size(slot)); sim >= eps {
			out = append(out, Hit{ID: id, Score: sim})
		}
	})
	sortHitsDesc(out)
	return out
}

// knnQuery returns live candidates with positive similarity, sorted
// (sim desc, id asc) and cut to k distinct similarity values with full
// tie groups — sparse.IncSnapshot.KNNQuery's exact contract, through the
// same sparse.SelectKNN cut.
func (g *Reader) knnQuery(query []string, m sparse.Measure, k int, dead func(int64) bool) []Hit {
	if k <= 0 {
		return nil
	}
	sc := g.scratch.Get().(*scratch)
	defer g.scratch.Put(sc)
	qs := len(query)
	sc.sims = sc.sims[:0]
	g.overlaps(query, sc, func(slot, overlap int) {
		sim := 0.0
		if !dead(g.id(slot)) {
			sim = m.Sim(overlap, qs, g.size(slot))
		}
		sc.sims = append(sc.sims, sim)
	})
	return sparse.SelectKNN(sc.sims, k, &sc.top, func(i int, sim float64) Hit {
		return Hit{ID: g.id(int(sc.found[i])), Score: sim}
	}, compareHitsDesc)
}

// denseSearch scans every live vector with the metric's raw score and
// keeps the k lexicographically smallest (score, id) hits — the same
// bounded max-heap selection knn.FlatSnapshot.Search runs, over bits
// decoded exactly as they were written.
func (g *Reader) denseSearch(q vector.Vec, k int, metric knn.Metric, dead func(int64) bool) []Hit {
	if k <= 0 {
		return nil
	}
	h := hitTopK{k: k}
	vbuf := make(vector.Vec, g.dim)
	for slot := 0; slot < g.count; slot++ {
		id := g.id(slot)
		if dead(id) {
			continue
		}
		g.vec(slot, vbuf)
		h.offer(id, metric.Score(q, vbuf))
	}
	return h.sorted()
}

// compareHitsDesc is the canonical sparse candidate order everywhere in
// the resolver: score descending, then id ascending.
func compareHitsDesc(a, b Hit) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// sortHitsDesc orders hits by compareHitsDesc.
func sortHitsDesc(hits []Hit) { slices.SortFunc(hits, compareHitsDesc) }

// sortHitsAsc orders hits by (score asc, id asc) — the canonical dense
// result order.
func sortHitsAsc(hits []Hit) {
	slices.SortFunc(hits, func(a, b Hit) int {
		if c := cmp.Compare(a.Score, b.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// cutDistinct keeps the prefix spanning at most k distinct score
// values of a (score desc, id asc)-sorted slice, ties included —
// KNNJoin's per-part cut.
func cutDistinct(hits []Hit, k int) []Hit {
	distinct := 0
	last := math.Inf(1)
	for i, h := range hits {
		if h.Score != last {
			if distinct == k {
				return hits[:i]
			}
			distinct++
			last = h.Score
		}
	}
	return hits
}

// hitTopK is knn's incTopK over tier hits: a bounded max-heap keeping
// the k smallest (score, id) pairs, with the identical tie-breaking.
type hitTopK struct {
	k     int
	items []Hit
}

func (h *hitTopK) offer(id int64, score float64) {
	if len(h.items) < h.k {
		h.items = append(h.items, Hit{ID: id, Score: score})
		h.up(len(h.items) - 1)
		return
	}
	worst := h.items[0]
	if score < worst.Score || (score == worst.Score && id < worst.ID) {
		h.items[0] = Hit{ID: id, Score: score}
		h.down(0)
	}
}

func (h *hitTopK) worse(i, j int) bool {
	if h.items[i].Score != h.items[j].Score {
		return h.items[i].Score > h.items[j].Score
	}
	return h.items[i].ID > h.items[j].ID
}

func (h *hitTopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *hitTopK) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h.worse(l, worst) {
			worst = l
		}
		if r < n && h.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

func (h *hitTopK) sorted() []Hit {
	out := append([]Hit(nil), h.items...)
	sortHitsAsc(out)
	return out
}
