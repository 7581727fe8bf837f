package online

import (
	"cmp"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"erfilter/internal/entity"
	"erfilter/internal/faultfs"
	"erfilter/internal/metrics"
	"erfilter/internal/parallel"
)

// ShardedResolver hash-partitions entities across N independent
// Resolvers. Each shard has its own writer mutex and its own published
// epoch snapshot, so inserts to different shards proceed in parallel —
// the single-resolver write bottleneck (one mutex, one freeze per
// publish) splits N ways. Queries scatter to every shard snapshot
// concurrently and gather the per-shard top-k lists into a global
// answer under the same deterministic (score desc, id asc) order the
// single resolver uses, which makes the merged results provably
// identical to an unsharded resolver over the same entities:
//
//   - sparse similarity scores are shard-invariant: the score depends
//     only on token-set overlap and sizes, never on the per-shard vocab
//     id assignment (unseen query tokens encode to an out-of-dictionary
//     sentinel that still counts toward the query-set size);
//   - every method's global cut is recoverable from per-shard cuts
//     (see merge), so no qualifying candidate is lost to partitioning.
//
// Ids are allocated from one atomic counter, so a sequential workload
// assigns exactly the ids the single resolver would.
type ShardedResolver struct {
	cfg    Config
	shards []*Resolver
	nextID atomic.Int64

	queries atomic.Uint64
	tel     *shardedTelemetry
}

// shardedTelemetry times the two costs sharding introduces: the
// per-shard scatter latency (one histogram per shard, exposed under a
// shard label) and the gather merge. All metrics are nil-receiver safe.
type shardedTelemetry struct {
	shardNS []*metrics.Histogram // per-shard scatter wall time, ns
	mergeNS *metrics.Histogram   // gather merge cost, ns
}

func newShardedTelemetry(n int) *shardedTelemetry {
	t := &shardedTelemetry{mergeNS: &metrics.Histogram{}, shardNS: make([]*metrics.Histogram, n)}
	for i := range t.shardNS {
		t.shardNS[i] = &metrics.Histogram{}
	}
	return t
}

// NewSharded creates an empty sharded resolver with n shards (n < 1 is
// treated as 1). Every shard serves the same configuration.
func NewSharded(cfg Config, n int) *ShardedResolver {
	if n < 1 {
		n = 1
	}
	shards := make([]*Resolver, n)
	for i := range shards {
		shards[i] = NewResolver(cfg)
	}
	return newShardedOver(cfg.normalize(), shards)
}

// newShardedOver assembles a sharded resolver from already-built shard
// resolvers (the durable recovery path). The id counter resumes past
// every id any shard has seen.
func newShardedOver(cfg Config, shards []*Resolver) *ShardedResolver {
	sr := &ShardedResolver{cfg: cfg, shards: shards, tel: newShardedTelemetry(len(shards))}
	var next int64
	for _, r := range shards {
		r.mu.Lock()
		if r.nextID > next {
			next = r.nextID
		}
		r.mu.Unlock()
	}
	sr.nextID.Store(next)
	return sr
}

// shardOf routes an id to its shard with a splitmix64-style bit mix, so
// any id pattern (sequential ingest, clustered deletes, replayed
// subsets) spreads evenly. Routing is a pure function of (id, shard
// count): every open of the same store directory computes the same
// placement.
func shardOf(id int64, n int) int {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// Config returns the shared configuration.
func (sr *ShardedResolver) Config() Config { return sr.cfg }

// Shards returns the shard count.
func (sr *ShardedResolver) Shards() int { return len(sr.shards) }

// Insert adds one entity to its shard and publishes that shard's new
// epoch. Ids are globally monotonic and never reused.
func (sr *ShardedResolver) Insert(attrs []entity.Attribute) int64 {
	id := sr.nextID.Add(1) - 1
	sr.shards[shardOf(id, len(sr.shards))].InsertAssigned([]int64{id}, [][]entity.Attribute{attrs})
	return id
}

// InsertBatch reserves a contiguous id block, routes each entity to its
// shard and inserts the per-shard groups in parallel — one epoch
// publish per touched shard.
func (sr *ShardedResolver) InsertBatch(batch [][]entity.Attribute) []int64 {
	n := len(sr.shards)
	ids := make([]int64, len(batch))
	base := sr.nextID.Add(int64(len(batch))) - int64(len(batch))
	groupIDs := make([][]int64, n)
	groups := make([][][]entity.Attribute, n)
	for i := range batch {
		id := base + int64(i)
		ids[i] = id
		s := shardOf(id, n)
		groupIDs[s] = append(groupIDs[s], id)
		groups[s] = append(groups[s], batch[i])
	}
	err := parallel.ForEach(n, n, func(i int) error {
		if len(groups[i]) > 0 {
			sr.shards[i].InsertAssigned(groupIDs[i], groups[i])
		}
		return nil
	})
	if err != nil {
		panic(err) // only a shard panic (wrapped *parallel.PanicError) reaches here
	}
	return ids
}

// InsertDataset bulk-loads every profile of a dataset (the CSV path).
func (sr *ShardedResolver) InsertDataset(d *entity.Dataset) []int64 {
	batch := make([][]entity.Attribute, d.Len())
	for i := range d.Profiles {
		batch[i] = d.Profiles[i].Attrs
	}
	return sr.InsertBatch(batch)
}

// Delete tombstones the entity on its shard; see Resolver.Delete.
func (sr *ShardedResolver) Delete(id int64) bool {
	return sr.shards[shardOf(id, len(sr.shards))].Delete(id)
}

// Get returns a copy of the attributes of a resident entity.
func (sr *ShardedResolver) Get(id int64) ([]entity.Attribute, bool) {
	return sr.shards[shardOf(id, len(sr.shards))].Get(id)
}

// Len returns the number of resident entities across all shards.
func (sr *ShardedResolver) Len() int {
	total := 0
	for _, r := range sr.shards {
		total += r.Len()
	}
	return total
}

// IDs returns the ids of every resident entity across all shards in
// ascending order; see Resolver.IDs.
func (sr *ShardedResolver) IDs() []int64 {
	var ids []int64
	for _, r := range sr.shards {
		ids = append(ids, r.IDs()...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Snapshot captures the current snapshot of every shard. Each shard's
// view is immutable and internally consistent; the combined view may
// straddle concurrent writes to different shards, exactly as two
// back-to-back queries on a single resolver may straddle an insert.
func (sr *ShardedResolver) Snapshot() *ShardedSnapshot {
	snaps := make([]*Snapshot, len(sr.shards))
	for i, r := range sr.shards {
		snaps[i] = r.Snapshot()
	}
	return &ShardedSnapshot{cfg: sr.cfg, shards: snaps, queries: &sr.queries, tel: sr.tel}
}

// Query answers against the current shard snapshots; see
// ShardedSnapshot.Query.
func (sr *ShardedResolver) Query(attrs []entity.Attribute, opt QueryOptions) []Candidate {
	return sr.Snapshot().Query(attrs, opt)
}

// ShardedStats aggregates the shard resolvers plus the partition shape.
// Queries counts scatter-gather queries (each touches every shard);
// the per-shard entries carry each shard's own counters.
type ShardedStats struct {
	Shards      int     `json:"shards"`
	Epoch       uint64  `json:"epoch"`
	Entities    int     `json:"entities"`
	Tombstones  int     `json:"tombstones"`
	Inserts     uint64  `json:"inserts"`
	Deletes     uint64  `json:"deletes"`
	Queries     uint64  `json:"queries"`
	Compactions uint64  `json:"compactions"`
	SizeSkew    float64 `json:"size_skew"`
	Config      string  `json:"config"`
	PerShard    []Stats `json:"per_shard"`
}

// Stats summarizes the sharded resolver.
func (sr *ShardedResolver) Stats() ShardedStats {
	st := ShardedStats{
		Shards:  len(sr.shards),
		Queries: sr.queries.Load(),
		Config:  sr.cfg.Describe(),
	}
	sizes := make([]int, len(sr.shards))
	for i, r := range sr.shards {
		s := r.Stats()
		st.PerShard = append(st.PerShard, s)
		st.Epoch += s.Epoch
		st.Entities += s.Entities
		st.Tombstones += s.Tombstones
		st.Inserts += s.Inserts
		st.Deletes += s.Deletes
		st.Compactions += s.Compactions
		sizes[i] = s.Entities
	}
	st.SizeSkew = sizeSkew(sizes)
	return st
}

// sizeSkew is the largest shard's entity count relative to the even
// share: 1.0 is a perfect balance, 2.0 means the hottest shard holds
// twice its fair share. An empty collection is balanced by definition.
func sizeSkew(sizes []int) float64 {
	total, most := 0, 0
	for _, s := range sizes {
		total += s
		if s > most {
			most = s
		}
	}
	if total == 0 {
		return 1
	}
	return float64(most) * float64(len(sizes)) / float64(total)
}

// Save writes the union of all shards in the standard snapshot format —
// the same bytes an unsharded resolver over the same entities would
// write — so a sharded snapshot restores into any topology (Load,
// LoadSharded at a different shard count, a replica's bulk load).
func (sr *ShardedResolver) Save(w io.Writer) error {
	var ents []snapEntity
	for _, r := range sr.shards {
		r.mu.Lock()
		_, _, se, _ := r.captureLocked()
		r.mu.Unlock()
		ents = append(ents, se...)
	}
	// Read the id counter after the captures: every captured id was
	// assigned before its capture, so the counter already exceeds it.
	// No graph section: per-shard graphs are topology-bound, so a
	// sharded snapshot always restores by replay.
	return writeSnapshot(w, sr.cfg, sr.nextID.Load(), ents, nil)
}

// SaveFile writes the sharded snapshot to path atomically (temp file +
// fsync + rename), like Resolver.SaveFile.
func (sr *ShardedResolver) SaveFile(fsys faultfs.FS, path string) error {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	return writeFileAtomic(fsys, dir, base+".tmp", base, sr.Save)
}

// LoadSharded reconstructs a sharded resolver from any snapshot written
// by Save (sharded or not): entities keep their ids and re-route to
// shards under the new count, so re-sharding is exactly a save/load.
func LoadSharded(rd io.Reader, n int) (*ShardedResolver, error) {
	// A single-resolver snapshot may embed a graph section; re-sharding
	// discards it (decode still validates it) and rebuilds per shard.
	c, nextID, ents, _, err := decodeSnapshot(rd)
	if err != nil {
		return nil, err
	}
	sr := NewSharded(c, n)
	groupIDs := make([][]int64, len(sr.shards))
	groups := make([][][]entity.Attribute, len(sr.shards))
	for _, e := range ents {
		s := shardOf(e.id, len(sr.shards))
		groupIDs[s] = append(groupIDs[s], e.id)
		groups[s] = append(groups[s], e.attrs)
	}
	for i := range sr.shards {
		if len(groups[i]) > 0 {
			sr.shards[i].InsertAssigned(groupIDs[i], groups[i])
		}
	}
	sr.nextID.Store(nextID)
	return sr, nil
}

// RegisterMetrics exposes the sharded resolver under the registry:
// aggregate series matching the single-resolver names, per-shard entity
// counts and scatter latency under a shard label, the size-skew gauge
// and the gather merge cost.
func (sr *ShardedResolver) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("online_shards",
		"Shard count of the sharded resolver.", nil,
		func() float64 { return float64(len(sr.shards)) })
	reg.GaugeFunc("online_shard_size_skew",
		"Largest shard's entity count relative to the even share (1.0 = balanced).", nil,
		func() float64 { return sizeSkew(sr.shardSizes()) })
	reg.CounterFunc("online_epoch_publishes_total",
		"Snapshot epochs published (summed across shards).", nil,
		func() float64 { return float64(sr.Stats().Epoch) })
	reg.CounterFunc("online_compactions_total",
		"Tombstone-triggered index compactions (all shards).", nil,
		func() float64 { return float64(sr.Stats().Compactions) })
	reg.CounterFunc("online_inserts_total",
		"Entities inserted since start.", nil,
		func() float64 { return float64(sr.Stats().Inserts) })
	reg.CounterFunc("online_deletes_total",
		"Entities deleted since start.", nil,
		func() float64 { return float64(sr.Stats().Deletes) })
	reg.GaugeFunc("online_entities",
		"Resident (non-deleted) entities across all shards.", nil,
		func() float64 { return float64(sr.Len()) })
	reg.GaugeFunc("online_tombstones",
		"Dead index slots awaiting compaction (all shards).", nil,
		func() float64 { return float64(sr.Stats().Tombstones) })
	reg.RegisterHistogram("online_gather_merge_duration_seconds",
		"Cost of merging per-shard top-k lists into the global answer.", nil, 1e-9, sr.tel.mergeNS)
	for i := range sr.shards {
		i := i
		lbl := metrics.Labels{"shard": strconv.Itoa(i)}
		reg.GaugeFunc("online_shard_entities",
			"Resident entities per shard.", lbl,
			func() float64 { return float64(sr.shards[i].Len()) })
		reg.RegisterHistogram("online_shard_query_duration_seconds",
			"Per-shard wall time of scatter-gather queries.", lbl, 1e-9, sr.tel.shardNS[i])
	}
}

func (sr *ShardedResolver) shardSizes() []int {
	sizes := make([]int, len(sr.shards))
	for i, r := range sr.shards {
		sizes[i] = r.Len()
	}
	return sizes
}

// ShardedSnapshot is an immutable scatter-gather view over one snapshot
// per shard. Any number of goroutines may query it concurrently.
type ShardedSnapshot struct {
	cfg     Config
	shards  []*Snapshot
	queries *atomic.Uint64
	tel     *shardedTelemetry
}

// Epoch returns the sum of the shard epochs — monotonic under writes to
// any shard, like the single resolver's epoch under every write.
func (ss *ShardedSnapshot) Epoch() uint64 {
	var sum uint64
	for _, s := range ss.shards {
		sum += s.Epoch()
	}
	return sum
}

// Len returns the number of entities visible across all shards.
func (ss *ShardedSnapshot) Len() int {
	total := 0
	for _, s := range ss.shards {
		total += s.Len()
	}
	return total
}

// Attrs resolves a candidate id to its stored attributes via the owning
// shard — placement is a pure function of (id, shard count), so the
// lookup touches exactly one shard.
func (ss *ShardedSnapshot) Attrs(id int64) ([]entity.Attribute, bool) {
	return ss.shards[shardOf(id, len(ss.shards))].Attrs(id)
}

// Query resolves an incoming entity against every shard in parallel and
// merges the per-shard answers; results are identical to a single
// resolver holding the union of the shards.
func (ss *ShardedSnapshot) Query(attrs []entity.Attribute, opt QueryOptions) []Candidate {
	out, _ := ss.QueryTraced(attrs, opt)
	return out
}

// QueryTraced answers exactly like Query and returns the aggregate
// phase breakdown: Encode and Search are the slowest shard's phases
// (the scatter's critical path, with the merge folded into Search),
// Entities counts all shards.
func (ss *ShardedSnapshot) QueryTraced(attrs []entity.Attribute, opt QueryOptions) ([]Candidate, Trace) {
	ss.queries.Add(1)
	n := len(ss.shards)
	per := make([][]Candidate, n)
	traces := make([]Trace, n)
	ss.scatter(func(i int) {
		per[i], traces[i] = ss.shards[i].QueryTraced(attrs, opt)
	})
	tr := ss.foldTraces(traces)
	begin := time.Now()
	out := ss.merge(per, ss.k(opt))
	merge := time.Since(begin)
	ss.tel.mergeNS.ObserveDuration(merge)
	tr.Search += merge
	tr.Candidates = len(out)
	return out, tr
}

// QueryBatch scatters the whole batch to every shard — each shard pays
// one pool checkout for the batch — then merges shard answers query by
// query. Results are identical to len(batch) Query calls.
func (ss *ShardedSnapshot) QueryBatch(batch [][]entity.Attribute, opt QueryOptions) ([][]Candidate, Trace) {
	agg := Trace{Epoch: ss.Epoch(), Entities: ss.Len()}
	if len(batch) == 0 {
		return nil, agg
	}
	ss.queries.Add(uint64(len(batch)))
	n := len(ss.shards)
	perShard := make([][][]Candidate, n)
	traces := make([]Trace, n)
	ss.scatter(func(i int) {
		perShard[i], traces[i] = ss.shards[i].QueryBatch(batch, opt)
	})
	for _, t := range traces {
		if t.Encode > agg.Encode {
			agg.Encode = t.Encode
		}
		if t.Search > agg.Search {
			agg.Search = t.Search
		}
	}
	begin := time.Now()
	k := ss.k(opt)
	out := make([][]Candidate, len(batch))
	per := make([][]Candidate, n)
	for q := range batch {
		for i := range per {
			per[i] = perShard[i][q]
		}
		out[q] = ss.merge(per, k)
		agg.Candidates += len(out[q])
	}
	merge := time.Since(begin)
	ss.tel.mergeNS.ObserveDuration(merge)
	agg.Search += merge
	return out, agg
}

// scatter runs fn(i) for every shard concurrently (one goroutine per
// shard via the shared worker-pool helper), recording each shard's wall
// time into its scatter-latency histogram.
func (ss *ShardedSnapshot) scatter(fn func(i int)) {
	n := len(ss.shards)
	err := parallel.ForEach(n, n, func(i int) error {
		begin := time.Now()
		fn(i)
		ss.tel.shardNS[i].ObserveDuration(time.Since(begin))
		return nil
	})
	if err != nil {
		panic(err) // only a shard panic (wrapped *parallel.PanicError) reaches here
	}
}

// k resolves the effective cardinality threshold, like the single
// resolver's query path.
func (ss *ShardedSnapshot) k(opt QueryOptions) int {
	if opt.K > 0 {
		return opt.K
	}
	return ss.cfg.K
}

// foldTraces combines per-shard traces of one scatter: epochs and
// entity counts sum (matching Epoch/Len), phase times take the slowest
// shard — the critical path of the parallel fan-out.
func (ss *ShardedSnapshot) foldTraces(traces []Trace) Trace {
	var tr Trace
	for _, t := range traces {
		tr.Epoch += t.Epoch
		tr.Entities += t.Entities
		if t.Encode > tr.Encode {
			tr.Encode = t.Encode
		}
		if t.Search > tr.Search {
			tr.Search = t.Search
		}
	}
	return tr
}

// merge folds per-shard answer lists into the global answer under the
// method's own cut. Every per-shard list is sorted by (score desc, id
// asc) and the global order is the same comparison, so the merged
// answer equals the unsharded resolver's:
//
//   - EpsJoin keeps every candidate at or above the threshold — the
//     global answer is exactly the union;
//   - FlatKNN keeps the k lexicographically best (score, id) pairs — a
//     global winner beats everything in its own shard too, so it is in
//     that shard's top k;
//   - KNNJoin keeps candidates within the k highest distinct similarity
//     values — a set at global distinct rank r ≤ k is at distinct rank
//     ≤ r within its shard, so it survives the per-shard cut.
func (ss *ShardedSnapshot) merge(per [][]Candidate, k int) []Candidate {
	return mergeCandidates(ss.cfg.Method, per, k)
}

// mergeCandidates is the canonical scatter-gather fold shared by the
// sharded resolver (one part per shard) and the disk tier (one part
// for the memtable, one for the segment gather): concatenate, sort by
// (score desc, id asc), re-apply the method's cut. When the per-shard
// lists were produced by a filtered (predicate-pushdown) query the same
// argument applies verbatim to the filtered universe: every list holds
// its shard's cut over matching candidates, so the re-cut union is the
// global answer over matching candidates.
func mergeCandidates(method Method, per [][]Candidate, k int) []Candidate {
	total := 0
	for _, p := range per {
		total += len(p)
	}
	all := make([]Candidate, 0, total)
	for _, p := range per {
		all = append(all, p...)
	}
	slices.SortFunc(all, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return cutCandidates(method, all, k)
}

// cutCandidates applies the method's cardinality cut to a candidate
// list already sorted by (score desc, id asc), in place.
func cutCandidates(method Method, all []Candidate, k int) []Candidate {
	switch method {
	case EpsJoin:
		// union only — no cut
	case FlatKNN:
		if len(all) > k {
			all = all[:k]
		}
	default: // KNNJoin: keep the k highest distinct similarity values
		distinct := 0
		last := math.Inf(1)
		for i, c := range all {
			if c.Score != last {
				if distinct == k {
					all = all[:i]
					break
				}
				distinct++
				last = c.Score
			}
		}
	}
	return all
}
