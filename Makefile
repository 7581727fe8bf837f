GO ?= go

# Packages whose tests exercise the worker pool, the shared caches or the
# online serving path; these run a second time under the race detector.
RACE_PKGS = ./internal/parallel ./internal/tuning ./internal/bench ./internal/core \
	./internal/sparse ./internal/knn ./internal/online ./internal/faultfs \
	./internal/wal ./internal/metrics ./internal/segment ./internal/serve \
	./internal/retry ./internal/repl ./internal/query ./internal/match ./cmd/erserve

# Fault-injection suites: crash recovery, torn writes, fsync failures,
# degraded mode and overload shedding across the durability stack.
CHAOS_PKGS = ./internal/faultfs ./internal/wal ./internal/knn ./internal/segment ./internal/online ./internal/serve ./internal/repl ./internal/match ./cmd/erserve
CHAOS_RUN = 'Crash|Torn|Corrupt|Truncat|BitFlip|Degraded|Overload|Sticky|Graceful|Panic|SaveFileAtomic|SyncFault'

.PHONY: check vet build test race chaos shard ann lsm repl bulk match scrape bench-tune bench-serve bench-wal bench-obs bench-shard bench-ann bench-lsm bench-repl bench-bulk bench-match bench-sparse bench-tuning

## check: the full verification gate (vet, build, tests, race tests, chaos, shard, ann, lsm, repl, bulk, match)
check: vet build test race chaos shard ann lsm repl bulk match

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detector pass over the concurrency-bearing packages
race:
	$(GO) test -race $(RACE_PKGS)

## chaos: fault-injection suite under the race detector — crashes, torn
## writes, fsync failures, degraded read-only mode, overload shedding
chaos:
	$(GO) test -race -count 1 -run $(CHAOS_RUN) $(CHAOS_PKGS)

## bench-tune: sequential vs parallel grid-search benchmark pair
bench-tune:
	$(GO) test -run '^$$' -bench 'BenchmarkTune(Sequential|Parallel)$$' -benchtime 10x -count 3 .

## bench-serve: online resolver under mixed read/write load
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe(Query|Insert)' -benchtime 200x -count 3 ./internal/online

## bench-sparse: the sparse-layer kNN-Join probe (ScanCount plus the
## top-k cut of IncSnapshot.KNNQuery) on the D10 analog under C3G tokens,
## at the serving k and the tuning grid's largest k. CI runs it with
## SPARSE_BENCHTIME=1x so the benchmark keeps compiling and running.
SPARSE_BENCHTIME ?= 500x
bench-sparse:
	$(GO) test -run '^$$' -bench 'BenchmarkIncKNNQuery' -benchtime $(SPARSE_BENCHTIME) -count 3 ./internal/sparse

## bench-tuning: the offline tuning layer on one cell of the offline-tune
## workload (D4 analog, scale 0.05, schema-agnostic, 96-d embeddings, 2
## workers): TuneHyperplane over the default grid with cached embeddings,
## and TuneEpsJoin plus TuneKNNJoin from a fresh input. CI runs it with
## TUNING_BENCHTIME=1x so the benchmarks keep compiling and running.
TUNING_BENCHTIME ?= 20x
bench-tuning:
	$(GO) test -run '^$$' -bench 'BenchmarkTune(Hyperplane|Sparse)$$' -benchtime $(TUNING_BENCHTIME) -count 3 ./internal/tuning

## bench-wal: durable (WAL + fsync) vs volatile insert path
bench-wal:
	$(GO) test -run '^$$' -bench 'Benchmark(Serve|Store)Insert' -benchtime 2s -cpu 1,4 ./internal/online

## shard: the sharded-equivalence gate — property tests proving the
## sharded resolver is byte-identical to a single resolver (including
## after deletes, compaction and crash recovery), under the race detector
shard:
	$(GO) test -race -count 1 -run 'Sharded' ./internal/online ./internal/serve ./cmd/erserve

## ann: the approximate-tier gate — recall-floor property tests of the
## incremental HNSW against the flat oracle (inserts, deletes past
## compaction, save/load round-trips, shard counts 1..8) plus the codec
## corruption suite, under the race detector
ann:
	$(GO) test -race -count 1 -run 'HNSW|ANN' ./internal/knn ./internal/online ./internal/serve ./cmd/erserve

## lsm: the on-disk segment-tier gate — property tests proving the
## disk-backed resolver is byte-identical to the in-memory oracle
## (deletes past merge GC, mid-stream flushes, save/load, shard counts
## 1..8, crash recovery over torn-tail WALs), plus the segment and
## manifest corruption suites, under the race detector
lsm:
	$(GO) test -race -count 1 -run 'Segment|Manifest|Tier|DiskStore|Storage|ValidateOptions' ./internal/segment ./internal/online ./cmd/erserve

## repl: the replication gate — WAL-shipping property tests (follower
## convergence to byte-identical answers, epoch read-your-writes,
## lease fencing) including the kill-the-leader failover test, under
## the race detector
repl:
	$(GO) test -race -count 1 -run 'Repl|Follower|Failover|Lease|SemiSync' ./internal/wal ./internal/online ./internal/repl ./internal/serve ./cmd/erserve

## bulk: the streaming-ingestion gate — feeds a 100k-row NDJSON stream
## through the live server and fails unless the heap envelope stays
## bounded and a deterministic sample of the answers is byte-identical
## to /v1/query/batch
bulk:
	$(GO) test -count 1 -run 'TestBulkStreamGate' ./internal/serve

## match: the match-stage gate — greedy/bipartite assignment properties,
## the batch-vs-online match equivalence test, dirty-ER incremental ==
## batch clustering (including crash recovery over torn-tail WALs) and
## the serve-layer match/cluster endpoints, under the race detector
match:
	$(GO) test -race -count 1 -run 'Match|Dirty|Assign|Bipartite|Greedy|Cluster|Hungarian' ./internal/match ./internal/serve ./cmd/erserve

## bench-match: the end-to-end match-stage experiment — P/R/F1 of the
## decided matches against generated groundtruth for greedy vs bipartite
## assignment, with the sharded path checked byte-identical to the
## single resolver
bench-match:
	$(GO) run ./cmd/erbench -exp match

## scrape: the /metrics contract gate — boots the real daemon, drives
## traffic, scrapes GET /metrics and fails on unparseable exposition or
## missing series. CI runs this against every change.
scrape:
	$(GO) test -count 1 -run 'TestMetricsScrapeEndToEnd' ./cmd/erserve

## bench-obs: instrumented vs bare serving benchmark pair — prices the
## observability layer (histograms + pool counters) on the query path
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkServeQuery(Bare)?$$/' -benchtime 2000x -count 3 ./internal/online

## bench-shard: sharded vs single-shard insert/query throughput across
## shard counts; the acceptance gate is >= 2x single-shard insert
## throughput at 8 shards
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkSharded(Insert|Query)' -benchtime 1s ./internal/online

## bench-ann: IncFlat vs IncHNSW scaling table (build time, query p50,
## recall@10 against the flat oracle); the acceptance gate is >= 5x
## query p50 at 100k entities with recall@10 >= 0.95
bench-ann:
	$(GO) run ./cmd/erbench -exp ann

## bench-lsm: all-in-memory vs disk-backed resolver over the same
## workload (ingest, query p50, index heap after GC, segment count and
## on-disk bytes); the run fails unless every answer is byte-identical
## and the dataset is >= 4x the memtable cap
bench-lsm:
	$(GO) run ./cmd/erbench -exp lsm

## bench-repl: read throughput through the proxy at 1, 2 and 4 replicas
## plus steady-state replication lag — the scale-out case for
## WAL-shipping read replicas
bench-repl:
	$(GO) run ./cmd/erbench -exp repl

## bench-bulk: NDJSON bulk-resolve stream end to end — rows/s plus peak
## and settled heap deltas while a generated feed flows through POST
## /v1/resolve/stream; fails on any sampled divergence from the batch
## endpoint
bench-bulk:
	$(GO) run ./cmd/erbench -exp bulk
