GO ?= go

.PHONY: build test vet race verify-race bench scaling cpu-layers loc load fuzz golden resume-smoke paper-check cluster-smoke disk-chaos verify clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify-race is the CI race gate: the full suite under the race
# detector, with the instrumented (metrics-on) hot paths exercised.
verify-race: race

# bench runs the repository's benchmark (bench/README.md: four
# workloads over both stacks) and appends one JSON line per run to
# BENCH_<host>.jsonl; `bash bench/run.sh -compare a.jsonl b.jsonl`
# reads two such records back.
bench:
	bash bench/run.sh -out "BENCH_$$(uname -n | tr -c 'A-Za-z0-9' '_' | sed 's/_*$$//').jsonl"

# scaling is the CI scaling gate: one BenchmarkCampaignParallel pass,
# mutex and block profiles of the parallelism=8 row, and — on multicore
# hosts — a hard >= 1.5x check of parallel=8 over parallel=1 tests/sec.
scaling:
	./scripts/scaling_ci.sh

# cpu-layers prints where a simulated campaign's CPU goes by layer
# (DESIGN §11's table): campaign_sim's shape profiled thirty times over,
# each sample charged to its leaf-most conprobe frame (scripts/cpu_layers.sh).
cpu-layers:
	./scripts/cpu_layers.sh

# loc prints the size every simplicity change is judged by: non-test Go
# lines per internal/ package and for the whole module, bench/ excluded.
# BASE=<git ref> adds that ref's count and the delta (scripts/loc.sh).
loc:
	@./scripts/loc.sh $(BASE)

# load runs a short closed-loop conload smoke against the in-process
# fbgroup profile and prints the JSON summary (same run CI performs).
load:
	$(GO) run ./cmd/conload -inproc -service fbgroup -users 8 \
		-duration 2s -write-ratio 0.1 -api-delay 0

# resume-smoke proves crash-safe resume end to end through the CLI: a
# campaign aborted mid-flight and resumed from its journal must emit a
# report byte-identical to an uninterrupted run. It also compares the
# JSONL that `conprobe -trace` writes with the archive committed under
# internal/trace/testdata/.
resume-smoke:
	./scripts/resume_smoke.sh

# paper-check reruns the headline experiment (all four services at the
# paper's Tables I/II scale, ~15 s) and diffs it against the committed
# report EXPERIMENTS.md quotes, so the two cannot drift apart.
paper-check:
	$(GO) run ./cmd/conprobe -service all -paper -seed 1 2>/dev/null | diff - docs/paper_scale_run.txt

# cluster-smoke boots a leader and two followers on localhost, writes
# through the leader, checks follower catch-up and 421 leader
# redirects, then kill -9s the leader and requires it to recover its
# op log from its WAL and keep replicating. The second act grows the
# cluster 3->5 with consvc -join (kill -9 mid-joint-phase), checks
# lease/quorum reads, and shrinks back to 3; the last requires a data
# dir holding an older build's node.snap to be refused. A one-node
# -role leader then keeps acked writes across kill -9 and refuses a
# flipped oplog byte and a consvc -durable directory.
cluster-smoke:
	./scripts/cluster_smoke.sh

# disk-chaos sweeps every storage-fault kind across every durable site
# (op WAL, term WAL, log compaction, checkpoint journal) under -race, one
# seed at a time; DISKCHAOS_SEEDS overrides the seed list and a losing
# seed is reported for an exact local rerun.
disk-chaos:
	./scripts/disk_chaos.sh

# fuzz gives every fuzz target a short budget beyond its seed corpus. The
# two core targets are differential — predicates (repeated IDs, long
# sequences) and whole traces against the reference oracle in
# internal/core/reference_test.go — and get the longer budget; so are the
# cluster's and the trace package's, their append encoders against
# encoding/json (FuzzReader holds every trace it decodes to the same), and
# the wire's: the append RPC's and POST /posts's encoders and decoders
# against encoding/json, arbitrary bytes included.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzAppendTrace -fuzztime 20s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzDivergencePredicates -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCheckTest -fuzztime 30s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzMetricsExposition -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzAppendOp -fuzztime 20s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzAppendHeartbeat -fuzztime 20s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzDecodeHeartbeat -fuzztime 30s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzAppendPost -fuzztime 10s ./internal/httpapi
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePost$$' -fuzztime 20s ./internal/httpapi
	$(GO) test -run '^$$' -fuzz FuzzDecodePosts -fuzztime 20s ./internal/httpapi

# golden re-records the committed golden files after an intentional
# rendering change; inspect the diff before committing.
golden:
	$(GO) test ./internal/report ./cmd/conanalyze -run TestGolden -update

# verify is the pre-merge gate: compile everything, vet, run the full
# suite under the race detector, and record a benchmark data point.
verify:
	./scripts/verify.sh
