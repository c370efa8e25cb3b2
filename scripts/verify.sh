#!/bin/sh
# Pre-merge verification: compile every package, vet, and run the full
# test suite under the race detector. Run from the repository root or
# anywhere inside it.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -race ./..."
go test -race ./...

# A per-read object put back on the read path shows here as allocs/op (a
# cached store read is 0); so does an object per armed timer (a re-arm and
# fire is 0, a delivered write 0). BenchmarkSimScheduler, a sleep and its
# wake among 8 actors, is about 0.28-0.40 us/op on a 2-core VM and
# BenchmarkSimTimerRearm about 0.45-0.55 (0.6-0.9 and 0.9-1.3 while each
# actor was a goroutine woken through a channel). BenchmarkCampaign runs
# one Test 1 per iteration, so its allocs/op is objects per whole test
# (about 40).
# BenchmarkCheckTest checks the googleplus Test 2 (3 x 45 reads) on a new
# index, about 30-45 us/op and 15 KB of warm-up on a 2-core VM (240-330
# us/op while every pair of reads was decided, not every pair of
# timelines); BenchmarkCheckTestReusedIndex resets one index, as every
# aggregator does: about 25 us/op, and it allocates nothing.
# BenchmarkCheckpointAppend is encoding and writing the journal frame of a
# test its lane has already analyzed (no checker runs); the
# fsync runs behind it on the journal's syncer, one per up to 64 frames
# (about 45-50 us/op and 0 allocs/op on a 2-core VM; 160-320 while each
# Append waited for its fsync). BenchmarkCampaignJournal is a whole
# campaign_journal-shaped campaign (400 tests, journaled): about 75-100
# ms/op and 35-65 fsyncs/op (125-180 ms and about 375 fsyncs before).
echo "== hot-path cost (ns/op, allocs/op: checkers on a paper-shaped Test 2, scheduler, timer re-arm, store delivery, a whole test, trace codec, journal append, journaled campaign, cached store read)"
go test -run '^$' -bench 'CheckTest|DivergenceWindows' -benchtime 20x -benchmem .
go test -run '^$' -bench 'SimScheduler|SimTimerRearm|StoreDeliver' -benchtime 2000x -benchmem .
go test -run '^$' -bench 'Campaign/(blogger|fbgroup)$' -benchtime 200x -benchmem .
go test -run '^$' -bench 'TraceJSONL|CheckpointAppend' -benchtime 200x -benchmem .
go test -run '^$' -bench 'CampaignJournal$' -benchtime 3x -benchmem .
go test -run '^$' -bench 'StoreReadCached' -benchtime 2000x -benchmem ./internal/store

# What one simulated read costs: a 30-post Facebook Feed timeline. It
# allocates no object, and its bytes are the copies a selection makes of
# timelines with fresh posts to rank (about 2.1 µs and 450 B/op on a
# 2-core VM; 4.3 µs and 570 B/op while each ranked read seeded all of a
# math/rand source and each rendering was converted once more, about
# 2,800 B/op while every read copied the timeline). Readers of a settled
# replica share the store's rendering and copy nothing. The selection
# stream line is what a ranked read pays for randomness: one seed and
# five draws of math/rand's stream, computed on demand (0.12–0.2 µs and
# 0 allocs/op; about 14 µs while Seed filled all 607 words).
echo "== simulated read (one 30-post fbfeed read, interest-ranked; one selection seed and five draws)"
go test -run '^$' -bench 'SelectionApply$' -benchtime 2000x -benchmem . |
  awk '/^BenchmarkSelectionApply/ { print "simulated read (fbfeed, 30 posts): " $3 " ns/op, " $5 " B/op, " $7 " allocs/op" }'
go test -run '^$' -bench 'SelectionStream$' -benchtime 20000x -benchmem ./internal/service |
  awk '/^BenchmarkSelectionStream/ { print "selection stream: " $3 " ns/op, " $7 " allocs/op" }'

# What one simulated test costs in a streaming campaign: the marginal
# objects and bytes between a 64- and a 128-test four-profile Run with
# traces discarded (TestCampaignTestAllocBudget; about 27.2 objects and
# 3.8 KB, 4.6 KB while each rendering was converted once more, about 35
# and 15 KB while each test allocated its trace).
echo "== campaign test (marginal objects and KB per test, 4 profiles, traces discarded)"
go test -count=1 -run 'TestCampaignTestAllocBudget$' -v . |
  awk '/objects per simulated test/ { n = $2 } /KB per simulated test/ { k = $2 }
    END { print "campaign test (4 profiles, traces discarded, marginal): " n " objects, " k " KB" }'

# The replication path's cost on the virtual clock: exact, so any change
# is a protocol change.
echo "== commit cost (virtual ms and RPCs per commit, 3 nodes, 0.2 ms hops, shipped timers)"
go test -count=1 -run 'TestCommitCostExact$' -v ./internal/cluster/clustertest | grep -o 'commit cost: .*'

# What recording a test costs before the disk: one trace through the
# JSONL writer. A non-zero allocs/op is an object per timestamp or per
# read put back.
echo "== trace encode (one googleplus Test 1 through the JSONL writer)"
go test -run '^$' -bench 'TraceJSONL$' -benchtime 200x -benchmem . |
  awk '/^BenchmarkTraceJSONL/ { print "trace encode: " $3 " ns/op, " $(NF-1) " allocs/op" }'

# What one leader→follower append costs on the wire: a loopback
# httpTransport against a follower's Handler on the append stream, both
# ends counted (3 objects: a string per decoded message and the ops; 93
# as one POST /cluster/heartbeat each, the fallback TestAppendRPCAllocs
# also pins).
echo "== append rpc (one 1-op append on the loopback append stream, leader and follower)"
go test -run '^$' -bench 'AppendRPC$' -benchtime 2000x -benchmem ./internal/cluster |
  awk '/^BenchmarkAppendRPC/ { print "append rpc (stream): " $3 " ns/op, " $(NF-1) " allocs/op" }'

# What one timeline read costs over the HTTP facade: a 16-post GET /posts
# on loopback, client and server together (90 objects at any timeline
# length; 157 while each read decoded by reflection and the server copied
# the timeline, TestReadAllocs pins 95).
echo "== timeline read (one 16-post GET /posts on loopback, client and server)"
go test -run '^$' -bench 'TimelineRead$' -benchtime 2000x -benchmem ./internal/httpapi |
  awk '/^BenchmarkTimelineRead/ { print "timeline read (16 posts): " $3 " ns/op, " $(NF-1) " allocs/op" }'

echo "== resume smoke"
./scripts/resume_smoke.sh

echo "== paper-scale run vs docs/paper_scale_run.txt"
make paper-check

echo "== cluster smoke"
./scripts/cluster_smoke.sh

echo "== disk chaos (short sweep)"
DISKCHAOS_SEEDS=${DISKCHAOS_SEEDS:-"1 2"} ./scripts/disk_chaos.sh

# bench/ is a module of its own: the root build and test commands above
# never compile it, so a change to a type it uses breaks it silently.
echo "== bench module: vet, tests, smoke run"
(cd bench && go vet ./... && go test ./...)
bash bench/run.sh -smoke

echo "== bench: bench/run.sh"
make bench

echo "verify: OK"
