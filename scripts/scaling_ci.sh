#!/bin/sh
# CI scaling gate: one BenchmarkCampaignParallel pass (BENCHCOUNT
# repetitions, default 1), plus mutex and block profiles of the
# parallelism=8 row for the artifact upload. On multicore hosts the
# 8-vs-1 tests/sec speedup must hold at >= 1.5x; a single-core runner
# cannot scale by construction (the campaign is CPU-bound virtual-time
# simulation), so there the gate only records the number.
set -eu

cd "$(dirname "$0")/.."

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

raw=$(go test -run '^$' -bench BenchmarkCampaignParallel \
	-benchtime "${BENCHTIME:-1x}" -count "${BENCHCOUNT:-1}" .)
echo "$raw"

# Contention profiles of the hottest row; pprof-readable artifacts.
go test -run '^$' -bench 'BenchmarkCampaignParallel/parallel=8' \
	-benchtime 1x -count 1 \
	-mutexprofile mutex.out -blockprofile block.out .

# Mean tests/sec over the repetitions of the parallel=8 row over the
# parallel=1 row ("BenchmarkCampaignParallel/parallel=8-4  1  ns ns/op  N tests/sec").
speedup=$(echo "$raw" | awk '
/^BenchmarkCampaignParallel\/parallel=/ {
	split($1, name, /[=-]/)
	sum[name[2]] += $5
	n[name[2]]++
}
END { if (n[1] && n[8] && sum[1] > 0) printf "%.2f", (sum[8] / n[8]) / (sum[1] / n[1]) }')
echo "scaling: cores=$cores speedup_p8_over_p1=${speedup:-n/a}"

if [ "$cores" -le 1 ]; then
	echo "scaling: single-core host; the 1.5x gate needs parallel hardware, skipping"
	exit 0
fi
if [ -z "$speedup" ]; then
	echo "scaling: FAIL: no parallel=1 and parallel=8 rows in the benchmark output" >&2
	exit 1
fi
if awk "BEGIN { exit !($speedup < 1.5) }"; then
	echo "scaling: FAIL: speedup_p8_over_p1 = $speedup < 1.5 on $cores cores" >&2
	exit 1
fi
echo "scaling: OK: speedup_p8_over_p1 = $speedup on $cores cores"
