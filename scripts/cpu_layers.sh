#!/usr/bin/env bash
# cpu_layers.sh prints where a simulated campaign's CPU goes, layer by
# layer: the table of DESIGN §11. It profiles the campaign_sim
# workload's shape — every service profile, 160 Test 1 and 160 Test 2
# instances, parallelism 2, traces discarded — thirty times over through
# the root package's BenchmarkCPULayers, then charges each sample to its
# leaf-most conprobe frame. minheap and detrand frames are charged to
# their caller; samples with no conprobe frame at all (GC workers, the Go
# scheduler, coroutine switches on the system stack) are a row of their
# own.
#
# Run it as `make cpu-layers` (≈ 1 min). Only `go test` and
# `go tool pprof -raw` are used.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
prof=$tmp/cpu.out
go test -run '^$' -bench '^BenchmarkCPULayers$' -benchtime 30x \
	-cpuprofile "$prof" -o "$tmp/conprobe.test" . >/dev/null

go tool pprof -raw "$prof" | awk '
# row names the layer a conprobe function belongs to.
function row(fn,    pkg) {
	pkg = fn
	sub(/\[.*/, "", pkg)                # generic shapes
	if (pkg ~ /\//) { sub(/^.*\//, "", pkg) }
	sub(/\..*/, "", pkg)
	if (pkg == "core") return "core checkers (core.Index)"
	if (pkg == "vtime") return "vtime scheduler (actors, timers, minheap)"
	if (pkg == "probe") return "probe (runner, recorders)"
	if (pkg == "simnet") return "simnet (delay draws)"
	if (pkg == "analysis") return "analysis (Aggregator)"
	if (pkg == "service")
		return fn ~ /Selection|selection|lehmerWord|rngFeed|postBlock/ ? "selection (Selection.apply, its generator)" : "service, other (routing, nonces, keys)"
	if (pkg == "store")
		return fn ~ /\(\*replica\)\.render/ ? "store render ((*replica).render)" : "store, other (writes, deliveries, Read)"
	if (pkg == "clocksync" || pkg == "trace" || pkg == "conprobe") return "clocksync, trace, conprobe.Run"
	return "other conprobe packages (" pkg ")"
}
# ours reports whether fn is a conprobe frame a sample is charged to.
function ours(fn) {
	return (fn ~ /^conprobe[.\/]/) && (fn !~ /^conprobe\/internal\/(minheap|detrand)\./)
}
/^Samples:/ { part = "samples"; next }
/^Locations/ { part = "locations"; next }
/^Mappings/ { part = "" ; next }
part == "samples" && $2 ~ /:$/ {
	n++
	value[n] = $2 + 0
	stack[n] = ""
	for (i = 3; i <= NF; i++) stack[n] = stack[n] " " $i
	next
}
part == "locations" {
	# "<id>: <addr> M=<m> <function> <file:line:col> s=<start>", then one
	# line per frame inlined into it, innermost first: "<function>
	# <file:line:col> s=<start>". A generic function name has spaces.
	first = 1
	if ($1 ~ /^[0-9]+:$/) { loc = $1; sub(/:$/, "", loc); first = 4 }
	fn = $first
	for (i = first + 1; i <= NF - 2; i++) fn = fn " " $i
	if (!(loc in charged) && ours(fn)) charged[loc] = row(fn)
}
END {
	for (i = 1; i <= n; i++) {
		r = "runtime with no conprobe frame (GC, scheduler)"
		k = split(stack[i], locs, " ")
		for (j = 1; j <= k; j++) if (locs[j] in charged) { r = charged[locs[j]]; break }
		ns[r] += value[i]
		total += value[i]
	}
	m = 0
	for (r in ns) names[++m] = r
	for (i = 1; i <= m; i++) # by CPU, largest first
		for (j = i + 1; j <= m; j++)
			if (ns[names[j]] > ns[names[i]]) { t = names[i]; names[i] = names[j]; names[j] = t }
	printf "%-52s %8s %7s\n", "layer (leaf-most conprobe frame)", "CPU s", "share"
	for (i = 1; i <= m; i++)
		printf "%-52s %8.2f %6.1f%%\n", names[i], ns[names[i]] / 1e9, 100 * ns[names[i]] / total
	printf "%-52s %8.2f %6.1f%%\n", "all", total / 1e9, 100
}'
