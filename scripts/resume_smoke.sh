#!/bin/sh
# Crash-and-resume determinism smoke: run a campaign to completion, run
# the identical campaign with -checkpoint but abort it partway through,
# resume from the journal, and require the resumed report to be
# byte-identical to the uninterrupted one. Before that resume, two must
# be refused: one under a different -rotate (another campaign) and one
# with -trace (it would truncate the pre-crash archive). Then write a
# two-test trace archive and require it to equal, byte for byte, the
# copy committed under internal/trace/testdata/: a drift in the JSONL
# format fails here and not in whoever reads an archive later. Run from
# the repository root or anywhere inside it.
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# must_refuse resumes the aborted campaign with extra flags and requires
# the resume to fail, for the reason grepped.
must_refuse() {
  reason=$1
  shift
  if go run ./cmd/conprobe $common -checkpoint "$dir/campaign.ckpt" -resume "$@" \
      > /dev/null 2> "$dir/refused.log"; then
    echo "resume_smoke: resume with $* was accepted" >&2
    exit 1
  fi
  grep -q -- "$reason" "$dir/refused.log" || {
    echo "resume_smoke: resume with $* failed for the wrong reason:" >&2
    cat "$dir/refused.log" >&2
    exit 1
  }
}

# Two passes: a multi-lane campaign, then the default one with no engine
# flag — there is one campaign path, so both must journal and resume.
for engine in "-lanes 4 -parallelism 2" ""; do
  common="-service fbfeed -test1 6 -test2 6 -seed 5 $engine -json"
  rm -f "$dir/campaign.ckpt"

  echo "== reference run (uninterrupted${engine:+, $engine})"
  go run ./cmd/conprobe $common > "$dir/reference.json"

  echo "== crash drill (abort after 7 completed tests)"
  if go run ./cmd/conprobe $common -checkpoint "$dir/campaign.ckpt" \
      -abort-after 7 > /dev/null 2> "$dir/abort.log"; then
    echo "resume_smoke: crash drill unexpectedly ran to completion" >&2
    cat "$dir/abort.log" >&2
    exit 1
  fi
  grep -q "aborted after 7" "$dir/abort.log" || {
    echo "resume_smoke: crash drill failed for the wrong reason:" >&2
    cat "$dir/abort.log" >&2
    exit 1
  }

  echo "== resume under a different campaign (-rotate 1) is refused"
  must_refuse "different campaign" -rotate 1

  echo "== resume with -trace is refused"
  must_refuse "cannot be combined with -trace" -trace "$dir/traces.jsonl"

  echo "== resumed run"
  go run ./cmd/conprobe $common -checkpoint "$dir/campaign.ckpt" -resume \
    > "$dir/resumed.json"

  echo "== diff reference vs resumed"
  diff "$dir/reference.json" "$dir/resumed.json"
done

echo "== trace archive vs internal/trace/testdata/fbgroup_seed1.jsonl"
go run ./cmd/conprobe -service fbgroup -test1 1 -test2 1 -seed 1 \
  -trace "$dir/traces.jsonl" > /dev/null
cmp "$dir/traces.jsonl" internal/trace/testdata/fbgroup_seed1.jsonl

echo "resume_smoke: OK (resumed reports and the trace archive are byte-identical)"
