#!/bin/sh
# Disk-chaos sweep: run the seeded storage-fault drills — every fault
# kind (torn write, fsync-gate, read bit flip, ENOSPC, dir-sync
# omission, crash-before-rename) against every durable site (op WAL,
# term WAL, log compaction, checkpoint journal) plus the cut-at-every-
# offset and flip-every-byte sweep of all three durable files (oplog,
# term log, checkpoint journal) and the flip-every-byte refusal sweep of
# a peerless leader's oplog — under the race detector, one seed at a
# time so a red run names the exact losing seed.
#
#   DISKCHAOS_SEEDS="1 2 3 4 5"   seeds to sweep (default 1..5)
#   DISKCHAOS_SEED_OUT=path       losing seed written here (CI uploads
#                                 it as an artifact; rerun locally with
#                                 DISKCHAOS_SEED=<n>)
#
# Run from the repository root or anywhere inside it.
set -eu

cd "$(dirname "$0")/.."

seeds=${DISKCHAOS_SEEDS:-"1 2 3 4 5"}
pkgs="./internal/cluster ./internal/checkpoint ./internal/wal ./internal/diskfault"
sweep='TestDiskFaultSweep|TestJournalFaultSweep'

# The every-offset corruption and truncation sweeps and the single-shot
# recovery-path tests are seed-independent; run them once, alongside the
# first seed.
once='TestDurableFileSweep|TestPeerlessLeaderRefusesRottenOplog|TestFsyncPoisonNeverAcks|TestQuarantinedFollowerRejoinsViaSnapshot|TestCorruptTermLogBootsNonGranting'

first=1
for seed in $seeds; do
  run="$sweep"
  if [ "$first" = 1 ]; then
    run="$sweep|$once"
    first=0
  fi
  echo "== disk-chaos seed $seed"
  if ! DISKCHAOS_SEED="$seed" go test -race -run "$run" $pkgs; then
    echo "disk-chaos: seed $seed FAILED (rerun: DISKCHAOS_SEED=$seed go test -race -run '$run' $pkgs)" >&2
    if [ -n "${DISKCHAOS_SEED_OUT:-}" ]; then
      echo "DISKCHAOS_SEED=$seed" >> "$DISKCHAOS_SEED_OUT"
    fi
    exit 1
  fi
done

echo "disk-chaos: OK (seeds: $seeds)"
