#!/bin/sh
# Cluster failover smoke: boot three consvc peers with NO designated
# leader, let them elect one, write through it (quorum-acked), require
# the followers to converge and to redirect writes with 421 +
# X-Cluster-Leader, then kill -9 the leader and require the survivors
# to elect a replacement on their own that still holds every acked
# write. The crashed node restarts from its WAL and rejoins as a
# follower. No operator action anywhere — there is no promote call.
#
# The second act drills joint-consensus reconfiguration and the
# linearizable read path: grow the cluster 3→5 with consvc -join
# (kill -9 the leader inside the joint phase of the second add), check
# lease/quorum reads at the leader and the 421 refusal off it, then
# shrink back to 3 and keep writing.
#
# The last act checks the storage layout: a stopped node's data dir
# holds one log per state machine and nothing else, and a node.snap left
# there by an older build makes consvc refuse to boot, naming the file.
# Then a one-node -role leader, the durable standalone store, keeps
# every acked write across kill -9, refuses to boot over a byte flipped
# mid-oplog (it has nobody to re-source the log from), and refuses a
# directory holding a consvc -durable wal-0.log, naming the file each
# time.
# Run from the repository root or anywhere inside it.
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d)
cleanup() {
  for n in n1 n2 n3 n4 n5; do
    if [ -s "$dir/$n.pid" ]; then
      kill -9 "$(cat "$dir/$n.pid")" 2>/dev/null || true
    fi
  done
  wait 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

die() {
  echo "cluster_smoke: $*" >&2
  for n in n1 n2 n3 n4 n5; do
    if [ -s "$dir/$n.log" ]; then
      echo "---- $n.log" >&2
      cat "$dir/$n.log" >&2
    fi
  done
  exit 1
}

# poll_until seconds what cmd [args...]: rerun cmd until it succeeds or
# the deadline passes, then die. Every wait in this script goes through
# here — a fixed sleep is either too short (flaky) or too long (slow),
# a deadline poll is neither.
poll_until() {
  _deadline=$(($(date +%s) + $1))
  _what=$2
  shift 2
  until "$@" >/dev/null 2>&1; do
    [ "$(date +%s)" -lt "$_deadline" ] || die "timed out waiting for $_what"
    sleep 0.2
  done
}

# Ports from the PID keep parallel runs on one host from colliding.
base=$((20000 + $$ % 10000))
U1="http://127.0.0.1:$base"
U2="http://127.0.0.1:$((base + 1))"
U3="http://127.0.0.1:$((base + 2))"
U4="http://127.0.0.1:$((base + 3))"
U5="http://127.0.0.1:$((base + 4))"

url_of() { # name
  case $1 in
  n1) echo "$U1" ;;
  n2) echo "$U2" ;;
  n3) echo "$U3" ;;
  n4) echo "$U4" ;;
  n5) echo "$U5" ;;
  esac
}

echo "== build consvc"
go build -o "$dir/consvc" ./cmd/consvc

start_node() { # name
  _u=$(url_of "$1")
  _peers=""
  for _n in n1 n2 n3; do
    [ "$_n" = "$1" ] && continue
    _peers="$_peers,$(url_of "$_n")"
  done
  # -election-timeout must clear the service's worst-case write-apply
  # time: ops apply under the node lock and a blogger write pays ~1s of
  # simulated network delay there, stalling heartbeats behind it.
  "$dir/consvc" -service blogger -rate 0 -jitter 0 -node-id "$1" \
    -addr "${_u#http://}" -self-url "$_u" -peers "${_peers#,}" \
    -data-dir "$dir/$1" -pull-interval 100ms -election-timeout 2s \
    -heartbeat-interval 200ms -snapshot-every 4 \
    >>"$dir/$1.log" 2>&1 &
  echo $! >"$dir/$1.pid"
}

# start_join name target: boot a node with no -peers that asks the
# cluster at target to vote it into the membership (consvc -join).
start_join() {
  _u=$(url_of "$1")
  "$dir/consvc" -service blogger -rate 0 -jitter 0 -node-id "$1" \
    -addr "${_u#http://}" -self-url "$_u" -join "$2" \
    -data-dir "$dir/$1" -pull-interval 100ms -election-timeout 2s \
    -heartbeat-interval 200ms -snapshot-every 4 \
    >>"$dir/$1.log" 2>&1 &
  echo $! >"$dir/$1.pid"
}

status_field() { # url field
  curl -fsS "$1/cluster/status" 2>/dev/null |
    sed -n "s/.*\"$2\":\"\{0,1\}\([a-z0-9_.:/-]*\)\"\{0,1\}[,}].*/\1/p"
}

healthy() { curl -fsS "$1/time" >/dev/null 2>&1; }

# find_leader url...: sets LEADER to the member currently claiming
# leadership; fails when nobody does (mid-election).
find_leader() {
  for _u in "$@"; do
    if [ "$(status_field "$_u" role)" = "leader" ]; then
      LEADER=$_u
      return 0
    fi
  done
  return 1
}

has_post() { # url id
  curl -fsS -H 'X-Client-Site: tokyo' "$1/posts?reader=smoke" 2>/dev/null |
    grep -q "\"id\":\"$2\""
}

# attempt_write id: one write attempt through the current leader. A
# failed attempt whose op actually committed (the honest "unknown
# outcome" of a quorum write) is detected by reading the id back, so
# the poll_until retry stays idempotent.
attempt_write() {
  find_leader $live || return 1
  curl -fsS -o /dev/null -H 'X-Client-Site: oregon' \
    -H 'Content-Type: application/json' \
    -d "{\"id\":\"$1\",\"author\":\"smoke\",\"body\":\"$1\"}" \
    "$LEADER/posts" && return 0
  has_post "$LEADER" "$1"
}

write_acked() { # id
  poll_until 30 "write $1 to be quorum-acked" attempt_write "$1"
}

echo "== boot three peers, nobody told to lead"
start_node n1
start_node n2
start_node n3
for n in n1 n2 n3; do
  poll_until 20 "$n to come up" healthy "$(url_of "$n")"
done

echo "== cluster elects a leader on its own"
live="$U1 $U2 $U3"
poll_until 30 "a leader to be elected" find_leader $live
leader=$LEADER
term=$(status_field "$leader" term)
[ -n "$term" ] && [ "$term" -ge 1 ] || die "elected leader reports term '$term'"
echo "   leader: $leader (term $term)"

echo "== write 5 posts through the elected leader"
for i in 1 2 3 4 5; do
  write_acked "p$i"
done

echo "== followers converge"
for u in $live; do
  [ "$u" = "$leader" ] && continue
  poll_until 30 "replica at $u to hold p5" has_post "$u" p5
done

echo "== the leader appends over one stream per follower, none by POST"
metric() { # url family
  curl -fsS "$1/metrics" | sed -n "s/^$2 \([0-9]*\)$/\1/p"
}
streams=$(metric "$leader" consvc_cluster_append_streams)
fallbacks=$(metric "$leader" consvc_cluster_append_fallbacks_total)
[ "$streams" = 2 ] || die "leader has '$streams' append streams open, want 2"
[ "$fallbacks" = 0 ] || die "leader sent '$fallbacks' appends by POST: a follower refused the stream"

echo "== follower redirects writes with 421 + leader hint"
for u in $live; do
  [ "$u" = "$leader" ] && continue
  follower=$u
  break
done
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Client-Site: oregon' \
  -H 'Content-Type: application/json' \
  -d '{"id":"px","author":"smoke","body":"misdirected"}' "$follower/posts")
[ "$code" = "421" ] || die "follower answered a write with $code, want 421"
curl -s -D - -o /dev/null -H 'X-Client-Site: oregon' \
  -H 'Content-Type: application/json' \
  -d '{"id":"px","author":"smoke","body":"misdirected"}' "$follower/posts" |
  grep -qi "^X-Cluster-Leader: $leader" || die "421 lacks the X-Cluster-Leader hint"

echo "== kill -9 the leader; survivors elect a replacement unaided"
for n in n1 n2 n3; do
  if [ "$(url_of "$n")" = "$leader" ]; then
    dead=$n
    kill -9 "$(cat "$dir/$n.pid")"
    wait "$(cat "$dir/$n.pid")" 2>/dev/null || true
    : >"$dir/$n.pid"
  fi
done
live=""
for n in n1 n2 n3; do
  [ "$n" = "$dead" ] || live="$live $(url_of "$n")"
done
poll_until 30 "the survivors to elect a new leader" find_leader $live
new_leader=$LEADER
[ "$new_leader" != "$leader" ] || die "dead node still reported as leader"
new_term=$(status_field "$new_leader" term)
[ "$new_term" -gt "$term" ] || die "new leader term $new_term not above $term"
echo "   new leader: $new_leader (term $new_term)"

echo "== zero acked-write loss across the failover"
for i in 1 2 3 4 5; do
  has_post "$new_leader" "p$i" || die "acked write p$i lost in failover"
done

echo "== the stream continues under the new leader"
for i in 6 7 8; do
  write_acked "p$i"
done

echo "== crashed node restarts from its WAL and rejoins"
start_node "$dead"
poll_until 20 "$dead to come up" healthy "$(url_of "$dead")"
live="$U1 $U2 $U3"
poll_until 30 "rejoined $dead to catch up to p8" has_post "$(url_of "$dead")" p8
for i in 1 2 3 4 5 6 7 8; do
  has_post "$(url_of "$dead")" "p$i" || die "rejoined replica is missing p$i"
done
role=$(status_field "$(url_of "$dead")" role)
[ "$role" = "follower" ] || die "rejoined node role=$role, want follower"

# config_settled count: the current leader reports the target member
# count with no joint phase in flight.
config_settled() {
  find_leader $live || return 1
  [ "$(status_field "$LEADER" members)" = "$1" ] &&
    [ "$(status_field "$LEADER" joint)" = "false" ]
}

echo "== grow to four: n4 joins via -join, no flag edits on the members"
find_leader $live
start_join n4 "$LEADER"
poll_until 20 "n4 to come up" healthy "$U4"
poll_until 60 "the config to settle at 4 members" config_settled 4
live="$live $U4"

echo "== n5 joins; kill -9 the leader inside the joint phase"
find_leader $live
victim=$LEADER
# n5 asks a non-leader member so its join retries survive the kill.
for u in $live; do
  [ "$u" = "$victim" ] && continue
  join_at=$u
  break
done
start_join n5 "$join_at"
poll_until 20 "n5 to come up" healthy "$U5"
# Tight-poll the leader for the C(old,new) phase and kill it the moment
# the phase is visible. The window is only a few heartbeats wide; if it
# settles before a poll lands in it, kill the leader anyway — recovery
# must never regress the config in either case.
caught="joint window missed"
grow_deadline=$(($(date +%s) + 60))
while :; do
  if [ "$(status_field "$victim" joint)" = "true" ]; then
    caught="killed mid-joint"
    break
  fi
  [ "$(status_field "$victim" members)" = "5" ] && break
  [ "$(date +%s)" -lt "$grow_deadline" ] || die "n5's reconfiguration never started"
done
for n in n1 n2 n3 n4; do
  if [ "$(url_of "$n")" = "$victim" ]; then
    vname=$n
    kill -9 "$(cat "$dir/$n.pid")"
    wait "$(cat "$dir/$n.pid")" 2>/dev/null || true
    : >"$dir/$n.pid"
  fi
done
echo "   $caught: $victim"
live=""
for n in n1 n2 n3 n4 n5; do
  [ "$(url_of "$n")" = "$victim" ] || live="$live $(url_of "$n")"
done
# Restart the victim: it recovers the (possibly joint) config from its
# WAL and must rejoin without regressing the membership.
start_node "$vname"
poll_until 20 "$vname to restart" healthy "$victim"
live="$U1 $U2 $U3 $U4 $U5"
poll_until 60 "the 5-member config to settle across the kill" config_settled 5

echo "== quorum writes span the grown membership"
write_acked p9
write_acked p10
for n in n4 n5; do
  poll_until 30 "$n to hold p10" has_post "$(url_of "$n")" p10
done

echo "== linearizable reads: lease at the leader, quorum round, 421 off-leader"
# Every read is GET /posts; mode= picks its consistency level.
lease_read_ok() {
  find_leader $live || return 1
  curl -fsS -D "$dir/read.hdr" -o "$dir/read.body" \
    -H 'X-Client-Site: tokyo' "$LEADER/posts?reader=smoke&mode=lease" &&
    grep -qi '^x-read-mode: lease' "$dir/read.hdr" &&
    grep -q '"id":"p10"' "$dir/read.body"
}
poll_until 30 "a lease-vouched read of p10 at the leader" lease_read_ok
quorum_read_ok() {
  find_leader $live || return 1
  curl -fsS -H 'X-Client-Site: tokyo' \
    "$LEADER/posts?reader=smoke&mode=quorum" | grep -q '"id":"p10"'
}
poll_until 30 "a quorum-vouched read of p10 at the leader" quorum_read_ok
find_leader $live
for u in $live; do
  [ "$u" = "$LEADER" ] && continue
  follower=$u
  break
done
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Client-Site: tokyo' \
  "$follower/posts?reader=smoke&mode=lease")
[ "$code" = "421" ] || die "follower answered a lease read with $code, want 421"
curl -fsS -H 'X-Client-Site: tokyo' \
  "$follower/posts?reader=smoke&mode=local" | grep -q '"id":"p10"' ||
  die "local-mode read at a follower did not serve the replica"
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Client-Site: tokyo' \
  "$LEADER/cluster/read?mode=lease&reader=smoke")
[ "$code" = "404" ] || die "the removed /cluster/read answered $code, want 404"

echo "== shrink back to three: remove n4 and n5 under joint consensus"
attempt_shrink() {
  config_settled 3 && return 0
  find_leader $live || return 1
  curl -fsS -o /dev/null -H 'Content-Type: application/json' \
    -d "{\"remove\":[\"$U4\",\"$U5\"]}" "$LEADER/cluster/reconfigure"
  config_settled 3
}
poll_until 60 "the config to shrink to 3" attempt_shrink
for n in n4 n5; do
  kill -9 "$(cat "$dir/$n.pid")"
  wait "$(cat "$dir/$n.pid")" 2>/dev/null || true
  : >"$dir/$n.pid"
done

echo "== the shrunken cluster still commits writes"
live="$U1 $U2 $U3"
write_acked p11
for i in 1 2 3 4 5 6 7 8 9 10 11; do
  has_post "$LEADER" "p$i" || die "write p$i lost across the 3-5-3 reconfiguration"
done

echo "== one log per state machine; a stale node.snap is refused, by name"
find_leader $live
for n in n1 n2 n3; do
  [ "$(url_of "$n")" = "$LEADER" ] && continue
  stale=$n
  break
done
kill -9 "$(cat "$dir/$stale.pid")"
wait "$(cat "$dir/$stale.pid")" 2>/dev/null || true
: >"$dir/$stale.pid"
for f in "$dir/$stale"/*; do
  case ${f##*/} in
  oplog.log | term.log | rebuilding | votehold | *.corrupt) ;;
  *) die "$stale's data dir holds ${f##*/}: not a log, a marker or a quarantine sidecar" ;;
  esac
done
echo "left by an older build" >"$dir/$stale/node.snap"
start_node "$stale"
stale_pid=$(cat "$dir/$stale.pid")
exited() { ! kill -0 "$1" 2>/dev/null; }
poll_until 20 "$stale to refuse its data dir" exited "$stale_pid"
: >"$dir/$stale.pid"
if wait "$stale_pid"; then
  die "consvc exited 0 over a stale node.snap"
fi
grep -q "node.snap" "$dir/$stale.log" || die "the refusal does not name node.snap"
[ "$(cat "$dir/$stale/node.snap")" = "left by an older build" ] || die "the refused boot touched node.snap"

echo "== a one-node -role leader keeps acked writes across kill -9"
# The solo node reuses n4's port, pid file and log: n4 left the cluster.
start_solo() { # data-dir
  "$dir/consvc" -service blogger -rate 0 -jitter 0 -role leader -node-id solo \
    -addr "${U4#http://}" -data-dir "$1" >>"$dir/n4.log" 2>&1 &
  echo $! >"$dir/n4.pid"
}
kill_solo() {
  kill -9 "$(cat "$dir/n4.pid")"
  wait "$(cat "$dir/n4.pid")" 2>/dev/null || true
  : >"$dir/n4.pid"
}
# refused_boot data-dir file: the solo leader must exit nonzero over
# data-dir, name data-dir/file, and leave the file as it was.
refused_boot() {
  _sum=$(cksum <"$1/$2")
  start_solo "$1"
  _pid=$(cat "$dir/n4.pid")
  poll_until 20 "the solo leader to refuse $1" exited "$_pid"
  : >"$dir/n4.pid"
  if wait "$_pid"; then
    die "consvc exited 0 over $1/$2"
  fi
  grep -q "$1/$2" "$dir/n4.log" || die "the refusal does not name $1/$2"
  [ "$(cksum <"$1/$2")" = "$_sum" ] || die "the refused boot changed $1/$2"
}
: >"$dir/n4.log"
live="$U4"
start_solo "$dir/solo"
poll_until 20 "the solo leader to come up" healthy "$U4"
for i in 1 2 3; do
  write_acked "s$i"
done
kill_solo
start_solo "$dir/solo"
poll_until 20 "the solo leader to restart" healthy "$U4"
for i in 1 2 3; do
  has_post "$U4" "s$i" || die "acked write s$i lost across the solo leader's kill -9"
done
write_acked s4
kill_solo

echo "== the solo leader refuses a byte flipped mid-oplog, by name"
# Byte 8 opens the first frame's payload, the snapshot record's '{'; the
# op frames after it make the damage mid-file, not a torn tail.
[ "$(dd if="$dir/solo/oplog.log" bs=1 skip=8 count=1 2>/dev/null)" = "{" ] ||
  die "the solo oplog's first record does not start at byte 8"
printf 'X' | dd of="$dir/solo/oplog.log" bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
refused_boot "$dir/solo" oplog.log

echo "== the solo leader refuses a consvc -durable directory, by name"
mkdir "$dir/durable"
echo "written by consvc -durable" >"$dir/durable/wal-0.log"
refused_boot "$dir/durable" wal-0.log

echo "cluster_smoke: OK (automatic election, quorum writes, kill -9 failover, rejoin, 3-5-3 reconfigure with mid-joint kill, lease/quorum reads, legacy data dir refused, durable one-node leader)"
