#!/bin/sh
# trace_cluster_smoke.sh: end-to-end smoke test of cluster-wide distributed
# tracing.
#
# Boots a 3-node local cluster with per-node trace directories and work
# stealing enabled, piles a batch of jobs onto one node's single worker (the
# loop-guard header keeps them local, so the idle peers steal the queue),
# then validates the per-node Perfetto trace files as ONE cluster:
#
#   1. every file is structurally valid (balanced events, nesting);
#   2. every parent_span_id resolves to a span_id within its trace_id group
#      across files, and every trace has a root span;
#   3. at least one trace spans 2+ nodes — the victim's remote-exec span and
#      the thief's execution joined by the identity minted at submit.
#
# tracelint -cluster -cross is the gate: exit 1 if any linkage is dangling
# or no trace crossed a node boundary. Needs only a POSIX shell and curl.
set -eu

workdir=$(mktemp -d)
bin="$workdir/gpsd"
lint="$workdir/tracelint"

p1=$((23000 + $$ % 10000))
p2=$((p1 + 1))
p3=$((p1 + 2))
peers="n1=http://127.0.0.1:$p1,n2=http://127.0.0.1:$p2,n3=http://127.0.0.1:$p3"

pid1="" pid2="" pid3=""

cleanup() {
    for p in "$pid1" "$pid2" "$pid3"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

go build -o "$bin" ./cmd/gpsd
go build -o "$lint" ./cmd/tracelint

start_node() {
    n=$1 port=$2
    : >"$workdir/n$n.log"
    mkdir -p "$workdir/traces/n$n"
    "$bin" -addr "127.0.0.1:$port" -node-id "n$n" -peers "$peers" \
        -workers 1 -queue 32 -journal "$workdir/n$n.journal" \
        -trace-dir "$workdir/traces/n$n" \
        -probe-interval 150ms -steal-interval 100ms >"$workdir/n$n.log" 2>&1 &
    eval "pid$n=\$!"
    for _ in $(seq 1 50); do
        grep -q "listening on" "$workdir/n$n.log" && return 0
        eval "kill -0 \$pid$n" 2>/dev/null || break
        sleep 0.1
    done
    echo "trace-cluster-smoke: node n$n failed to start:"
    cat "$workdir/n$n.log"
    exit 1
}

start_node 1 "$p1"
start_node 2 "$p2"
start_node 3 "$p3"
echo "trace-cluster-smoke: 3 nodes up on ports $p1/$p2/$p3"
sleep 0.5 # first probe sweep: thieves need a liveness view before stealing

# steals_of <port>: the node's thief-side steal counter.
steals_of() {
    s=$(curl -s "http://127.0.0.1:$1/metrics" |
        sed -n 's/^gpsd_cluster_steals_total{role="thief"} \([0-9][0-9]*\).*/\1/p' | head -n 1)
    echo "${s:-0}"
}

# poll_done <id>: wait until the job is terminal and assert done (via n1,
# which holds every job of this test and answers for it locally).
poll_done() {
    state=""
    for _ in $(seq 1 600); do
        curl -s "http://127.0.0.1:$p1/v1/jobs/$1" >"$workdir/status" || true
        state=$(sed -n 's/.*"state": "\([^"]*\)".*/\1/p' "$workdir/status" | head -n 1)
        case "$state" in done | failed | canceled) break ;; esac
        sleep 0.1
    done
    [ "$state" = done ] || {
        echo "trace-cluster-smoke: job $1 ended '$state':"
        cat "$workdir/status"
        exit 1
    }
}

# Pile batches onto n1's single worker until a peer steals. The loop-guard
# header forces local handling, so every job queues on n1 while n2/n3 idle —
# the steal loop moves the overflow within a couple of 100ms ticks.
ids=""
round=0
while :; do
    round=$((round + 1))
    [ "$round" -le 5 ] || { echo "trace-cluster-smoke: no steal after $((round - 1)) rounds"; exit 1; }
    for i in $(seq 1 6); do
        seed=$((round * 100 + i))
        spec="{\"type\":\"matrix\",\"iterations\":4,\"seed\":$seed,\"cells\":[{\"app\":\"jacobi\",\"paradigm\":\"GPS\",\"gpus\":4,\"fabric\":\"nvswitch\"}]}"
        code=$(curl -s -o "$workdir/sub" -w '%{http_code}' \
            -H 'X-GPS-Forwarded-From: smoke' -d "$spec" "http://127.0.0.1:$p1/v1/jobs")
        [ "$code" = 202 ] || { echo "trace-cluster-smoke: submit returned $code"; cat "$workdir/sub"; exit 1; }
        ids="$ids $(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$workdir/sub" | head -n 1)"
    done
    for id in $ids; do
        poll_done "$id"
    done
    stolen=$(($(steals_of "$p2") + $(steals_of "$p3")))
    [ "$stolen" -gt 0 ] && break
    echo "trace-cluster-smoke: round $round finished before any steal; queuing another batch"
done
echo "trace-cluster-smoke: $stolen job(s) stolen across $round round(s); all jobs done"

# Give the asynchronous trace writers (the victim's remote-exec flush, the
# thieves' tracer close) a beat to land their files.
sleep 1

files=$(find "$workdir/traces" -name '*.trace.json')
count=$(echo "$files" | wc -l)
[ "$count" -ge 2 ] || { echo "trace-cluster-smoke: only $count trace files written"; exit 1; }

# The gate: every per-node file valid, every cross-file parent link resolved,
# and at least one trace spanning 2+ nodes (-cross exits 1 otherwise).
# shellcheck disable=SC2086
"$lint" -cluster -cross -merge "$workdir/merged.trace.json" $files >"$workdir/lint.out" || {
    echo "trace-cluster-smoke: tracelint -cluster failed:"
    cat "$workdir/lint.out"
    exit 1
}
cat "$workdir/lint.out"
grep -q '"ph"' "$workdir/merged.trace.json" || {
    echo "trace-cluster-smoke: merged trace is empty"
    exit 1
}

echo "trace-cluster-smoke: PASS"
