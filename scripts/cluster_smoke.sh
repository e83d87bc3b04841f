#!/bin/sh
# cluster_smoke.sh: end-to-end smoke test of gpsd cluster mode.
#
# Boots a 3-node local cluster on fixed loopback ports, then checks the
# cluster invariants end to end with curl and gpsctl:
#
#   1. a spec submitted through any node lands on its ring owner (the
#      submit reply's node_id; the job ID is the spec hash) and the same spec
#      submitted through a second node coalesces onto the same job — the
#      engine runs once;
#   2. the finished report is byte-identical no matter which node serves it
#      (owner directly, the others by proxy);
#   3. SIGKILL of an owner mid-job is survivable: the surviving nodes keep
#      serving, the dead owner's jobs are taken over by its ring successor
#      under the IDs clients hold, a fresh spec re-routes to a live node, and
#      restarting the owner on its journal lands the successor's results
#      without running the jobs again.
#
# Needs only a POSIX shell and curl.
set -eu

workdir=$(mktemp -d)
bin="$workdir/gpsd"
ctl="$workdir/gpsctl"

# Fixed ports (the peer list must be known before any node starts). Derived
# from the PID to avoid collisions between concurrent checkouts.
p1=$((21000 + $$ % 10000))
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
go build -o "$ctl" ./cmd/gpsctl

# start_node <n> <port>: boot node n$n and wait for its listen line.
start_node() {
    n=$1 port=$2
    : >"$workdir/n$n.log"
    # Stealing is off so the exactly-once accounting below is attributable:
    # a stolen job legitimately counts one completion on the victim and one
    # execution on the thief, which would make the per-node deltas ambiguous.
    "$bin" -addr "127.0.0.1:$port" -node-id "n$n" -peers "$peers" \
        -workers 1 -queue 8 -journal "$workdir/n$n.journal" \
        -probe-interval 200ms -steal-interval -1s >"$workdir/n$n.log" 2>&1 &
    eval "pid$n=\$!"
    for _ in $(seq 1 50); do
        grep -q "listening on" "$workdir/n$n.log" && return 0
        eval "kill -0 \$pid$n" 2>/dev/null || break
        sleep 0.1
    done
    echo "cluster-smoke: node n$n failed to start:"
    cat "$workdir/n$n.log"
    exit 1
}

# field <name> <file>: the first "name": "value" string field of a JSON body.
field() {
    sed -n "s/.*\"$1\": \"\([^\"]*\)\".*/\1/p" "$2" | head -n 1
}

base_of() {
    case "$1" in
    n1) echo "http://127.0.0.1:$p1" ;;
    n2) echo "http://127.0.0.1:$p2" ;;
    n3) echo "http://127.0.0.1:$p3" ;;
    esac
}

# poll_done <base> <id>: wait until the job is terminal and assert done.
poll_done() {
    state=""
    for _ in $(seq 1 600); do
        curl -s "$1/v1/jobs/$2" >"$workdir/status" || true
        state=$(field state "$workdir/status")
        case "$state" in done | failed | canceled) break ;; esac
        sleep 0.1
    done
    [ "$state" = done ] || {
        echo "cluster-smoke: job $2 ended '$state' (via $1):"
        cat "$workdir/status"
        exit 1
    }
}

start_node 1 "$p1"
start_node 2 "$p2"
start_node 3 "$p3"
echo "cluster-smoke: 3 nodes up on ports $p1/$p2/$p3"

# Healthz must show cluster identity and (after the first probe sweep) all
# peers alive.
sleep 0.5
curl -s "$(base_of n1)/v1/healthz" >"$workdir/hz"
grep -q '"node_id": "n1"' "$workdir/hz" || { echo "cluster-smoke: healthz missing node_id:"; cat "$workdir/hz"; exit 1; }
grep -q '"role": "cluster"' "$workdir/hz" || { echo "cluster-smoke: healthz missing cluster role:"; cat "$workdir/hz"; exit 1; }
grep -q '"peers_alive": 2' "$workdir/hz" || { echo "cluster-smoke: expected 2 live peers:"; cat "$workdir/hz"; exit 1; }

# --- 1: ownership routing + cross-node coalescing -------------------------
specA='{"type":"matrix","iterations":2,"cells":[{"app":"jacobi","paradigm":"GPS","gpus":2,"fabric":"pcie4"}]}'
code=$(curl -s -o "$workdir/subA" -w '%{http_code}' -d "$specA" "$(base_of n1)/v1/jobs")
[ "$code" = 202 ] || { echo "cluster-smoke: submit A returned $code:"; cat "$workdir/subA"; exit 1; }
idA=$(field id "$workdir/subA")
ownerA=$(field node_id "$workdir/subA")
[ -n "$idA" ] && [ -n "$ownerA" ] || { echo "cluster-smoke: submit reply lacks id or node_id:"; cat "$workdir/subA"; exit 1; }
echo "cluster-smoke: spec A owned by $ownerA (job $idA, submitted via n1)"

# The same spec through a different node must land on the same job.
other=n2
[ "$ownerA" = n2 ] && other=n3
# 202 if it raced in before the owner started the job, 200 once coalesced
# or answered from cache — never a second execution.
code=$(curl -s -o "$workdir/subA2" -w '%{http_code}' -d "$specA" "$(base_of $other)/v1/jobs")
case "$code" in 200 | 202) ;; *) echo "cluster-smoke: re-submit A via $other returned $code"; cat "$workdir/subA2"; exit 1 ;; esac
grep -Eq '"outcome": "(coalesced|cached)"' "$workdir/subA2" || {
    echo "cluster-smoke: duplicate submit was not coalesced:"
    cat "$workdir/subA2"
    exit 1
}
idA2=$(field id "$workdir/subA2")
[ "$idA2" = "$idA" ] || {
    echo "cluster-smoke: duplicate submit got a different job ($idA2 != $idA)"
    exit 1
}
echo "cluster-smoke: duplicate submit via $other coalesced onto $idA"

# --- 2: byte-identical results from every node ----------------------------
poll_done "$(base_of n3)" "$idA" # poll via a proxy path on purpose
for n in n1 n2 n3; do
    code=$(curl -s -o "$workdir/resA.$n" -w '%{http_code}' "$(base_of $n)/v1/jobs/$idA/result")
    [ "$code" = 200 ] || { echo "cluster-smoke: result from $n returned $code"; exit 1; }
done
cmp -s "$workdir/resA.n1" "$workdir/resA.n2" || { echo "cluster-smoke: n1/n2 results differ"; exit 1; }
cmp -s "$workdir/resA.n1" "$workdir/resA.n3" || { echo "cluster-smoke: n1/n3 results differ"; exit 1; }
grep -q '"tables"' "$workdir/resA.n1" || { echo "cluster-smoke: result missing tables"; exit 1; }
echo "cluster-smoke: result for $idA byte-identical from all 3 nodes"

# The gpsctl CLI must see the same state through any node.
"$ctl" -addr "$(base_of n2)" status "$idA" >"$workdir/ctl.status"
grep -q '"state": "done"' "$workdir/ctl.status" || { echo "cluster-smoke: gpsctl status wrong:"; cat "$workdir/ctl.status"; exit 1; }

# --- 3: permanent kill mid-queue; successor takeover ----------------------
# Submit a batch of distinct specs, SIGKILL the owner of the first one, and
# never restart it. Every accepted job — the dead node's included — must
# reach done on a survivor, with byte-identical results from both survivors
# and no double execution (summed engine-run deltas match the batch size).

# done_count <node>: the node's completed-job counter from the Prometheus
# exposition (the engine-run proxy: every execution ends in exactly one
# done/failed/canceled transition, and this batch only ever completes).
done_count() {
    dc=$(curl -s "$(base_of "$1")/metrics" |
        sed -n 's/^gpsd_jobs_total{event="done"} \([0-9][0-9]*\).*/\1/p' | head -n 1)
    echo "${dc:-0}"
}

pre_n1=$(done_count n1) pre_n2=$(done_count n2) pre_n3=$(done_count n3)

ids=""
for i in 1 2 3 4 5; do
    specB="{\"type\":\"matrix\",\"iterations\":2,\"seed\":$i,\"cells\":[{\"app\":\"diffusion\",\"paradigm\":\"GPS\",\"gpus\":4,\"fabric\":\"nvswitch\"}]}"
    code=$(curl -s -o "$workdir/subB.$i" -w '%{http_code}' -d "$specB" "$(base_of n1)/v1/jobs")
    [ "$code" = 202 ] || { echo "cluster-smoke: submit B$i returned $code"; cat "$workdir/subB.$i"; exit 1; }
    ids="$ids $(field id "$workdir/subB.$i")"
done
victim=$(field node_id "$workdir/subB.1")
echo "cluster-smoke: batch accepted ($ids); killing $victim with SIGKILL, never to return"

eval "opid=\$pid$(echo "$victim" | tr -d n)"
kill -9 "$opid"
wait "$opid" 2>/dev/null || true
eval "pid$(echo "$victim" | tr -d n)=''"

surv1="" surv2=""
for n in n1 n2 n3; do
    [ "$n" = "$victim" ] && continue
    [ -z "$surv1" ] && surv1=$n || surv2=$n
done

# One dropped probe must not flap; the suspicion threshold (3 consecutive
# failures at 200ms probes) declares death within a couple of seconds.
deadline=$(($(date +%s) + 15))
while :; do
    curl -s "$(base_of $surv1)/v1/healthz" >"$workdir/hz1" || true
    grep -q '"peers_alive": 1' "$workdir/hz1" && break
    [ "$(date +%s)" -lt "$deadline" ] || {
        echo "cluster-smoke: $surv1 never declared $victim dead:"
        cat "$workdir/hz1"
        exit 1
    }
    sleep 0.2
done
echo "cluster-smoke: $surv1 declared $victim dead"

# Every accepted job finishes, the dead node's under the IDs their clients
# hold via takeover; their results read byte-identical through both
# survivors.
promoted=0
for i in 1 2 3 4 5; do
    id=$(field id "$workdir/subB.$i")
    poll_done "$(base_of $surv1)" "$id"
    if [ "$(field node_id "$workdir/subB.$i")" = "$victim" ]; then
        promoted=$((promoted + 1))
        grep -q "\"adopted_from\": \"$victim\"" "$workdir/status" || {
            echo "cluster-smoke: takeover job $id not marked adopted:"
            cat "$workdir/status"
            exit 1
        }
    fi
    for n in $surv1 $surv2; do
        code=$(curl -s -o "$workdir/res.$n" -w '%{http_code}' "$(base_of $n)/v1/jobs/$id/result")
        [ "$code" = 200 ] || { echo "cluster-smoke: result for $id from $n returned $code"; exit 1; }
    done
    cmp -s "$workdir/res.$surv1" "$workdir/res.$surv2" || {
        echo "cluster-smoke: $surv1/$surv2 results differ for $id"
        exit 1
    }
done
[ "$promoted" -ge 1 ] || { echo "cluster-smoke: no job was owned by the victim; batch too small"; exit 1; }
echo "cluster-smoke: all 5 jobs done; $promoted promoted from $victim, results byte-identical"

# No double execution: the survivors' completed-job deltas sum to exactly
# the batch size (the victim's partial run died with it).
eval "pre1=\$pre_$surv1" && eval "pre2=\$pre_$surv2"
d1=$(($(done_count $surv1) - pre1))
d2=$(($(done_count $surv2) - pre2))
[ $((d1 + d2)) -eq 5 ] || {
    echo "cluster-smoke: survivors completed $d1+$d2 jobs for a batch of 5 (double execution?)"
    exit 1
}

# The takeover shows up in the successor's metrics, and a fresh spec routed
# at the dead owner lands on a live node.
curl -s "$(base_of $surv1)/metrics" >"$workdir/m1"
curl -s "$(base_of $surv2)/metrics" >"$workdir/m2"
grep -h '^gpsd_cluster_takeover_jobs_total' "$workdir/m1" "$workdir/m2" | grep -qv ' 0$' || {
    echo "cluster-smoke: no survivor reports takeover jobs"
    exit 1
}
specC='{"type":"matrix","iterations":2,"seed":99,"cells":[{"app":"jacobi","paradigm":"GPS","gpus":2,"fabric":"pcie5"}]}'
code=$(curl -s -o "$workdir/subC" -w '%{http_code}' -d "$specC" "$(base_of $surv1)/v1/jobs")
[ "$code" = 202 ] || { echo "cluster-smoke: post-kill submit returned $code"; cat "$workdir/subC"; exit 1; }
idC=$(field id "$workdir/subC")
ownerC=$(field node_id "$workdir/subC")
[ -n "$ownerC" ] && [ "$ownerC" != "$victim" ] || { echo "cluster-smoke: fresh spec routed to '$ownerC', not a live node ($idC)"; exit 1; }
poll_done "$(base_of $surv2)" "$idC"
echo "cluster-smoke: post-kill submit re-routed to $ownerC and completed"

# The operator view agrees: gpsctl cluster on a survivor shows the death
# and the takeover counters.
"$ctl" -addr "$(base_of $surv1)" cluster >"$workdir/ctl.cluster"
grep -q "peers: 1/2 alive" "$workdir/ctl.cluster" || { echo "cluster-smoke: gpsctl cluster wrong peers:"; cat "$workdir/ctl.cluster"; exit 1; }
grep -q "takeovers:" "$workdir/ctl.cluster" || { echo "cluster-smoke: gpsctl cluster missing takeovers:"; cat "$workdir/ctl.cluster"; exit 1; }

# --- 4: resurrection — the victim returns and reconciles ------------------
# The permanent-kill checks are all settled; now bring the victim back on
# its journal. Its replayed jobs were taken over elsewhere, so each one's
# pre-execution peer lookup must land the successor's result without
# re-running anything: reads through the restarted node converge on the
# same bytes.
start_node "$(echo "$victim" | tr -d n)" "$(base_of "$victim" | sed 's/.*://')"
for i in 1 2 3 4 5; do
    [ "$(field node_id "$workdir/subB.$i")" = "$victim" ] || continue
    id=$(field id "$workdir/subB.$i")
    poll_done "$(base_of "$victim")" "$id"
    code=$(curl -s -o "$workdir/res.back" -w '%{http_code}' "$(base_of "$victim")/v1/jobs/$id/result")
    [ "$code" = 200 ] || { echo "cluster-smoke: resurrected $victim result for $id returned $code"; exit 1; }
    curl -s -o "$workdir/res.surv" "$(base_of $surv1)/v1/jobs/$id/result"
    cmp -s "$workdir/res.back" "$workdir/res.surv" || {
        echo "cluster-smoke: resurrected $victim disagrees with $surv1 on $id"
        exit 1
    }
done
echo "cluster-smoke: resurrected $victim reconciled its jobs against the successor"

echo "cluster-smoke: PASS"
