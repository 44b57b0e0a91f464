#!/usr/bin/env sh
# smoke.sh — the CI gate driver: one gate per run, every gate the same
# shape. A gate takes the machine-readable `<TAG>-RESULT key=value ...`
# line its harness test prints (or, for the bench gates, the median of a
# `go test -bench` capture), and checks each field against a fixed
# condition or a recorded baseline from scripts/baselines.txt
# (`gate.key=value`, re-recorded there — on the runner class CI uses — when
# a baseline legitimately moves, never loosened to make a PR pass).
#
# Usage: smoke.sh <gate> [capture]
#
#   bench, bench-tiered  capture (required) is `go test -bench` output; the
#                        median ns/op of BenchmarkDetectorObserve /
#                        …Tiered may exceed the baseline by at most 25%.
#   slo      TestSLOFlashCrowd (internal/serve): lost=0, dropped=0, p99 at
#            most 50% over the baseline — it includes real queueing under a
#            deliberate 3x overload; the service time is sleep-pinned.
#   cluster  TestClusterKillNodeSoak + TestClusterThroughput (cmd/aovlisr):
#            lost=0, every channel bit-equal after the kill, at least one
#            channel killed with segments in flight, seqgaps=0 (every wseq a
#            client sees is one more than its channel's previous), aggregate
#            throughput at
#            least 40% of the baseline — five processes timeshare the
#            runner's cores, so the floor catches collapses, not noise.
#   wal      TestWALCrashReplaySmoke (cmd/aovlisd): lost=0 across kill -9,
#            ledger=ok (audit passes, fails after a flipped byte, passes
#            again), acked at least the baseline floor.
#   live     TestLiveKillResumeSmoke (cmd/aovlisd): lost=0, bitequal=ok,
#            resumes>=1, presets>=3, segments at least the baseline floor.
#
# With a capture the gate judges that file instead of running its tests
# (scripts_test.go pins every condition that way, without spawning
# processes). BASELINES overrides the baseline file.
set -eu

GATE=${1:?usage: smoke.sh <gate> [capture]}
CAPTURE=${2:-}
BASELINES=${BASELINES:-scripts/baselines.txt}

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

die() {
    echo "smoke $GATE: $*" >&2
    exit 1
}

# baseline KEY prints the recorded value of $GATE.KEY.
baseline() {
    v=$(sed -n "s/^$GATE\.$1=\([0-9][0-9]*\)$/\1/p" "$BASELINES" | head -n1)
    [ -n "$v" ] || die "no baseline $GATE.$1 in $BASELINES"
    echo "$v"
}

# result TAG PKG TEST sets LINE to the capture's `TAG ...` line, running
# PKG's TEST first when there is no capture.
result() {
    out=$CAPTURE
    if [ -z "$out" ]; then
        out=$TMP
        if ! go test "$2" -run "$3\$" -count=1 -v -timeout 300s >"$out" 2>&1; then
            cat "$out"
            die "FAIL — $3 failed"
        fi
    fi
    LINE=$(sed -n "s/.*\($1 .*\)/\1/p" "$out" | head -n1)
    if [ -z "$LINE" ]; then
        cat "$out"
        die "no $1 line — test renamed or skipped?"
    fi
    echo "smoke $GATE: $LINE"
}

# field KEY prints KEY's value in LINE.
field() {
    v=$(printf '%s\n' "$LINE" | sed -n "s/.* $1=\([a-z0-9-]*\).*/\1/p")
    [ -n "$v" ] || die "result line is missing $1: $LINE"
    echo "$v"
}

# need KEY OP WANT WHY fails the gate with WHY unless LINE's KEY OP WANT
# holds; OP is a test(1) integer comparison (eq, ge, le, gt) or `is` for
# words.
need() {
    got=$(field "$1")
    case $2 in
    is) [ "$got" = "$3" ] ;;
    *) [ "$got" "-$2" "$3" ] ;;
    esac || die "FAIL — $4 ($1=$got, need $2 $3)"
}

case $GATE in
bench | bench-tiered)
    name=BenchmarkDetectorObserve
    [ "$GATE" = bench ] || name=BenchmarkDetectorObserveTiered
    [ -n "$CAPTURE" ] || die "usage: smoke.sh $GATE <go test -bench output>"
    base=$(baseline ns_per_op)
    # The name matches whole: BenchmarkDetectorObserve[-N], not its
    # …Tiered sibling (which scores exact+tiered).
    LINE=$(awk -v name="$name" '$1 == name || index($1, name "-") == 1 {print $3}' "$CAPTURE" | sort -n |
        awk '{v[NR]=$1} END {printf "BENCH-RESULT samples=%d median_ns=%d\n", NR, v[int((NR+1)/2)]}')
    echo "smoke $GATE: $name $LINE, baseline $base ns/op"
    need samples gt 0 "no $name samples in $CAPTURE — wrong benchmark or empty output"
    need median_ns le $((base * 125 / 100)) "$name regressed more than 25% over the baseline"
    ;;
slo)
    base=$(baseline p99_us)
    result SLO-RESULT ./internal/serve/ TestSLOFlashCrowd
    need lost eq 0 "accepted segments lost"
    need dropped eq 0 "accepted segments dropped"
    need p99_us le $((base * 150 / 100)) "p99 regressed more than 50% over the ${base}us baseline"
    ;;
cluster)
    base=$(baseline agg_segs_per_sec)
    result SOAK-RESULT ./cmd/aovlisr/ TestClusterKillNodeSoak
    need lost eq 0 "accepted segments lost across failover"
    need bitequal eq "$(field channels)" "not every channel replayed bit-equal; WAL failover replay must cover all of them"
    need killinflight gt 0 "no channel was killed with segments in flight; the soak proved nothing"
    need seqgaps eq 0 "a failed-over channel was not numbered on from its last relayed sequence"
    result CLUSTER-RESULT ./cmd/aovlisr/ TestClusterThroughput
    need lost eq 0 "accepted segments lost under load"
    need agg_segs_per_sec ge $((base * 40 / 100)) "aggregate throughput collapsed below 40% of the $base seg/s baseline"
    ;;
wal)
    floor=$(baseline min_acked)
    result WAL-RESULT ./cmd/aovlisd/ TestWALCrashReplaySmoke
    need lost eq 0 "acknowledged segments lost across kill -9"
    need ledger is ok "verdict ledger audit did not pass"
    need acked ge "$floor" "too few segments acknowledged; the drill proved too little"
    ;;
live)
    floor=$(baseline min_segments)
    result LIVE-RESULT ./cmd/aovlisd/ TestLiveKillResumeSmoke
    need lost eq 0 "accepted segments lost across kill -9 + reconnect"
    need bitequal is ok "live decisions diverged from batch replay"
    need resumes ge 1 "no Last-Seq resume exercised"
    need presets ge 3 "not all 3 adversarial presets streamed"
    need segments ge "$floor" "too few segments streamed; the drill proved too little"
    ;;
*)
    die "unknown gate (bench, bench-tiered, slo, cluster, wal, live)"
    ;;
esac
echo "smoke $GATE: OK"
