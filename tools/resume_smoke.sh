#!/usr/bin/env bash
# resume_smoke.sh — kill -9 / resume check for `campaign_runner --state`.
#
# For a closure campaign and a diff campaign: run it once uninterrupted as
# the reference; start it again with --state FILE on one worker, SIGKILL it
# as soon as FILE exists (at least one unit saved, process still running),
# rerun it on two workers to resume, and `cmp` the verdict lines (and the
# closure cover.json) against the reference. A third run on the finished
# FILE must re-emit the same bytes, and a corrupted, truncated or foreign
# FILE must exit 2 and stay untouched.
#
# usage: resume_smoke.sh [BUILD_DIR]
set -euo pipefail

BUILD=${1:-build}
RUNNER="$BUILD/tools/campaign_runner"
[ -x "$RUNNER" ] || { echo "missing binary: $RUNNER" >&2; exit 1; }

WORK=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# outputs KIND TAG: the artifact flags for one run, written as $WORK/KIND.TAG.*
outputs() {
    echo --verdicts-out "$WORK/$1.$2.verdicts"
    [ "$1" = closure ] && echo --cover-out "$WORK/$1.$2.cover.json"
    return 0
}

same_artifacts() { # kind tag-a tag-b
    cmp "$WORK/$1.$2.verdicts" "$WORK/$1.$3.verdicts" \
        || fail "$1 verdicts differ ($2 vs $3)"
    if [ "$1" = closure ]; then
        cmp "$WORK/$1.$2.cover.json" "$WORK/$1.$3.cover.json" \
            || fail "$1 cover.json differs ($2 vs $3)"
    fi
}

expect_exit2() { # what state-file campaign-args...
    local what=$1 file=$2; shift 2
    cp "$file" "$file.before"
    local rc=0
    "$RUNNER" "$@" --quiet --state "$file" >"$WORK/reject.log" 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || fail "$what state file: exit $rc, want 2"
    cmp -s "$file" "$file.before" || fail "$what state file was modified"
    echo "OK: $what state file rejected: $(tail -n 1 "$WORK/reject.log")"
}

kill_resume_one() { # kind campaign-args...
    local kind=$1; shift
    local state="$WORK/$kind.state"

    echo "== $kind: uninterrupted reference =="
    # shellcheck disable=SC2046
    "$RUNNER" "$@" --jobs 2 --quiet $(outputs "$kind" ref) \
        >"$WORK/$kind.ref.log" 2>&1 \
        || { cat "$WORK/$kind.ref.log" >&2; fail "$kind reference run"; }

    echo "== $kind: kill -9 after the first saved unit =="
    "$RUNNER" "$@" --jobs 1 --quiet --state "$state" \
        >"$WORK/$kind.killed.log" 2>&1 &
    PID=$!
    for _ in $(seq 1 6000); do
        [ -f "$state" ] && break
        kill -0 "$PID" 2>/dev/null || fail "$kind finished before saving"
        sleep 0.01
    done
    [ -f "$state" ] || fail "$kind never saved its state"
    kill -0 "$PID" 2>/dev/null || fail "$kind finished before the kill"
    kill -9 "$PID"
    wait "$PID" 2>/dev/null || true
    PID=""

    echo "== $kind: resume on two workers =="
    # shellcheck disable=SC2046
    "$RUNNER" "$@" --jobs 2 --quiet --state "$state" $(outputs "$kind" res) \
        >"$WORK/$kind.res.log" 2>&1 \
        || { cat "$WORK/$kind.res.log" >&2; fail "$kind resumed run"; }
    local line
    line=$(grep '^resumed ' "$WORK/$kind.res.log") \
        || fail "$kind resumed run printed no 'resumed' line"
    echo "$line"
    local units_done units_total
    read -r units_done units_total < <(
        sed -E 's/.*: ([0-9]+) of ([0-9]+) units.*/\1 \2/' <<<"$line")
    [ "$units_done" -ge 1 ] && [ "$units_done" -lt "$units_total" ] \
        || fail "$kind kill did not land mid-run ($line)"
    same_artifacts "$kind" ref res
    echo "OK: $kind artifacts byte-identical after kill -9 resume"

    echo "== $kind: rerun on the finished state =="
    # shellcheck disable=SC2046
    "$RUNNER" "$@" --jobs 2 --quiet --state "$state" $(outputs "$kind" fin) \
        >"$WORK/$kind.fin.log" 2>&1 \
        || { cat "$WORK/$kind.fin.log" >&2; fail "$kind finished rerun"; }
    grep -q '^resumed .*(finished' "$WORK/$kind.fin.log" \
        || fail "$kind finished state was not recognised"
    same_artifacts "$kind" ref fin
    echo "OK: $kind finished state re-emits the same artifacts"

    local bad="$WORK/$kind.bad"
    cp "$state" "$bad"
    printf '\xff' | dd of="$bad" bs=1 seek=40 conv=notrunc status=none
    expect_exit2 "$kind corrupted" "$bad" "$@"
    head -c 20 "$state" >"$bad"
    expect_exit2 "$kind truncated" "$bad" "$@"
}

# Closure: 5 batches x 10 scenarios. target 101 keeps the loop from
# stopping on the coverage target, so the kill window stays wide.
CLOSURE=(--campaign closure --seed 11 --batches 5 --batch-size 10 --target 101)
DIFF=(--campaign diff --seed 3 --seeds 32)
kill_resume_one closure "${CLOSURE[@]}"
kill_resume_one diff "${DIFF[@]}"

# Each campaign's state must refuse the other one and a different seed.
expect_exit2 "foreign (closure seed 12)" "$WORK/closure.state" \
    --campaign closure --seed 12 --batches 5 --batch-size 10 --target 101
expect_exit2 "foreign (diff on closure)" "$WORK/closure.state" "${DIFF[@]}"
expect_exit2 "foreign (closure on diff)" "$WORK/diff.state" "${CLOSURE[@]}"

echo "resume smoke: all checks passed"
