#!/bin/sh
# Repository CI: tier-1 verification plus lints. Fails on the first error.
#
#   ./ci.sh
#
# Tier-1 (the gate every change must keep green, see ROADMAP.md):
#   cargo build --release && cargo test -q
# plus the other workspace members' tests and clippy with warnings denied.
set -eu
cd "$(dirname "$0")"

# A limit stop without --dump-file writes its post-mortem dump into the
# working directory. No step may do that; the last step checks.
dump_stamp() {
    ls -l --time-style=full-iso tango-postmortem.tangodump \
        crates/tango-cli/tango-postmortem.tangodump 2>/dev/null || true
}
DUMPS_BEFORE=$(dump_stamp)

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
# Every root-package suite runs here, once: among them the crash
# recovery, checkpoint codec, flight recorder and MDFS worker-matrix
# suites the smokes below build on, and the VM vs tree-walker
# differential suites (compiled_exec, differential_exec). The bytecode
# VM is the executor and the tree-walking interpreter its oracle; those
# suites check fireable sets, verdicts, counters, telemetry streams and
# profiler attribution across both, on the bench protocols and on
# seeded random specifications.
cargo test -q

echo "== workspace tests =="
# The root package's suites ran in the tier-1 step above; this step runs
# every other member's, tango-cli's crash_recovery and black_box among
# them.
cargo test -q --workspace --exclude tango-repro

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Crash recovery (SIGKILL + resume): tango-cli's crash_recovery suite,
# run in the workspace step, kills -9 the CLI mid-analysis, resumes from
# the atomic autosave, and requires the exact verdict and TE/GE/RE/SA
# totals of an uninterrupted run; the library-level disk-resume and
# corruption-matrix suites (crash_recovery, checkpoint_codec) ran in the
# tier-1 step.

echo "== checkpoint-info round-trip smoke =="
# Stop a real analysis on a transition limit, autosave the checkpoint,
# verify the file with checkpoint-info, and resume it to the same verdict
# an unlimited run produces.
CKPT_DIR=$(mktemp -d)
trap 'rm -rf "$CKPT_DIR"' EXIT
printf 'in U.tconreq\nin L.cc_ind\nin U.tdatreq(0)\nin U.tdatreq(1)\nin U.tdatreq(2)\nin U.tdisreq\n' \
    > "$CKPT_DIR/script.txt"
cargo run -q --release -p tango-cli -- generate specs/tp0.est "$CKPT_DIR/script.txt" \
    > "$CKPT_DIR/trace.txt"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --max-transitions 5 --checkpoint-file "$CKPT_DIR/run.ckpt" --dump-file "$CKPT_DIR/run.tangodump" \
    && { echo "expected an inconclusive (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
cargo run -q --release -p tango-cli -- checkpoint-info "$CKPT_DIR/run.ckpt" \
    > "$CKPT_DIR/run-info.txt"
grep -q "format version: 8" "$CKPT_DIR/run-info.txt"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est --resume "$CKPT_DIR/run.ckpt"
# The same round trip through the memory budget, the CLI's one memory
# limit: a snapshot-memory stop (exit 2), then a resume without the
# budget, which must print the unlimited run's verdict and counters.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    > "$CKPT_DIR/unlimited.txt"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --max-mem 200 --checkpoint-file "$CKPT_DIR/mem.ckpt" \
    --dump-file "$CKPT_DIR/mem.tangodump" > "$CKPT_DIR/mem-stop.txt" \
    && { echo "expected an inconclusive (exit 2) memory stop"; exit 1; } || [ "$?" -eq 2 ]
grep -q "inconclusive (MemoryLimit)" "$CKPT_DIR/mem-stop.txt"
cargo run -q --release -p tango-cli -- analyze specs/tp0.est --resume "$CKPT_DIR/mem.ckpt" \
    > "$CKPT_DIR/mem-resumed.txt"
verdict_and_counters() {
    sed -n 's/.*verdict: \([a-z]*\).*\(TE=[0-9]* GE=[0-9]* RE=[0-9]* SA=[0-9]*\).*/\1 \2/p' "$1"
}
[ -n "$(verdict_and_counters "$CKPT_DIR/unlimited.txt")" ]
[ "$(verdict_and_counters "$CKPT_DIR/unlimited.txt")" = "$(verdict_and_counters "$CKPT_DIR/mem-resumed.txt")" ]

echo "== telemetry smoke (trace/metrics/progress) =="
# Run a short analysis with the full telemetry surface on: the JSONL
# event stream and the metrics document must both validate with the
# dependency-free checker, and the live reporter must print at least the
# forced final heartbeat on stderr.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --trace-out "$CKPT_DIR/events.jsonl" --metrics-out "$CKPT_DIR/metrics.json" \
    --progress 1 2> "$CKPT_DIR/progress.txt"
cargo run -q --release -p bench --bin json_check -- --jsonl "$CKPT_DIR/events.jsonl"
cargo run -q --release -p bench --bin json_check -- "$CKPT_DIR/metrics.json"
grep -q "progress: TE=" "$CKPT_DIR/progress.txt"
grep -q '"ev":"verdict"' "$CKPT_DIR/events.jsonl"
grep -q '"schema": "tango-metrics"' "$CKPT_DIR/metrics.json"
# At two workers the stream must still be an exact account of the
# counters: one fire event per transition executed, whichever worker ran
# it and whether or not a burst was redone by one worker.
printf 'in U.dl_est_req\nin L.ua\nin U.dl_data_req(0)\nin U.dl_data_req(1)\nin U.dl_data_req(2)\n' \
    > "$CKPT_DIR/lapd-tel-script.txt"
cargo run -q --release -p tango-cli -- generate specs/lapd.est "$CKPT_DIR/lapd-tel-script.txt" \
    > "$CKPT_DIR/lapd-tel-trace.txt"
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-tel-trace.txt" \
    --workers 2 --trace-out "$CKPT_DIR/events-w2.jsonl" > "$CKPT_DIR/online-trace-w2.txt"
cargo run -q --release -p bench --bin json_check -- --jsonl "$CKPT_DIR/events-w2.jsonl"
TE_W2=$(sed -n 's/^verdict:.* TE=\([0-9]*\) .*/\1/p' "$CKPT_DIR/online-trace-w2.txt")
[ -n "$TE_W2" ]
[ "$(grep -c '"ev":"fire"' "$CKPT_DIR/events-w2.jsonl")" = "$TE_W2" ]
# And the same trace at one worker must print the same verdict and
# TE/GE/RE/SA.
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-tel-trace.txt" \
    --workers 1 > "$CKPT_DIR/online-trace-w1.txt"
[ -n "$(verdict_and_counters "$CKPT_DIR/online-trace-w1.txt")" ]
[ "$(verdict_and_counters "$CKPT_DIR/online-trace-w1.txt")" = "$(verdict_and_counters "$CKPT_DIR/online-trace-w2.txt")" ]

echo "== chaos smoke (seeded fault plans) =="
# The seeded chaos matrix (108 composed plans over 12 random specs, both
# fault sites) and the combined-sites pin run with the tier-1
# suite above; here the CLI surface gets its fixed-seed reproduction
# check: the same --chaos-seed replays the identical verdict and
# TE/GE/RE/SA, and the run echoes its full plan for log-line replay.
chaos_run() {
    cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
        --chaos-seed 5 --dump-file "$CKPT_DIR/chaos.tangodump" > "$1" 2> "$2" || [ "$?" -le 2 ]
}
chaos_run "$CKPT_DIR/chaos-a.txt" "$CKPT_DIR/chaos-a.err"
chaos_run "$CKPT_DIR/chaos-b.txt" "$CKPT_DIR/chaos-b.err"
grep -q "chaos: plan=" "$CKPT_DIR/chaos-a.err"
[ -n "$(verdict_and_counters "$CKPT_DIR/chaos-a.txt")" ]
[ "$(verdict_and_counters "$CKPT_DIR/chaos-a.txt")" = "$(verdict_and_counters "$CKPT_DIR/chaos-b.txt")" ]

echo "== zero-cost-when-off gate =="
# Unarmed fault hooks must be invisible: an explicitly empty
# --fault-plan takes the exact same code path as a plain run and must
# produce the identical verdict and counters, and export no fault.*
# metrics series (clean runs keep their byte-identical telemetry
# shape).
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --fault-plan "" --metrics-out "$CKPT_DIR/unarmed-metrics.json" > "$CKPT_DIR/unarmed.txt" \
    2> "$CKPT_DIR/unarmed.err"
[ "$(verdict_and_counters "$CKPT_DIR/unlimited.txt")" = "$(verdict_and_counters "$CKPT_DIR/unarmed.txt")" ]
if grep -q '"fault\.' "$CKPT_DIR/unarmed-metrics.json"; then
    echo "unarmed run exported fault.* metrics"; exit 1
fi
grep -q "chaos: plan=unarmed" "$CKPT_DIR/unarmed.err"

echo "== black box smoke (flight recorder / dump / dump-info) =="
# Any non-completed outcome writes a versioned post-mortem dump. The
# dump must verify and render both ways, with the JSONL form validating
# under the dependency-free checker. The library suite (flight_recorder)
# ran in the tier-1 step and the CLI suite (tango-cli's black_box) in the
# workspace step.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --max-transitions 5 --dump-file "$CKPT_DIR/pm.tangodump" 2> "$CKPT_DIR/dump.err" \
    && { echo "expected an inconclusive (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
grep -q "post-mortem dump written" "$CKPT_DIR/dump.err"
cargo run -q --release -p tango-cli -- dump-info "$CKPT_DIR/pm.tangodump" \
    > "$CKPT_DIR/dump.txt"
grep -q "flight recorder:" "$CKPT_DIR/dump.txt"
cargo run -q --release -p tango-cli -- dump-info --jsonl "$CKPT_DIR/pm.tangodump" \
    > "$CKPT_DIR/dump.jsonl"
cargo run -q --release -p bench --bin json_check -- --jsonl "$CKPT_DIR/dump.jsonl"
grep -q '"schema":"tango-dump"' "$CKPT_DIR/dump.jsonl"

echo "== black box zero-cost gate (--flight-recorder off) =="
# Turning the recorder off must change nothing but the dump: identical
# verdict and TE/GE/RE/SA to the plain unlimited run, and no dump file
# ever appears.
cargo run -q --release -p tango-cli -- analyze specs/tp0.est "$CKPT_DIR/trace.txt" \
    --flight-recorder=off --dump-file "$CKPT_DIR/off.tangodump" > "$CKPT_DIR/rec-off.txt"
[ "$(verdict_and_counters "$CKPT_DIR/unlimited.txt")" = "$(verdict_and_counters "$CKPT_DIR/rec-off.txt")" ]
[ ! -f "$CKPT_DIR/off.tangodump" ]

echo "== live introspection smoke (--listen + http-get) =="
# Follow a trace that never reaches its eof marker with a wall-clock
# limit and a live endpoint: fetch /status and /metrics mid-run with the
# shipped curl substitute and validate both documents; the TimeLimit
# stop must leave a verifiable post-mortem dump behind.
head -n 3 "$CKPT_DIR/trace.txt" > "$CKPT_DIR/partial.txt"
cargo run -q --release -p tango-cli -- online specs/tp0.est "$CKPT_DIR/partial.txt" \
    --max-seconds 10 --listen 127.0.0.1:0 --dump-file "$CKPT_DIR/online.tangodump" \
    > "$CKPT_DIR/online.txt" 2> "$CKPT_DIR/online.err" &
LISTEN_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's#^introspect: listening on http://\(.*\)/$#\1#p' "$CKPT_DIR/online.err")
    if [ -n "$ADDR" ]; then break; fi
    sleep 0.2
done
[ -n "$ADDR" ]
cargo run -q --release -p tango-cli -- http-get "$ADDR/status" > "$CKPT_DIR/status.json"
cargo run -q --release -p bench --bin json_check -- "$CKPT_DIR/status.json"
grep -q '"schema":"tango-status"' "$CKPT_DIR/status.json"
cargo run -q --release -p tango-cli -- http-get "$ADDR/metrics" > "$CKPT_DIR/live-metrics.json"
cargo run -q --release -p bench --bin json_check -- "$CKPT_DIR/live-metrics.json"
grep -q '"schema":"tango-metrics"' "$CKPT_DIR/live-metrics.json"
wait "$LISTEN_PID" && { echo "expected a TimeLimit (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
grep -q "post-mortem dump written" "$CKPT_DIR/online.err"
cargo run -q --release -p tango-cli -- dump-info "$CKPT_DIR/online.tangodump" > /dev/null

echo "== multi-core MDFS smoke (work-stealing online search) =="
# The same on-line analysis at 1 and 4 workers must print the identical
# verdict/counter line on the heavyweight LAPD spec — the work-stealing
# schedule may never leak into the verdict or TE/GE/RE/SA. Then a
# 4-worker run stopped on a transition limit after eof must checkpoint a
# worker-split front that checkpoint-info can describe and that resumes
# at a different worker count, and through `analyze --resume`, to the
# uninterrupted totals; the library
# suite's full worker matrix (tests/mdfs_parallel.rs) ran in the tier-1
# step. Each step echoes its name, so a one-off failure names the step
# that failed.
mdfs_step() { echo "-- mdfs smoke: $1"; }
mdfs_step "generate the LAPD trace"
printf 'in U.dl_est_req\nin L.ua\nin U.dl_data_req(0)\nin U.dl_data_req(1)\nin U.dl_data_req(2)\n' \
    > "$CKPT_DIR/lapd-script.txt"
cargo run -q --release -p tango-cli -- generate specs/lapd.est "$CKPT_DIR/lapd-script.txt" \
    > "$CKPT_DIR/lapd-trace.txt"
mdfs_step "online at 1 worker"
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-trace.txt" \
    --workers 1 > "$CKPT_DIR/online-w1.txt"
mdfs_step "online at 4 workers"
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-trace.txt" \
    --workers 4 > "$CKPT_DIR/online-w4.txt"
mdfs_step "1-worker and 4-worker verdict/counter lines match"
[ -n "$(verdict_and_counters "$CKPT_DIR/online-w1.txt")" ]
[ "$(verdict_and_counters "$CKPT_DIR/online-w1.txt")" = "$(verdict_and_counters "$CKPT_DIR/online-w4.txt")" ]
mdfs_step "4-worker transition-limit stop writes a checkpoint (exit 2)"
cargo run -q --release -p tango-cli -- online specs/lapd.est "$CKPT_DIR/lapd-trace.txt" \
    --workers 4 --max-transitions 5 --checkpoint-file "$CKPT_DIR/online.ckpt" \
    --dump-file "$CKPT_DIR/online-limit.tangodump" \
    && { echo "expected an inconclusive (exit 2) stop"; exit 1; } || [ "$?" -eq 2 ]
mdfs_step "checkpoint-info describes the 4-worker front"
cargo run -q --release -p tango-cli -- checkpoint-info "$CKPT_DIR/online.ckpt" \
    > "$CKPT_DIR/online-info.txt"
grep -q "mode: mdfs" "$CKPT_DIR/online-info.txt"
grep -q "workers at save: 4" "$CKPT_DIR/online-info.txt"
grep -q "front: [0-9]* deque node(s), [0-9]* parked node(s)" "$CKPT_DIR/online-info.txt"
mdfs_step "resume at 2 workers matches the uninterrupted totals"
cargo run -q --release -p tango-cli -- online specs/lapd.est --resume "$CKPT_DIR/online.ckpt" \
    --workers 2 > "$CKPT_DIR/online-resumed.txt"
[ "$(verdict_and_counters "$CKPT_DIR/online-w1.txt")" = "$(verdict_and_counters "$CKPT_DIR/online-resumed.txt")" ]
mdfs_step "analyze --resume continues the on-line checkpoint to the same totals"
cargo run -q --release -p tango-cli -- analyze specs/lapd.est --resume "$CKPT_DIR/online.ckpt" \
    > "$CKPT_DIR/online-resumed-by-analyze.txt"
[ "$(verdict_and_counters "$CKPT_DIR/online-w1.txt")" = "$(verdict_and_counters "$CKPT_DIR/online-resumed-by-analyze.txt")" ]

echo "== paper tables (release) =="
# bench's pin test compares every counter cell of EXPERIMENTS.md with
# what the experiments code computes. A release build also runs the
# searches of a million transitions or more (the NR 4+4 and 5+5
# ablation rows, heap_cost 4+4 and the on-line worker rows) that a debug
# build skips.
cargo test -q --release -p bench

echo "== benchmark self-tests and smoke =="
# The benchmark is a workspace of its own under perfbench/: run its unit
# tests, then the 2-second on-line workload at one worker and at two.
# Each checks every analysis against its known answer, and its counters
# against the other worker count's, and must report itself correct.
cargo test -q --release --manifest-path perfbench/Cargo.toml
for workload in online-tp0-w1 online-tp0-w2; do
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 > "$CKPT_DIR/perfbench.txt"
    grep -q '"correct": true' "$CKPT_DIR/perfbench.txt"
done

echo "== full-range any domain (release build) =="
# Release builds wrap integer overflow instead of panicking, so an `any`
# domain size computed in i64 turns the full range into an endless
# expansion that debug-mode tests cannot see. The release CLI must end
# it in the spanned sema diagnostic (exit 1) well within the time limit.
cat > "$CKPT_DIR/wide_any.est" <<'EOF'
specification wide;
module M process; end;
body MB for M;
    var n : integer;
    state S;
    initialize to S begin n := 0 end;
    trans
    from S to S any k : -9223372036854775807-1..9223372036854775807 do
        provided n = k name Wide: begin n := 1 end;
end;
end.
EOF
wide_status=0
timeout 10 target/release/tango check "$CKPT_DIR/wide_any.est" > "$CKPT_DIR/wide_any.txt" 2>&1 \
    || wide_status=$?
[ "$wide_status" -eq 1 ]
grep -q 'error (sema) at 8:21: `any` domain too large' "$CKPT_DIR/wide_any.txt"

echo "== no stray post-mortem dumps =="
if [ "$(dump_stamp)" != "$DUMPS_BEFORE" ]; then
    echo "a step wrote tango-postmortem.tangodump outside its temp dir:"
    dump_stamp
    exit 1
fi

echo "CI OK"
