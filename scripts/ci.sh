#!/usr/bin/env bash
# Tier-1 gate plus lints. Run from the repository root:
#
#   scripts/ci.sh            # full gate
#   scripts/ci.sh --bless    # regenerate tests/golden/ schema snapshots,
#                            # the pinned `exp_all` stdout (quick and full),
#                            # the quick capture digests and the perfbench
#                            # seed-1 digests
#
# Mirrors what the roadmap calls the tier-1 command (`cargo build
# --release && cargo test -q`) and adds deny-warnings clippy, rustfmt,
# and rustdoc passes over every target. The workspace is
# dependency-free, so everything works offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# The last two stdout lines of a traced perfbench smoke run of workload $1
# at its default seed (1): the run context, then the result object.
perfbench_smoke() {
    perfbench/target/release/perfbench --workload "$1" --smoke --trace 1 2> /dev/null | tail -n 2
}
DIGESTS=scripts/sim_digests.txt

# `cksum` lines (CRC, size, name) of the quick e01 trace, metrics and
# profile captures, written under target/quick_capture/.
quick_capture_digests() {
    mkdir -p target/quick_capture
    ./target/release/exp_all --scale quick --trace target/quick_capture/trace.json \
        --metrics target/quick_capture/metrics.json \
        --profile target/quick_capture/profile.json e01 > /dev/null 2>&1
    (cd target/quick_capture && cksum trace.json metrics.json profile.json)
}
CAPTURES=scripts/capture_digests.txt

if [[ "${1:-}" == "--bless" ]]; then
    echo "== bless golden schemas (tests/golden/) =="
    ECOSCALE_BLESS=1 cargo test -q --test golden
    echo "== bless exp_all quick stdout (crates/bench/tests/golden/) =="
    ECOSCALE_BLESS=1 cargo test -q -p ecoscale-bench --test exp_all_golden
    echo "== bless exp_all full stdout (crates/bench/tests/golden/) =="
    cargo build --release -q -p ecoscale-bench --bin exp_all
    ./target/release/exp_all > crates/bench/tests/golden/exp_all_full.txt
    echo "== bless quick capture digests ($CAPTURES) =="
    quick_capture_digests > "$CAPTURES"
    echo "== bless perfbench seed-1 digests ($DIGESTS) =="
    cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
    for workload in serve_saturated check_sweep des_cluster; do
        digest=$(perfbench_smoke "$workload" | grep -o '"sim_digest":"[0-9a-f]*"' | cut -d'"' -f4)
        echo "$workload $digest"
    done > "$DIGESTS"
    git --no-pager diff --stat -- tests/golden/ crates/bench/tests/golden/ "$DIGESTS" \
        "$CAPTURES" || true
    exit 0
fi

echo "== rustfmt =="
cargo fmt --check

echo "== env reads stay in binaries =="
# Library code takes its settings as values (a RunCtx); only binaries
# (src/bin/) and test code read the environment. Test code is whatever
# follows a file's first #[cfg(test)].
env_reads=$(awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
    !t && /env::var/ { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs' -not -path '*/bin/*'))
if [[ -n "$env_reads" ]]; then
    echo "$env_reads"
    echo "error: env::var in library code; read it in a binary and pass the value down"
    exit 1
fi

echo "== one codec per snapshotted type =="
# Each type lists its snapshot fields once, in one Persist::persist body
# (sim::snap) that both saves and loads. Hand-paired save/load halves
# are what it replaced; test code (as above) may still name them.
halves=$(awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
    !t && /fn (snapshot|restore)_state|impl.*[ :](Snapshot|Restore) for / {
        print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs'))
if [[ -n "$halves" ]]; then
    echo "$halves"
    echo "error: paired snapshot/restore halves; write one Persist::persist body instead"
    exit 1
fi

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== tier-1: workspace tests (release) =="
# `cargo test -q` runs only the root package; this adds every crate's unit
# tests (the kernel interpreter, EcoscaleSystem::call, ...) and doctests.
cargo test -q --workspace --release

echo "== tier-1: cached predictor differential, wide (release) =="
# The device predictor's fit cache against fresh fits: tier-1 runs 64
# random histories, this #[ignore]d variant 640.
cargo test -q --release --test properties -- --ignored cached_predictor_matches_fresh_fits_wide

echo "== tier-1: floorplanner differential, wide (release) =="
# The prefix-sum floorplanner against the per-column scan it replaced:
# tier-1 runs 64 random fabrics and op streams, this #[ignore]d variant
# 640 with longer streams.
cargo test -q --release --test properties -- --ignored floorplanner_matches_scan_oracle_wide

echo "== tier-1: smoke fault campaign =="
# Small seeded FaultPlane campaign through the resilience sweeps: must
# run clean, and a repeat must be byte-identical (campaign determinism).
FAULTS="seed=3,crash=1ms,seu=400us,scrub=800us"
./target/release/exp_all --scale quick --faults "$FAULTS" e16 e16b \
    > target/fault_smoke_a.txt
./target/release/exp_all --scale quick --faults "$FAULTS" e16 e16b \
    > target/fault_smoke_b.txt
cmp target/fault_smoke_a.txt target/fault_smoke_b.txt

echo "== tier-1: snapshot round-trip smoke (SnapPlane) =="
# Checkpoint a serving run mid-horizon, resume it, and require stdout and
# the serving JSON export to be byte-identical to the uninterrupted run.
# A corrupted snapshot must be refused with exit 2.
SERVE="seed=11,tenants=3,rate=150000,horizon=300us,batch=4"
./target/release/exp_all --scale quick --serve "$SERVE" \
    --serve-out target/snap_smoke_full.json e01 > target/snap_smoke_full.txt
./target/release/exp_all --scale quick --serve "$SERVE" \
    --snapshot-at 120us --snapshot-out target/snap_smoke.snap e01 \
    > /dev/null
./target/release/exp_all --scale quick --serve "$SERVE" \
    --resume target/snap_smoke.snap \
    --serve-out target/snap_smoke_resumed.json e01 > target/snap_smoke_resumed.txt
cmp target/snap_smoke_full.txt target/snap_smoke_resumed.txt
cmp target/snap_smoke_full.json target/snap_smoke_resumed.json
# The resuming run, not the stream, says how a resumed system self-checks:
# the unarmed snapshot must be refused under ECOSCALE_CHECK=1.
status=0
ECOSCALE_CHECK=1 ./target/release/exp_all --scale quick --serve "$SERVE" \
    --resume target/snap_smoke.snap e01 > /dev/null 2> target/snap_smoke_armed_err.txt \
    || status=$?
if [[ $status -ne 2 ]]; then
    echo "ci.sh: an unarmed snapshot resumed armed exited $status, want 2" >&2
    exit 1
fi
grep -q "refusing snapshot" target/snap_smoke_armed_err.txt
truncate -s -1 target/snap_smoke.snap
if ./target/release/exp_all --scale quick --serve "$SERVE" \
    --resume target/snap_smoke.snap e01 > /dev/null 2> target/snap_smoke_err.txt
then
    echo "ci.sh: corrupted snapshot was not refused" >&2
    exit 1
fi
grep -q "refusing snapshot" target/snap_smoke_err.txt

echo "== tier-1: flight-recorder trigger smoke (TelePlane) =="
# An unmeetable 1us deadline forces a windowed-p99 SLO breach, so the
# flight recorder must fire and the evidence bundle (flight.json +
# pre-trigger snapshot.bin) must land in the dump directory and parse.
BREACH="seed=21,tenants=4,rate=100000,horizon=500us,batch=4,deadline=1us"
rm -rf target/flight_smoke
./target/release/exp_all --scale quick --serve "$BREACH" \
    --telemetry target/telem_smoke.json \
    --flight-dump target/flight_smoke e01 > target/telem_smoke.txt \
    2> target/telem_smoke_err.txt
grep -q "wrote flight dump" target/telem_smoke_err.txt
test -s target/flight_smoke/flight.json
test -s target/flight_smoke/snapshot.bin
grep -q '"slo_breach"' target/flight_smoke/flight.json
grep -q '"windows"' target/telem_smoke.json
# telemetry capture must be deterministic: a repeat is byte-identical
./target/release/exp_all --scale quick --serve "$BREACH" \
    --telemetry target/telem_smoke_b.json e01 > /dev/null 2>&1
cmp target/telem_smoke.json target/telem_smoke_b.json
# the pre-trigger snapshot is telemetry-armed: resuming it must reproduce
# the uninterrupted capture and stdout byte-for-byte
./target/release/exp_all --scale quick --serve "$BREACH" \
    --resume target/flight_smoke/snapshot.bin \
    --telemetry target/telem_smoke_resumed.json e01 > target/telem_smoke_resumed.txt
cmp target/telem_smoke.json target/telem_smoke_resumed.json
cmp target/telem_smoke.txt target/telem_smoke_resumed.txt

echo "== tier-1: seeded fuzz smoke (CheckPlane) =="
# 1536 seeded configs across topology x policy x faults x threads x shards,
# every invariant armed, exports compared byte-for-byte at THREADS=1 vs k
# and (for the cluster-partitioned sim) at 1 shard vs k shards.
./target/release/fuzz_configs --count 1536

echo "== tier-1: determinism suite (invariants armed) =="
# The suite compares 1 vs 4 shards and 1 vs N threads itself, passing
# the counts as values, so one armed pass covers both settings.
ECOSCALE_CHECK=1 cargo test -q --test determinism

echo "== tier-1: run-context smoke (binary level) =="
# Binaries are the only readers of ECOSCALE_SHARDS/ECOSCALE_THREADS: a
# quick exp_all run with every capture armed must print and write the
# same bytes at 1 vs 4 shards and at 1 vs 4 threads.
CTX_SERVE="seed=11,tenants=3,rate=150000,horizon=300us,batch=4"
for run in SHARDS=1 SHARDS=4 THREADS=1 THREADS=4; do
    d="target/ctx_smoke/$run"
    mkdir -p "$d"
    env "ECOSCALE_$run" ./target/release/exp_all --scale quick \
        --profile "$d/profile.json" --telemetry "$d/telemetry.json" \
        --trace "$d/trace.json" --metrics "$d/metrics.json" \
        --serve "$CTX_SERVE" --serve-out "$d/serve.json" e01 \
        > "$d/stdout.txt" 2> /dev/null
done
for f in stdout.txt profile.json telemetry.json trace.json metrics.json serve.json; do
    cmp "target/ctx_smoke/SHARDS=1/$f" "target/ctx_smoke/SHARDS=4/$f"
    cmp "target/ctx_smoke/THREADS=1/$f" "target/ctx_smoke/THREADS=4/$f"
done

echo "== tier-1: quick capture bytes (pinned) =="
# The steps above compare captures only across shard and thread counts
# and against schemas, so a renamed span or a reordered link would pass
# them. The quick e01 trace, metrics and profile must also reproduce the
# committed digests ($CAPTURES; rewrite them with --bless after an
# intentional change).
if ! quick_capture_digests | diff "$CAPTURES" -; then
    echo "ci.sh: quick capture digests differ from $CAPTURES" >&2
    exit 1
fi

echo "== tier-1: parallel DES bench smoke =="
# Reduced workload; asserts 1-vs-N-shard byte identity and validates the
# BENCH_parallel_des.json schema by re-parsing what it wrote.
./target/release/bench_parallel_des --smoke --out target/bench_parallel_des_smoke.json

echo "== tier-1: serving bench smoke (bench_serve) =="
# Reduced serving workload: batching on/off/faulted lanes; the binary
# itself asserts conservation, zero lost requests under faults, the
# strict batching goodput win, and bounded p99 degradation.
./target/release/bench_serve --quick --out target/bench_serve_smoke.json

echo "== tier-1: perf-regression gate (bench_regress) =="
# Fresh full-config run vs the committed baseline. Deterministic fields
# (events, rounds, critical-path speedup bounds) must reproduce the
# baseline exactly; wall-clock fields get a ratio tolerance. The default
# 3x (documented in crates/bench/src/regress.rs) is widened to 8x here:
# CI hosts vary and share cores, and the gate exists to catch
# order-of-magnitude regressions, not scheduler noise.
./target/release/bench_parallel_des --out target/bench_parallel_des_fresh.json
./target/release/bench_regress --tolerance 8 \
    BENCH_parallel_des.json target/bench_parallel_des_fresh.json
# The serving artifact is fully deterministic (no wall-clock fields), so
# the same gate compares it exactly against the committed baseline.
./target/release/bench_serve --out target/bench_serve_fresh.json
./target/release/bench_regress --tolerance 8 \
    BENCH_serve.json target/bench_serve_fresh.json

echo "== full experiment stdout (pinned) =="
# Every experiment at full scale must print exactly the committed golden
# (crates/bench/tests/golden/exp_all_full.txt; rewrite it with --bless
# after an intentional change), at the default thread count and at one.
FULL_GOLDEN=crates/bench/tests/golden/exp_all_full.txt
./target/release/exp_all > target/bench_output_tables.txt
cmp "$FULL_GOLDEN" target/bench_output_tables.txt
ECOSCALE_THREADS=1 ./target/release/exp_all > target/bench_output_tables_t1.txt
cmp "$FULL_GOLDEN" target/bench_output_tables_t1.txt

echo "== perfbench smoke: seed-1 digests (pinned) =="
# Each benchmark workload's traced smoke run must pass its output checks
# and every trace self-check, and reproduce the committed digest of its
# exports ($DIGESTS; rewrite it with --bless after an intentional change).
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
while read -r workload digest; do
    out=$(perfbench_smoke "$workload")
    for want in "\"sim_digest\":\"$digest\"" '"correct":true' \
        '"trace.self_check_failures":{"value":0,'; do
        if [[ "$out" != *"$want"* ]]; then
            echo "ci.sh: perfbench $workload: no $want in:" >&2
            echo "$out" >&2
            exit 1
        fi
    done
done < "$DIGESTS"

echo "== workspace tests =="
cargo test --workspace -q

echo "== workspace tests (invariants armed) =="
# One full pass with every layer's CheckPlane hooks firing at cadence 1.
ECOSCALE_CHECK=1 cargo test --workspace -q

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "ci.sh: all green"
