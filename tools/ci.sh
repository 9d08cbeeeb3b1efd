#!/usr/bin/env sh
# CI entry point: build and test the release, asan-ubsan and tsan
# presets.
#
# The tier-1 command (cmake -B build -S . && cmake --build build &&
# ctest) is unchanged; this script is a superset used to shake out
# memory and UB errors in the persistence / fault-injection paths
# and data races in the exec/ scheduler and in src/obs/ (the tsan
# test preset runs the scheduler, parallel-campaign determinism,
# and observability suites under ThreadSanitizer).
#
# After the release preset passes, a 2-core smoke campaign archives
# sample observability artifacts (metrics.json and trace.json,
# docs/OBSERVABILITY.md) under build-release/obs-smoke/, and
# table3_sim_speed records the trace-store hot-path throughput
# (cells/sec at --jobs 1/8 plus the trace_store.* counter snapshot,
# docs/PERFORMANCE.md) to build-release/BENCH_trace_store.json;
# fig5_inverse_cv_population records the population-engine numbers
# (old-vs-streamed cells/sec and the 8-core streamed run, docs/
# PERFORMANCE.md "Population campaigns") to
# build-release/BENCH_population.json, and the batched-cell-engine
# sweep (docs/PERFORMANCE.md "Batched execution") to
# build-release/BENCH_batch.json, which doubles as a throughput
# floor check: batch=32 must not run slower than batch=1.
#
# Every sanitizer preset also runs a capped `wsel_cli population`
# smoke, exercising the streamed campaign_v3 writer, the batch
# runner's thread spread, and the one-pass statistics under
# asan/ubsan and tsan — twice at 80-cell shards, at
# --batch-cells 1 and --batch-cells 8, and twice more at the
# default (one-shard) size, --jobs 1
# --batch-cells 1 against --jobs 4, with a byte-compare of the
# shards (the sim/batch.hh identity contract under the sanitizer)
# — plus a
# `wsel_cli adaptive` smoke (sequential
# stopping rule with a resume pass, docs/SAMPLING.md), both
# adaptive and hybrid smokes running their cells through the
# batched engine; the release leg archives the adaptive-vs-fixed
# cell counts to build-release/BENCH_adaptive.json.
#
# The mixed-fidelity layer (docs/FIDELITY.md) gets a smoke on every
# sanitizer preset — calibrate, SIGKILL a hybrid campaign at the
# `fidelity.escalate` kill point, resume to a committed report,
# then byte-compare --jobs 1 against --jobs 4 at the default batch
# rows (one batch file whose cells spread over the threads) — and
# the release leg archives hybrid_fidelity's escalation-budget
# vs ranking-accuracy sweep to build-release/BENCH_hybrid.json.
#
# Usage: tools/ci.sh [preset ...]   (default: release asan-ubsan
#        tsan)

set -eu

cd "$(dirname "$0")/.."

presets="${*:-release asan-ubsan tsan}"

for preset in $presets; do
    echo "==> configure: $preset"
    cmake --preset "$preset"
    echo "==> build: $preset"
    cmake --build --preset "$preset" -j "$(nproc 2>/dev/null || echo 4)"
    echo "==> test: $preset"
    ctest --preset "$preset"

    case "$preset" in
      release)   bindir="build-release" ;;
      asan-ubsan) bindir="build-asan" ;;
      tsan)      bindir="build-tsan" ;;
      *)         bindir="build-$preset" ;;
    esac

    if [ "$preset" = "asan-ubsan" ] || [ "$preset" = "tsan" ]; then
        echo "==> population smoke: $preset"
        popdir="$bindir/population-smoke"
        rm -rf "$popdir"
        WSEL_CACHE_DIR="$popdir/cache" \
            "./$bindir/tools/wsel_cli" population \
            --out "$popdir/pop.v3" \
            --insns 5000 --limit 64 --shard-size 80 --jobs 4 \
            --batch-cells 1
        test -s "$popdir/pop.v3/manifest.bin"
        # Batched twin of the same campaign: the batched engine
        # (sim/batch.hh) must produce bitwise-identical shards under
        # the sanitizer too.
        WSEL_CACHE_DIR="$popdir/cache" \
            "./$bindir/tools/wsel_cli" population \
            --out "$popdir/pop-batched.v3" \
            --insns 5000 --limit 64 --shard-size 80 --jobs 4 \
            --batch-cells 8
        test -s "$popdir/pop-batched.v3/manifest.bin"
        for shard in "$popdir"/pop.v3/shard-*.bin; do
            cmp "$shard" "$popdir/pop-batched.v3/${shard##*/}"
        done
        # One-shard twin at the default shard size: the whole
        # campaign is a single shard, so the four threads work
        # inside it (the batch runner's thread spread, not the
        # shard loop) — same bytes as the serial engine.
        WSEL_CACHE_DIR="$popdir/cache" \
            "./$bindir/tools/wsel_cli" population \
            --out "$popdir/pop-one.v3" \
            --insns 5000 --limit 64 --jobs 1 --batch-cells 1
        WSEL_CACHE_DIR="$popdir/cache" \
            "./$bindir/tools/wsel_cli" population \
            --out "$popdir/pop-one-j4.v3" \
            --insns 5000 --limit 64 --jobs 4
        test -s "$popdir/pop-one-j4.v3/manifest.bin"
        test "$(ls "$popdir"/pop-one.v3/shard-*.bin | wc -l)" -eq 1
        cmp "$popdir/pop-one.v3/shard-000000.bin" \
            "$popdir/pop-one-j4.v3/shard-000000.bin"
        rm -rf "$popdir"
        echo "==> population smoke (serial + batched + one-shard threads) passed under $preset"

        # Adaptive sequential campaign smoke (docs/SAMPLING.md):
        # live stopping rule, batch artifacts and a resume of the
        # finished run, all under the sanitizer.
        echo "==> adaptive smoke: $preset"
        adadir="$bindir/adaptive-smoke"
        rm -rf "$adadir"
        WSEL_CACHE_DIR="$adadir/cache" \
            "./$bindir/tools/wsel_cli" adaptive \
            --out "$adadir/run" \
            --insns 5000 --cores 2 --batch 16 --budget 64 --jobs 4 \
            --batch-cells 8
        test -s "$adadir/run/adaptive.bin"
        WSEL_CACHE_DIR="$adadir/cache" \
            "./$bindir/tools/wsel_cli" adaptive \
            --out "$adadir/run" \
            --insns 5000 --cores 2 --batch 16 --budget 64 --jobs 4 \
            --batch-cells 8 --resume 1
        rm -rf "$adadir"
        echo "==> adaptive smoke passed under $preset"

        # Mixed-fidelity campaign smoke (docs/FIDELITY.md):
        # calibrate an error profile, start a hybrid campaign that
        # is SIGKILLed at the 3rd escalated detailed cell (after
        # the escalation set committed, mid detailed batch), then
        # resume it to a committed hybrid.bin report — all under
        # the sanitizer. Calibration's 16 detailed cells (8
        # workloads x 2 policies) pass the kill point first, so the
        # 3rd escalated cell is its 19th hit.
        echo "==> hybrid fidelity smoke: $preset"
        hybdir="$bindir/hybrid-smoke"
        rm -rf "$hybdir"
        if WSEL_CACHE_DIR="$hybdir/cache" \
            WSEL_KILL_POINT=fidelity.escalate:19 \
            "./$bindir/tools/wsel_cli" hybrid \
            --out "$hybdir/run" \
            --insns 5000 --cores 2 --limit 24 --calibrate 8 \
            --budget-frac 0.25 --batch-rows 2 --jobs 4 \
            --batch-cells 8; then
            echo "hybrid smoke: kill point never fired" >&2
            exit 1
        fi
        test -s "$hybdir/run/fidelity-bitmap.bin"
        test ! -e "$hybdir/run/hybrid.bin"
        WSEL_CACHE_DIR="$hybdir/cache" \
            "./$bindir/tools/wsel_cli" hybrid \
            --out "$hybdir/run" \
            --insns 5000 --cores 2 --limit 24 --calibrate 8 \
            --budget-frac 0.25 --batch-rows 2 --jobs 4 \
            --batch-cells 8
        test -s "$hybdir/run/hybrid.bin"
        # Default batch rows: one batch file holds every escalated
        # row and its cells spread over the jobs; --jobs 1 and
        # --jobs 4 must commit the same bytes.  Each run reads its
        # own copy of one frozen profile (a run updates its profile
        # online).
        for jobs in 1 4; do
            cp "$hybdir/cache/error_profile.bin" \
                "$hybdir/profile-j$jobs.bin"
            WSEL_CACHE_DIR="$hybdir/cache" \
                "./$bindir/tools/wsel_cli" hybrid \
                --out "$hybdir/default-j$jobs" \
                --insns 5000 --cores 2 --limit 24 \
                --budget-frac 0.25 --jobs "$jobs" \
                --profile "$hybdir/profile-j$jobs.bin"
        done
        test "$(ls "$hybdir"/default-j1/fidelity-batch-*.bin | wc -l)" -eq 1
        for f in hybrid.bin "$(cd "$hybdir/default-j1" && ls fidelity-batch-*.bin)"; do
            cmp "$hybdir/default-j1/$f" "$hybdir/default-j4/$f"
        done
        # The distributed smoke escalates with this profile.
        cp "$hybdir/cache/error_profile.bin" "$bindir/smoke-profile.bin"
        rm -rf "$hybdir"
        echo "==> hybrid smoke passed under $preset"

        # Distributed campaign smoke (docs/ROBUSTNESS.md): a
        # wsel_serve daemon, four workers — one of which SIGKILLs
        # itself mid-shard — and a client submission that must
        # still complete with a committed manifest. Workers run
        # two threads each, so the threaded batch runner and the
        # heartbeat thread run under the sanitizer too, as does the
        # daemon's 2-thread escalation scan (hybrid smoke profile).
        echo "==> distributed campaign smoke: $preset"
        servedir="$bindir/serve-smoke"
        rm -rf "$servedir"
        mkdir -p "$servedir/cache"
        mv "$bindir/smoke-profile.bin" "$servedir/cache/error_profile.bin"
        "./$bindir/tools/wsel_serve" \
            --socket "$servedir/serve.sock" \
            --store "$servedir/store" \
            --cache-dir "$servedir/cache" --jobs 2 &
        serve_pid=$!
        worker_pids=""
        for i in 1 2 3; do
            "./$bindir/tools/wsel_worker" \
                --socket "$servedir/serve.sock" \
                --cache-dir "$servedir/cache" --jobs 2 &
            worker_pids="$worker_pids $!"
        done
        WSEL_KILL_POINT=population.cell:3 \
            "./$bindir/tools/wsel_worker" \
            --socket "$servedir/serve.sock" \
            --cache-dir "$servedir/cache" --jobs 2 &
        victim_pid=$!
        submitted=$("./$bindir/tools/wsel_cli" serve submit \
            --socket "$servedir/serve.sock" \
            --insns 5000 --cores 2 --limit 40 --shard-size 16 \
            --escalate-budget 0.1 --wait 1)
        echo "$submitted"
        kill -TERM "$serve_pid"
        wait "$serve_pid"
        for pid in $worker_pids; do
            wait "$pid" || true
        done
        wait "$victim_pid" && exit 1 || true # must have died
        test -s "$servedir"/store/c-*/manifest.bin
        # The final dir is the detailed phase's, holding the set.
        test -s "$(echo "$submitted" | sed -n 's/^  dir: //p')/fidelity-bitmap.bin"
        rm -rf "$servedir"
        echo "==> distributed smoke passed under $preset"
    fi

    if [ "$preset" = "release" ]; then
        echo "==> obs smoke artifacts: $preset"
        smoke="build-release/obs-smoke"
        rm -rf "$smoke"
        mkdir -p "$smoke"
        WSEL_CACHE_DIR="$smoke/cache" \
            ./build-release/tools/wsel_cli campaign \
            --cores 2 --insns 5000 --limit 12 --jobs 2 \
            --out "$smoke/campaign" \
            --metrics-out "$smoke/metrics.json" \
            --trace-out "$smoke/trace.json"
        test -s "$smoke/metrics.json"
        test -s "$smoke/trace.json"
        test -s "$smoke/campaign/manifest.bin"
        ./build-release/tools/wsel_cli analyze --campaign "$smoke/campaign"
        rm -rf "$smoke/cache"
        echo "==> obs artifacts archived in $smoke"

        echo "==> trace-store bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_SPEED_REPS=2 \
        WSEL_SCALE_WORKLOADS=8 \
        WSEL_TS_WORKLOADS=12 \
        WSEL_BENCH_JSON="build-release/BENCH_trace_store.json" \
            ./build-release/bench/table3_sim_speed
        test -s "build-release/BENCH_trace_store.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_trace_store.json"

        echo "==> population bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_POP_LIMIT=400 \
        WSEL_POP_BENCH_ROWS=400 \
        WSEL_POP8_ROWS=300 \
        WSEL_BENCH_JSON="build-release/BENCH_population.json" \
        WSEL_BENCH_JSON_BATCH="build-release/BENCH_batch.json" \
            ./build-release/bench/fig5_inverse_cv_population
        test -s "build-release/BENCH_population.json"
        test -s "build-release/BENCH_batch.json"
        # Throughput floor: the batched engine at its default batch
        # size must not run slower than batch=1 on the same 4-core
        # range. 10% head-room absorbs shared-runner noise without
        # masking a real pessimization.
        python3 - build-release/BENCH_batch.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
points = {p["batch"]: p["cells_per_sec"] for p in doc["points"]}
serial, batched = points[1], points[32]
print(f"batch floor: batch=32 {batched:.0f} vs "
      f"batch=1 {serial:.0f} cells/sec")
if batched < 0.9 * serial:
    sys.exit("batched engine slower than batch=1: regression")
EOF
        rm -rf "$smoke/cache"
        echo "==> benches archived in build-release/BENCH_population.json and BENCH_batch.json"

        echo "==> adaptive stopping bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_BENCH_JSON="build-release/BENCH_adaptive.json" \
            ./build-release/bench/adaptive_stopping
        test -s "build-release/BENCH_adaptive.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_adaptive.json"

        echo "==> hybrid fidelity bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_HYBRID_BENCHES=4 \
        WSEL_BENCH_JSON="build-release/BENCH_hybrid.json" \
            ./build-release/bench/hybrid_fidelity
        test -s "build-release/BENCH_hybrid.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_hybrid.json"

        echo "==> serve scaling bench: $preset"
        WSEL_CACHE_DIR="$smoke/cache" \
        WSEL_INSNS=20000 \
        WSEL_SERVE_ROWS=96 \
        WSEL_BENCH_JSON="build-release/BENCH_serve.json" \
            ./build-release/bench/serve_scaling
        test -s "build-release/BENCH_serve.json"
        rm -rf "$smoke/cache"
        echo "==> bench archived in build-release/BENCH_serve.json"
    fi
done

echo "ci: all presets passed"
