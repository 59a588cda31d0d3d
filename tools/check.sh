#!/bin/sh
# Build and test the project five times: a plain Release configuration,
# an ASan+UBSan one (-DMPS_SANITIZE=address) that runs the full suite
# (including the work-steal pool tests), a TSan one
# (-DMPS_SANITIZE=thread) that runs the concurrency-heavy tests
# (lock-free MPSC queue, server lifecycle, work-steal pool submission/
# stealing/parking/slot recycling, the merge-path carry fix-up across
# pool sizes) under the race detector,
# and a forced-scalar one (-DMPS_FORCE_SCALAR=ON) that proves
# the kernel tests pass on the scalar microkernel reference path alone,
# and that the plain-loop GEMM reference agrees with the Gemm tests
# written against the register tiles — the batched commit epilogues
# included: the fused bit-identity, aggregate-first and pool-size
# determinism tests run there too, on the scalar gemm_block.
# An AVX2 stage (-mno-avx512f) runs the same kernel tests on the 8-lane
# instantiation of the GEMM tile and the register-row gathers, which an
# AVX-512 host otherwise never executes. Neither that build nor the
# scalar one compiles the AMX bf16 tile GEMM (it needs AVX512-BF16 and
# the SIMD path), so both run the AmxGemm tests against the fallback
# every host without AMX takes: the f32 tile plus the bf16 encode,
# and the AmxRankUpdate tests skip there while the model tests check
# that a bf16 handoff then keeps its f32 rows. Both stages, and the
# TSan and narrow-tile ones, also run the tile rank update, huge-page
# and lone-request tests (AmxRank, Bf16Handoff, LargeBlocks,
# LoneRequest); the ASan stage runs them with the rest of the suite,
# and checks that a 2 MiB-aligned block is freed with the alignment it
# was allocated with. Under MPS_TILE_D=16 a bf16 layer 0 sweeps in
# several panels, so its rank update stays on the vector tile.
# The share-loop tests (ShareLoop: bit identity of every sweep width,
# storage mode and sink against the zero-then-axpy chain, and the
# count of rows that take the per-row fallback) run in the TSan,
# scalar, AVX2, narrow-tile and no-hybrid stages too: the scalar build
# has no share loop, so there every complete row is counted as a
# fallback row, and the AVX2 build runs the 8-lane one.
# The TSan stage also runs the AMX tile GEMM tests (AmxGemm), so the
# per-thread X buffers of its pipelined blocks, and the prefetch of each
# task's next block, run under the race detector.
# A repeat stage reruns the determinism-sensitive release tests (fuzz
# bit-identity, pool-size determinism, pool stress) and the serve
# dispatch tests (batcher policy, server lifecycle, idle-worker
# dispatch and busy-worker coalescing) 20 times in a row, so an
# order-dependent result or a lost wakeup rarely passes by luck.
# A no-tile stage reruns the release SpMM/locality tests with the
# cache-locality layer disabled (MPS_TILE_D=inf MPS_PREFETCH=0),
# proving column tiling and software prefetch are behavior-neutral.
# A narrow-tile stage reruns the serve, fusion, determinism and model
# tests with MPS_TILE_D=16. The serve models are 6 columns wide per
# request, so a 16-wide panel starts in the middle of a request's
# column block of the batch's wide layout, which the auto width (one
# full panel on the test graphs) never does. The model and fusion
# tests then stream their combine-first layers in several panels: the
# rank update's first panel stores and later panels add, and split
# rows wait in the compact head panel across every panel barrier.
# A no-fuse stage reruns the GCN/fusion-routed tests with MPS_FUSE=0,
# proving the fused panel-streaming pipeline is opt-out clean: the
# classic GEMM -> XW -> SpMM execution (and, for widening layers, the
# classic aggregate-first SpMM -> GEMM, GcnAssociation.*) still passes
# everything. The server does not read MPS_FUSE (it always runs the
# fused sweep), so the serve tests there rerun the same path.
# A churn stage reruns the dynamic-graph tests (delta-CSR overlay,
# schedule repair, concurrent update_graph vs inference) under the
# TSan build to shake out update/serve races.
# A no-hybrid stage reruns the kernel-facing tests with MPS_HYBRID=0,
# proving the per-row-class hybrid dispatch is opt-out clean: every
# matrix degenerates to the plain merge-path tail and still passes.
# A bf16 stage reruns the kernel/GCN-facing tests with
# MPS_PRECISION=bf16, driving the narrow-operand storage through every
# inference path whose assertions hold at reduced precision (the
# quantized aggregate-first handoffs included, GcnAssociation.*), and
# the AMX tile GEMM tests (AmxGemm.*; the ASan+UBSan stage runs them
# too, with the rest of the suite). The serve
# suites are deliberately excluded there: they pin fp32-exact parity
# against sequential references (abs_tol 1e-4), which bf16 storage is
# *supposed* to perturb.
# A final telemetry stage scrapes a live serve-bench run through the
# embedded /metrics endpoint and validates the OpenMetrics exposition
# with `mps_tool top --strict`.
# Run from anywhere; build trees land in build-release/, build-asan/,
# build-tsan/, build-scalar/ and build-avx2/ next to the source tree.
#
#   tools/check.sh [extra ctest args...]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

echo "==> configure build-release"
cmake -S "$root" -B "$root/build-release" -DCMAKE_BUILD_TYPE=Release
echo "==> build build-release"
cmake --build "$root/build-release" -j "$jobs"
echo "==> ctest build-release"
(cd "$root/build-release" && ctest --output-on-failure -j "$jobs" "$@")

echo "==> ctest build-release x20 (determinism-sensitive and dispatch tests)"
(cd "$root/build-release" && ctest --output-on-failure -j "$jobs" \
    --repeat until-fail:20 \
    -R 'FuzzTest|Determinism|WorkStealPool|ServerFixture|Batcher' "$@")

echo "==> configure build-asan"
cmake -S "$root" -B "$root/build-asan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_SANITIZE=address
echo "==> build build-asan"
cmake --build "$root/build-asan" -j "$jobs"
echo "==> ctest build-asan"
(cd "$root/build-asan" && ctest --output-on-failure -j "$jobs" "$@")

echo "==> configure build-tsan"
cmake -S "$root" -B "$root/build-tsan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMPS_SANITIZE=thread
echo "==> build build-tsan (concurrency tests only)"
cmake --build "$root/build-tsan" -j "$jobs" --target \
    mps_serve_queue_test mps_serve_test mps_schedule_cache_test \
    mps_metrics_test mps_work_steal_pool_test mps_telemetry_test \
    mps_dynamic_graph_test mps_fusion_test mps_hybrid_test \
    mps_microkernel_test mps_property_fuzz_test mps_determinism_test \
    mps_gcn_test mps_sparse_test mps_share_loop_test fusion
echo "==> ctest build-tsan"
(cd "$root/build-tsan" && ctest --output-on-failure -j "$jobs" \
    -R 'MpscQueue|Batcher|ServerFixture|ScheduleCacheTest|Metrics|Histogram|Trace|Telemetry|WorkStealPool|Fusion|Hybrid|Quantiz|MixedPrecision|Atomic|Determinism|AmxGemm|AmxRank|Bf16Handoff|LargeBlocks|ShareLoop' \
    "$@")

echo "==> fusion: panel-streaming smoke under TSan"
# The fused pipeline fires its rank-update epilogue from worker
# threads, on batches of up to 48 rows each executor finished at
# plain commits and on the fix-up's batches of split rows; the smoke
# bench drives that multi-thread path end to end so TSan can see any
# row-ownership violation.
"$root/build-tsan/bench/fusion" --smoke > /dev/null

echo "==> churn: dynamic-graph update/inference races under TSan"
(cd "$root/build-tsan" && ctest --output-on-failure -j "$jobs" \
    -R 'DynamicServe|DeltaCsr|ScheduleRepair|ScheduleCensus|ScheduleCacheDynamic' \
    "$@")

echo "==> configure build-scalar"
cmake -S "$root" -B "$root/build-scalar" \
    -DCMAKE_BUILD_TYPE=Release -DMPS_FORCE_SCALAR=ON
echo "==> build build-scalar (kernel tests only)"
cmake --build "$root/build-scalar" -j "$jobs" --target \
    mps_microkernel_test mps_spmm_test mps_kernels_test \
    mps_property_fuzz_test mps_gcn_test mps_fusion_test \
    mps_determinism_test mps_sparse_test mps_serve_test \
    mps_share_loop_test
echo "==> ctest build-scalar"
(cd "$root/build-scalar" && ctest --output-on-failure -j "$jobs" \
    -R 'Microkernel|Spmm|Kernel|Fuzz|Gemm|FusionBitIdentity|GcnAssociation|Determinism|AmxRank|Bf16Handoff|LargeBlocks|LoneRequest|ShareLoop' \
    "$@")

echo "==> configure build-avx2"
cmake -S "$root" -B "$root/build-avx2" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-mno-avx512f
echo "==> build build-avx2 (kernel tests only)"
cmake --build "$root/build-avx2" -j "$jobs" --target \
    mps_microkernel_test mps_spmm_test mps_kernels_test \
    mps_property_fuzz_test mps_gcn_test mps_fusion_test \
    mps_determinism_test mps_sparse_test mps_serve_test \
    mps_share_loop_test
echo "==> ctest build-avx2"
(cd "$root/build-avx2" && ctest --output-on-failure -j "$jobs" \
    -R 'Microkernel|Spmm|Kernel|Fuzz|Gemm|FusionBitIdentity|GcnAssociation|Determinism|AmxRank|Bf16Handoff|LargeBlocks|LoneRequest|ShareLoop' \
    "$@")

echo "==> ctest build-notile (MPS_TILE_D=inf MPS_PREFETCH=0)"
(cd "$root/build-release" && \
    MPS_TILE_D=inf MPS_PREFETCH=0 ctest --output-on-failure -j "$jobs" \
    -R 'Spmm|Locality|Tiled|Adaptive|Gcn|Serve' "$@")

echo "==> ctest build-narrowtile (MPS_TILE_D=16)"
(cd "$root/build-release" && \
    MPS_TILE_D=16 ctest --output-on-failure -j "$jobs" \
    -R 'Serve|Fusion|Determinism|GcnModel|AmxRank|LargeBlocks|ShareLoop' "$@")

echo "==> ctest build-nohybrid (MPS_HYBRID=0)"
(cd "$root/build-release" && \
    MPS_HYBRID=0 ctest --output-on-failure -j "$jobs" \
    -R 'Hybrid|Kernel|Spmm|Adaptive|Fuzz|ShareLoop' "$@")

echo "==> ctest build-bf16 (MPS_PRECISION=bf16)"
(cd "$root/build-release" && \
    MPS_PRECISION=bf16 ctest --output-on-failure -j "$jobs" \
    -R 'Gcn|Microkernel|Spmm|Fuzz|Hybrid|Fusion|AmxGemm|AmxRank' "$@")

echo "==> ctest build-nofuse (MPS_FUSE=0)"
(cd "$root/build-release" && \
    MPS_FUSE=0 ctest --output-on-failure -j "$jobs" \
    -R 'Gcn|Fusion|Train|Serve' "$@")

echo "==> telemetry: live /metrics scrape during serve-bench"
tool="$root/build-release/tools/mps_tool"
portfile=$(mktemp)
rm -f "$portfile"
"$tool" serve-bench --nodes=2048 --avg-degree=16 --clients=4 \
    --max-batch=4 --requests=300 --telemetry-port=0 \
    --telemetry-port-file="$portfile" --telemetry-linger-ms=10000 &
bench_pid=$!
tries=0
while [ ! -s "$portfile" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "telemetry: serve-bench never published its port" >&2
        kill "$bench_pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
port=$(cat "$portfile")
"$tool" top --url="127.0.0.1:$port" --once --strict
wait "$bench_pid"
rm -f "$portfile"

echo "==> all checks passed"
