/**
 * @file
 * Wall-clock microbenchmarks (google-benchmark) of the portable CPU
 * kernel implementations: schedule construction, every SpMM kernel on
 * power-law and structured inputs, and a 2-layer GCN inference.
 * These measure the real multithreaded code paths; the paper's GPU
 * figures come from the fig* benches (SIMT model).
 */
#include <benchmark/benchmark.h>

#include <chrono>

#include "mps/core/microkernel.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/gcn/model.h"
#include "mps/kernels/registry.h"
#include "mps/sparse/datasets.h"
#include "mps/sparse/generate.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace {

using namespace mps;

const CsrMatrix &
powerlaw_graph()
{
    static CsrMatrix a = make_dataset("Citeseer");
    return a;
}

const CsrMatrix &
structured_graph_input()
{
    static CsrMatrix a = [] {
        StructuredParams p;
        p.nodes = 20000;
        p.target_nnz = 42000;
        p.max_degree = 6;
        p.seed = 3;
        return structured_graph(p);
    }();
    return a;
}

DenseMatrix
dense_input(index_t rows, index_t dim)
{
    DenseMatrix b(rows, dim);
    Pcg32 rng(7);
    b.fill_random(rng);
    return b;
}

void
BM_ScheduleBuild(benchmark::State &state)
{
    const CsrMatrix &a = powerlaw_graph();
    index_t threads = static_cast<index_t>(state.range(0));
    for (auto _ : state) {
        MergePathSchedule s = MergePathSchedule::build(a, threads);
        benchmark::DoNotOptimize(s.num_threads());
    }
    state.SetItemsProcessed(state.iterations() * threads);
}
BENCHMARK(BM_ScheduleBuild)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_SpmmKernel(benchmark::State &state, const std::string &kernel_name,
              bool structured)
{
    const CsrMatrix &a =
        structured ? structured_graph_input() : powerlaw_graph();
    const index_t dim = 16;
    DenseMatrix b = dense_input(a.cols(), dim);
    DenseMatrix c(a.rows(), dim);
    WorkStealPool pool(4);
    auto kernel = make_spmm_kernel(kernel_name);
    kernel->prepare(a, dim);
    for (auto _ : state) {
        kernel->run(a, b, c, pool);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * a.nnz() * dim);
}

#define MPS_SPMM_BENCH(name)                                             \
    void BM_Spmm_##name##_PowerLaw(benchmark::State &s)                  \
    {                                                                    \
        BM_SpmmKernel(s, #name, false);                                  \
    }                                                                    \
    BENCHMARK(BM_Spmm_##name##_PowerLaw);                                \
    void BM_Spmm_##name##_Structured(benchmark::State &s)                \
    {                                                                    \
        BM_SpmmKernel(s, #name, true);                                   \
    }                                                                    \
    BENCHMARK(BM_Spmm_##name##_Structured)

MPS_SPMM_BENCH(reference);
MPS_SPMM_BENCH(row_split);
MPS_SPMM_BENCH(column_split);
MPS_SPMM_BENCH(gnnadvisor);
MPS_SPMM_BENCH(mergepath_serial);
MPS_SPMM_BENCH(mergepath);
MPS_SPMM_BENCH(adaptive);

/**
 * Scalar-vs-SIMD speedup of the row microkernel axpy (the SpMM hot
 * loop) per feature dimension. Each run times BOTH paths on identical
 * inputs and reports scalar_ns, simd_ns and speedup as counters, so
 * `--benchmark_format=json` carries the per-dim speedup table the
 * roadmap asks for. The timed loop itself runs the selected default
 * path; the counters come from a fixed-duration side measurement.
 */
void
BM_MicrokernelAxpy(benchmark::State &state)
{
    const index_t dim = static_cast<index_t>(state.range(0));
    const index_t rows = 256; // cycle rows so data stays in L1/L2
    DenseMatrix b = dense_input(rows, dim);
    const RowKernels &scalar =
        select_row_kernels(dim, MicrokernelPath::kScalar);
    const RowKernels &simd =
        microkernel_simd_compiled()
            ? select_row_kernels(dim, MicrokernelPath::kSimd)
            : scalar;
    value_t *acc = microkernel_scratch(dim);
    scalar.zero(acc, dim);

    auto time_path = [&](const RowKernels &rk) {
        // ~1e6 axpys per sample: long enough to swamp timer overhead.
        const int reps = 1000000 / rows;
        auto t0 = std::chrono::steady_clock::now();
        for (int rep = 0; rep < reps; ++rep) {
            for (index_t r = 0; r < rows; ++r)
                rk.axpy(acc, 1.0009f, b.row(r), dim);
        }
        auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(acc);
        return std::chrono::duration<double, std::nano>(t1 - t0)
                   .count() /
               (static_cast<double>(reps) * rows);
    };

    for (auto _ : state) {
        for (index_t r = 0; r < rows; ++r)
            simd.axpy(acc, 1.0009f, b.row(r), dim);
        benchmark::DoNotOptimize(acc);
    }

    const double scalar_ns = time_path(scalar);
    const double simd_ns =
        microkernel_simd_compiled() ? time_path(simd) : scalar_ns;
    state.counters["scalar_ns"] = scalar_ns;
    state.counters["simd_ns"] = simd_ns;
    state.counters["speedup"] = scalar_ns / simd_ns;
    state.SetItemsProcessed(state.iterations() * rows * dim);
    state.SetLabel(simd.name);
}
BENCHMARK(BM_MicrokernelAxpy)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

/**
 * Mixed-precision axpy: the SpMM hot loop reading its operand row at
 * each storage width (f32 / bf16, fp32 accumulate throughout).
 * Args are {dim, StorageMode}. Counters carry the JSON row the roadmap
 * asks for: bytes_moved per axpy (operand row only — the bandwidth the
 * narrow storage actually cuts), GB/s of operand traffic at the
 * measured rate, and speedup_vs_f32 from a fixed-work side measurement
 * against the f32 kernel on the same data.
 */
void
BM_MicrokernelAxpyPrecision(benchmark::State &state)
{
    const index_t dim = static_cast<index_t>(state.range(0));
    const auto mode = static_cast<StorageMode>(state.range(1));
    const index_t rows = 256;
    DenseMatrix b = dense_input(rows, dim);
    b.quantize(mode);
    const RowKernels &rk = select_row_kernels(dim);
    value_t *acc = microkernel_scratch(dim);
    rk.zero(acc, dim);

    auto axpy_row = [&](StorageMode m, index_t r) {
        if (m == StorageMode::kBf16)
            rk.axpy_bf16(acc, 1.0009f, b.row_bf16(r), dim);
        else
            rk.axpy(acc, 1.0009f, b.row(r), dim);
    };
    auto time_mode = [&](StorageMode m) {
        const int reps = 1000000 / rows;
        auto t0 = std::chrono::steady_clock::now();
        for (int rep = 0; rep < reps; ++rep)
            for (index_t r = 0; r < rows; ++r)
                axpy_row(m, r);
        auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(acc);
        return std::chrono::duration<double, std::nano>(t1 - t0)
                   .count() /
               (static_cast<double>(reps) * rows);
    };

    for (auto _ : state) {
        for (index_t r = 0; r < rows; ++r)
            axpy_row(mode, r);
        benchmark::DoNotOptimize(acc);
    }

    const double f32_ns = time_mode(StorageMode::kF32);
    const double mode_ns =
        mode == StorageMode::kF32 ? f32_ns : time_mode(mode);
    const double bytes_moved =
        static_cast<double>(dim) * storage_elem_bytes(mode);
    state.counters["bytes_moved"] = bytes_moved;
    state.counters["GB/s"] = bytes_moved / mode_ns; // ns -> GB/s exactly
    state.counters["speedup_vs_f32"] = f32_ns / mode_ns;
    state.SetItemsProcessed(state.iterations() * rows * dim);
    state.SetLabel(storage_mode_name(mode));
}
BENCHMARK(BM_MicrokernelAxpyPrecision)
    ->ArgsProduct({{32, 64, 128, 256}, {0, 1}});

void
BM_GcnTwoLayerInference(benchmark::State &state)
{
    CsrMatrix a = make_dataset("Citeseer");
    a.normalize_gcn();
    DenseMatrix x = dense_input(a.rows(), 64);
    WorkStealPool pool(4);
    GcnModel model = GcnModel::two_layer(64, 16, 8, 1, "mergepath");
    for (auto _ : state) {
        DenseMatrix out = model.infer(a, x, pool);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_GcnTwoLayerInference);

} // namespace

BENCHMARK_MAIN();
