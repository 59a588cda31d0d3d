/**
 * The sweep's share loop (src/core/carry.cpp): every output element of
 * a merge-path panel sweep against the zero-then-axpy chain of the
 * row's parts, bit for bit, and the count of complete rows that
 * take the per-row fallback instead of the share loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/schedule.h"
#include "mps/core/simd_vec.h"
#include "mps/core/spmm.h"
#include "mps/gcn/layer.h"
#include "mps/gcn/model.h"
#include "mps/serve/server.h"
#include "mps/sparse/datasets.h"
#include "mps/sparse/generate.h"
#include "mps/util/metrics.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

/**
 * True when on-grid f32 and bf16 rows gather in the share loop: a
 * SimdVec build on the SIMD path (MPS_MICROKERNEL=scalar selects the
 * scalar table, whose rows take the per-row fallback).
 */
bool
share_loop_runs()
{
    return MPS_SIMD_VEC != 0 &&
           microkernel_default_path() == MicrokernelPath::kSimd;
}

/** @p n distinct sorted columns below @p cols. */
std::vector<index_t>
sorted_columns(Pcg32 &rng, index_t n, index_t cols)
{
    std::vector<index_t> picked;
    while (static_cast<index_t>(picked.size()) < n) {
        picked.push_back(static_cast<index_t>(
            rng.next_below(static_cast<uint32_t>(cols))));
        std::sort(picked.begin(), picked.end());
        picked.erase(std::unique(picked.begin(), picked.end()),
                     picked.end());
    }
    return picked;
}

/**
 * A graph with every row shape the share loop meets: a band of long
 * column-clustered rows, two hub rows that a many-thread schedule
 * splits, empty rows, and short rows.
 */
CsrMatrix
share_graph()
{
    constexpr index_t kRows = 240, kCols = 200;
    Pcg32 rng(2027, 27);
    std::vector<index_t> row_ptr{0};
    std::vector<index_t> col_idx;
    std::vector<value_t> values;
    for (index_t r = 0; r < kRows; ++r) {
        std::vector<index_t> cols;
        if (r < 24) {
            const index_t base = static_cast<index_t>(rng.next_below(140));
            for (index_t k = 0; k < 48; ++k)
                cols.push_back(base + k);
        } else if (r == 70 || r == 150) {
            cols = sorted_columns(rng, 160, kCols);
        } else if (r % 9 != 0) {
            cols = sorted_columns(
                rng, 1 + static_cast<index_t>(rng.next_below(6)), kCols);
        }
        for (index_t c : cols) {
            col_idx.push_back(c);
            values.push_back(rng.next_float(-2.0f, 2.0f));
        }
        row_ptr.push_back(static_cast<index_t>(col_idx.size()));
    }
    return CsrMatrix(kRows, kCols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

/** One part of an output row: non-zeros [begin, end) of @p m. */
struct Part
{
    const CsrMatrix *m;
    index_t begin;
    index_t end;
};

/**
 * Append each share's parts of @p s over @p m, in share order, to the
 * parts of their output rows.
 */
void
add_schedule_parts(const MergePathSchedule &s, const CsrMatrix &m,
                   std::vector<std::vector<Part>> &parts)
{
    const auto add = [&](index_t row, index_t begin, index_t end) {
        if (end > begin)
            parts[static_cast<size_t>(row)].push_back({&m, begin, end});
    };
    for (index_t t = 0; t < s.num_threads(); ++t) {
        const ResolvedWork w = s.resolve(t, m);
        if (w.has_head())
            add(w.head_row, w.head_begin, w.head_end);
        for (index_t r = w.first_complete_row; r < w.last_complete_row; ++r)
            add(r, m.row_begin(r), m.row_end(r));
        if (w.has_tail())
            add(w.tail_row, w.tail_begin, w.tail_end);
    }
}

/**
 * The expected panel: per row, the zero-then-axpy chain of its first
 * part, plus (add) the chain of each later part in share order, the
 * carry fix-up's order. A row without parts is +0.
 */
DenseMatrix
expected_panel(const std::vector<std::vector<Part>> &parts,
               const DenseMatrix &b, index_t b_col, index_t width)
{
    const RowKernels &rk = select_row_kernels(width);
    const bool bf16 = b.storage() == StorageMode::kBf16;
    DenseMatrix want(static_cast<index_t>(parts.size()), width);
    std::vector<value_t> chain(static_cast<size_t>(width));
    for (size_t r = 0; r < parts.size(); ++r) {
        value_t *row = want.row(static_cast<index_t>(r));
        rk.zero(row, width);
        for (size_t i = 0; i < parts[r].size(); ++i) {
            const Part &p = parts[r][i];
            value_t *acc = i == 0 ? row : chain.data();
            rk.zero(acc, width);
            for (index_t k = p.begin; k < p.end; ++k) {
                const value_t v = p.m->values()[static_cast<size_t>(k)];
                const index_t src = p.m->col_idx()[static_cast<size_t>(k)];
                if (bf16)
                    rk.axpy_bf16(acc, v, b.row_bf16(src) + b_col, width);
                else
                    rk.axpy(acc, v, b.row(src) + b_col, width);
            }
            if (i > 0)
                rk.add(row, acc, width);
        }
    }
    return want;
}

/** A streamed sweep's sink: each finished row, and how often it came. */
struct Recording
{
    DenseMatrix rows;
    std::vector<int> seen;
};

void
record_rows(const FinishedRow *rows, int count, index_t, index_t width,
            const void *ctx)
{
    auto *rec = static_cast<Recording *>(const_cast<void *>(ctx));
    for (int i = 0; i < count; ++i) {
        std::copy_n(rows[i].crow, width, rec->rows.row(rows[i].row));
        ++rec->seen[static_cast<size_t>(rows[i].row)];
    }
}

::testing::AssertionResult
same_bits(value_t got, value_t want)
{
    if (std::bit_cast<uint32_t>(got) == std::bit_cast<uint32_t>(want))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << got << " vs " << want;
}

constexpr index_t kBCol = 24, kCCol = 8;

/**
 * One panel sweep of @p sched (split rows @p split) over @p a and B
 * columns [kBCol, kBCol + width), materialized into C columns [kCCol,
 * ...) of a NaN-filled C, or streamed into a recording epilogue; every
 * element checked against @p want.
 */
void
check_sweep(const CsrMatrix &a, const MergePathSchedule &sched,
            const SplitRowList &split, const DenseMatrix &b, index_t width,
            bool streamed, const SpmmLocality &loc, WorkStealPool &pool,
            const DenseMatrix &want)
{
    const index_t n = a.rows();
    DenseMatrix c(n, kCCol + width + 8);
    c.fill(std::nanf(""));
    Recording rec{DenseMatrix(n, width),
                  std::vector<int>(static_cast<size_t>(n))};
    DenseMatrix *out = streamed ? nullptr : &c;
    const PanelEpilogue epi = streamed ? record_rows : nullptr;
    mergepath_spmm_panel(a, b, kBCol, out, kCCol, width, sched, split, pool,
                         loc, epi, &rec, false);

    for (index_t r = 0; r < n; ++r) {
        if (streamed) {
            ASSERT_EQ(rec.seen[static_cast<size_t>(r)], 1) << "row " << r;
            for (index_t k = 0; k < width; ++k)
                ASSERT_TRUE(same_bits(rec.rows(r, k), want(r, k)))
                    << "row " << r << " col " << k;
            continue;
        }
        for (index_t j = 0; j < c.cols(); ++j) {
            const index_t k = j - kCCol;
            if (k < 0 || k >= width)
                ASSERT_TRUE(std::isnan(c(r, j)))
                    << "row " << r << " col " << j << " written";
            else
                ASSERT_TRUE(same_bits(c(r, j), want(r, k)))
                    << "row " << r << " col " << k;
        }
    }
}

/**
 * Every output element of a merge-path panel sweep is bit-equal to
 * the zero-then-axpy chain of its row's parts: every
 * width the share loop specialises (8 to 128) and one past a whole
 * chunk (136), widths off the 8-column grid (9, 12, 20) that take the
 * per-row fallback, f32 and bf16 operands, materialized sweeps (output
 * pre-filled with NaN; columns outside the panel must stay NaN) and
 * streamed ones (each row reaches the recording epilogue once), B and
 * C panels off column 0, split hub rows, column-clustered rows and
 * empty rows, prefetch off and auto, on 1, 2 and 4 workers.
 */
TEST(ShareLoop, RowsBitIdenticalToAxpyChain)
{
    constexpr index_t kMaxWidth = 136;
    const CsrMatrix a = share_graph();
    const index_t n = a.rows();

    const MergePathSchedule sched = MergePathSchedule::build(a, 24);
    const SplitRowList split = sched.split_row_list(a);
    ASSERT_FALSE(split.empty()) << "no split rows to cover";

    std::vector<std::vector<Part>> parts(static_cast<size_t>(n));
    add_schedule_parts(sched, a, parts);
    bool has_empty = false;
    for (index_t r = 0; r < n; ++r)
        has_empty |= a.row_begin(r) == a.row_end(r);
    ASSERT_TRUE(has_empty);

    Pcg32 rng(5, 27);
    DenseMatrix b32(a.cols(), kBCol + kMaxWidth);
    b32.fill_random(rng);
    DenseMatrix b16 = b32;
    b16.quantize(StorageMode::kBf16);

    std::vector<index_t> widths = {9, 12, 20, 136};
    for (index_t w = 8; w <= 128; w += 8)
        widths.push_back(w);
    WorkStealPool pool1(1), pool2(2), pool4(4);
    WorkStealPool *pools[] = {&pool1, &pool2, &pool4};

    for (const DenseMatrix *b : {&b32, &b16})
        for (const index_t width : widths) {
            const DenseMatrix want = expected_panel(parts, *b, kBCol, width);
            for (const bool streamed : {false, true})
                for (const bool prefetch : {false, true})
                    for (WorkStealPool *pool : pools) {
                        SCOPED_TRACE(::testing::Message()
                                     << (b == &b16 ? "bf16" : "f32")
                                     << " width " << width
                                     << (streamed ? " streamed"
                                                  : " materialized")
                                     << " prefetch " << prefetch << " pool "
                                     << pool->size());
                        SpmmLocality loc = default_spmm_locality(
                            b->rows(), width,
                            storage_elem_bytes(b->storage()));
                        if (!prefetch)
                            loc.prefetch = 0;
                        check_sweep(a, sched, split, *b, width, streamed,
                                    loc, *pool, want);
                        if (HasFatalFailure())
                            return;
                    }
        }
}

/** Complete rows of @p sched over @p a, summed over its shares. */
int64_t
complete_rows(const MergePathSchedule &sched, const CsrMatrix &a)
{
    int64_t rows = 0;
    for (index_t t = 0; t < sched.num_threads(); ++t) {
        const ResolvedWork w = sched.resolve(t, a);
        rows += std::max<index_t>(0, w.last_complete_row -
                                         w.first_complete_row);
    }
    return rows;
}

/**
 * spmm.fallback_rows counts every complete row gathered one call per
 * row: an f32 or bf16 operand at a width off the 8-column grid always,
 * an on-grid one only where no share loop is compiled.
 */
TEST(ShareLoop, FallbackRowsCounted)
{
    const CsrMatrix a = share_graph();
    const MergePathSchedule sched = MergePathSchedule::build(a, 24);
    const SplitRowList split = sched.split_row_list(a);
    const int64_t complete = complete_rows(sched, a);
    ASSERT_GT(complete, 0);
    WorkStealPool pool(2);
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);
    const auto fallback_rows = [&](StorageMode mode, index_t width) {
        Pcg32 rng(9, 27);
        DenseMatrix b(a.cols(), width);
        b.fill_random(rng);
        if (mode != StorageMode::kF32)
            b.quantize(mode);
        DenseMatrix c(a.rows(), width);
        const int64_t before = metrics.counter_value("spmm.fallback_rows");
        mergepath_spmm_panel(a, b, 0, &c, 0, width, sched, split, pool,
                             SpmmLocality{}, nullptr, nullptr, false);
        return metrics.counter_value("spmm.fallback_rows") - before;
    };
    EXPECT_EQ(fallback_rows(StorageMode::kF32, 12), complete);
    EXPECT_EQ(fallback_rows(StorageMode::kBf16, 12), complete);
    EXPECT_EQ(fallback_rows(StorageMode::kF32, 16),
              share_loop_runs() ? 0 : complete);
    EXPECT_EQ(fallback_rows(StorageMode::kBf16, 16),
              share_loop_runs() ? 0 : complete);
    metrics.set_enabled(false);
    metrics.reset();
}

/**
 * The benchmark's shapes keep every complete row in the share loop:
 * GcnModel forwards of 16-128-16 f32 and 128-128-16 bf16, and a served
 * Cora request alone and in a batch of 3 (32-16-8, so sweeps of 16
 * and 8 columns per request). A scalar build counts them all instead.
 */
TEST(ShareLoop, BenchmarkShapesTakeNoFallbackRows)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);
    const auto expect_share_loop = [&](const char *what) {
        const int64_t rows = metrics.counter_value("spmm.fallback_rows");
        if (share_loop_runs())
            EXPECT_EQ(rows, 0) << what;
        else
            EXPECT_GT(rows, 0) << what;
        metrics.reset();
    };

    WorkStealPool pool(3);
    PowerLawParams p;
    p.nodes = 3000;
    p.target_nnz = p.nodes * 10;
    p.max_degree = p.nodes / 10;
    p.seed = 20;
    CsrMatrix power = power_law_graph(p);
    power.normalize_gcn();
    struct Shape
    {
        index_t f, h, c;
        StorageMode precision;
    };
    for (const Shape s : {Shape{16, 128, 16, StorageMode::kF32},
                          Shape{128, 128, 16, StorageMode::kBf16}}) {
        GcnModel model = GcnModel::two_layer(s.f, s.h, s.c, 1, "mergepath");
        model.set_precision(s.precision);
        Pcg32 rng(3, 27);
        DenseMatrix x(power.rows(), s.f);
        x.fill_random(rng);
        const DenseMatrix out = model.infer(power, x, pool);
        ASSERT_EQ(out.cols(), s.c);
        expect_share_loop(s.precision == StorageMode::kF32 ? "f32 model"
                                                           : "bf16 model");
    }

    CsrMatrix cora = make_dataset("Cora");
    cora.normalize_gcn();
    std::vector<GcnLayer> layers;
    layers.emplace_back(random_layer_weights(32, 16, 1), Activation::kRelu);
    layers.emplace_back(random_layer_weights(16, 8, 2), Activation::kNone);
    for (const int k : {1, 3}) {
        serve::ServeConfig cfg;
        cfg.batch.max_batch = k;
        cfg.batch.max_delay_us = 1000000; // only dispatch full batches
        cfg.autostart = false;
        serve::Server server(cfg);
        const uint64_t gid = server.register_graph(cora, layers);
        Pcg32 rng(4, 27);
        std::vector<std::future<serve::InferenceResult>> futures;
        for (int i = 0; i < k; ++i) {
            DenseMatrix x(cora.rows(), 32);
            x.fill_random(rng);
            futures.push_back(server.submit(gid, std::move(x)));
        }
        metrics.reset();
        server.start();
        for (auto &f : futures) {
            const serve::InferenceResult r = f.get();
            ASSERT_EQ(r.status, serve::RequestStatus::kOk) << r.message;
            EXPECT_EQ(r.batch_size, k);
        }
        server.shutdown();
        expect_share_loop(k == 1 ? "served request" : "served batch of 3");
    }
    metrics.set_enabled(false);
}

} // namespace
} // namespace mps
