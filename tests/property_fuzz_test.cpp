/**
 * Randomized differential tests: many seeds, random shapes (including
 * degenerate ones), every result checked against a trivially correct
 * reference. These sweep the corner cases the directed tests might
 * miss — empty rows at partition boundaries, single-column matrices,
 * thread counts far above the work size.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <string>

#include "mps/core/fusion.h"
#include "mps/core/spmm.h"
#include "mps/core/spmv.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/sparse/delta_csr.h"
#include "mps/sparse/reorder.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

/** Random CSR with arbitrary (possibly degenerate) shape. */
CsrMatrix
random_csr(Pcg32 &rng, index_t max_rows = 60, index_t max_cols = 60)
{
    index_t rows = 1 + static_cast<index_t>(
                       rng.next_below(static_cast<uint32_t>(max_rows)));
    index_t cols = 1 + static_cast<index_t>(
                       rng.next_below(static_cast<uint32_t>(max_cols)));
    std::vector<index_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
    std::vector<index_t> col_idx;
    std::vector<value_t> values;
    for (index_t r = 0; r < rows; ++r) {
        // Degrees biased toward 0 and occasionally huge (evil row).
        index_t degree = 0;
        uint32_t dice = rng.next_below(10);
        if (dice >= 4 && dice < 9) {
            degree = static_cast<index_t>(rng.next_below(4));
        } else if (dice == 9) {
            degree = static_cast<index_t>(
                rng.next_below(static_cast<uint32_t>(cols)));
        }
        for (index_t k = 0; k < degree; ++k) {
            col_idx.push_back(static_cast<index_t>(
                rng.next_below(static_cast<uint32_t>(cols))));
            values.push_back(rng.next_float(-1.0f, 1.0f));
        }
        row_ptr[static_cast<size_t>(r) + 1] =
            static_cast<index_t>(col_idx.size());
    }
    return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

class FuzzTest : public testing::TestWithParam<int>
{
};

/**
 * Feature dims for SpMM fuzzing: mostly small random widths, but
 * regularly the microkernel specialization boundaries (16/32/64) and
 * their off-by-one neighbours, which exercise the fixed-dimension SIMD
 * tables and the generic path's vector tails.
 */
index_t
fuzz_dim(Pcg32 &rng)
{
    static const index_t boundary[] = {15, 16, 17, 31, 32, 33,
                                       63, 64, 65};
    if (rng.next_below(2) == 0)
        return boundary[rng.next_below(
            static_cast<uint32_t>(std::size(boundary)))];
    return 1 + static_cast<index_t>(rng.next_below(20));
}

/**
 * Merge-path schedules against the reference on random shapes (empty
 * rows, evil rows, unsorted columns), built both ways the library
 * builds them: by thread count, and from a merge-path cost (1-60
 * items per thread, the build_with_cost path of FusedLayerPlan, serve
 * and every kernel). Each schedule runs sequentially and on a pool.
 */
TEST_P(FuzzTest, ScheduleAndSpmmAgainstReference)
{
    Pcg32 rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
    // The costs draw from their own stream, so the shapes and thread
    // counts above stay the ones each seed has always produced.
    Pcg32 cost_rng(static_cast<uint64_t>(GetParam()) * 4099 + 7);
    WorkStealPool pool(3);
    for (int iter = 0; iter < 8; ++iter) {
        CsrMatrix a = random_csr(rng);
        index_t dim = fuzz_dim(rng);
        DenseMatrix b(a.cols(), dim);
        b.fill_random(rng);
        DenseMatrix expect(a.rows(), dim);
        reference_spmm(a, b, expect);

        index_t threads = 1 + static_cast<index_t>(rng.next_below(300));
        const index_t cost =
            1 + static_cast<index_t>(cost_rng.next_below(60));
        for (const bool by_cost : {false, true}) {
            SCOPED_TRACE(by_cost ? "cost " + std::to_string(cost)
                                 : "threads " + std::to_string(threads));
            MergePathSchedule sched =
                by_cost ? MergePathSchedule::build_with_cost(a, cost)
                        : MergePathSchedule::build(a, threads);
            sched.validate(a);

            ScheduleCensus census = sched.census(a);
            ASSERT_EQ(census.atomic_nnz + census.plain_nnz, a.nnz());

            DenseMatrix seq(a.rows(), dim), par(a.rows(), dim);
            mergepath_spmm_sequential(a, b, seq, sched);
            ASSERT_TRUE(seq.approx_equal(expect, 1e-3, 1e-3))
                << "seed " << GetParam() << " iter " << iter;
            mergepath_spmm_parallel(a, b, par, sched, pool);
            ASSERT_TRUE(par.approx_equal(expect, 1e-3, 1e-3))
                << "seed " << GetParam() << " iter " << iter;
        }
    }
}

TEST_P(FuzzTest, SpmvAgainstReference)
{
    Pcg32 rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
    WorkStealPool pool(2);
    for (int iter = 0; iter < 8; ++iter) {
        CsrMatrix a = random_csr(rng);
        std::vector<value_t> x(static_cast<size_t>(a.cols()));
        for (auto &v : x)
            v = rng.next_float(-1.0f, 1.0f);
        std::vector<value_t> expect, got;
        reference_spmv(a, x, expect);
        index_t threads = 1 + static_cast<index_t>(rng.next_below(100));
        MergePathSchedule sched = MergePathSchedule::build(a, threads);
        mergepath_spmv(a, x, got, sched, pool);
        for (size_t i = 0; i < expect.size(); ++i)
            ASSERT_NEAR(got[i], expect[i], 1e-3)
                << "seed " << GetParam() << " iter " << iter;
    }
}

TEST_P(FuzzTest, PermutationInverseRoundTrip)
{
    Pcg32 rng(static_cast<uint64_t>(GetParam()) * 13 + 5);
    for (int iter = 0; iter < 4; ++iter) {
        // Square matrix for symmetric permutation.
        CsrMatrix raw = random_csr(rng, 40, 40);
        index_t n = std::min(raw.rows(), raw.cols());
        // Crop to square by rebuilding.
        std::vector<index_t> row_ptr(static_cast<size_t>(n) + 1, 0);
        std::vector<index_t> cols;
        std::vector<value_t> vals;
        for (index_t r = 0; r < n; ++r) {
            for (index_t k = raw.row_begin(r); k < raw.row_end(r); ++k) {
                if (raw.col_idx()[k] < n) {
                    cols.push_back(raw.col_idx()[k]);
                    vals.push_back(raw.values()[k]);
                }
            }
            row_ptr[static_cast<size_t>(r) + 1] =
                static_cast<index_t>(cols.size());
        }
        CsrMatrix a(n, n, std::move(row_ptr), std::move(cols),
                    std::move(vals));
        // Normalize row ordering (permute sorts columns per row).
        std::vector<index_t> identity(static_cast<size_t>(n));
        std::iota(identity.begin(), identity.end(), 0);
        a = permute_symmetric(a, identity);

        // Random permutation, apply, apply inverse: back to original.
        std::vector<index_t> perm(static_cast<size_t>(n));
        std::iota(perm.begin(), perm.end(), 0);
        for (size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1],
                      perm[rng.next_below(static_cast<uint32_t>(i))]);
        std::vector<index_t> inverse(perm.size());
        for (index_t old_id = 0; old_id < n; ++old_id)
            inverse[static_cast<size_t>(
                perm[static_cast<size_t>(old_id)])] = old_id;

        CsrMatrix forth = permute_symmetric(a, perm);
        CsrMatrix back = permute_symmetric(forth, inverse);
        ASSERT_EQ(back.row_ptr(), a.row_ptr());
        ASSERT_EQ(back.col_idx(), a.col_idx());
    }
}

/**
 * Random strictly-valid CSR (sorted, duplicate-free columns) with small
 * INTEGER values: every SpMM partial sum is an integer well inside
 * 2^24, so accumulation order cannot change the result and dynamic /
 * repaired execution can be compared bit-for-bit against references.
 */
CsrMatrix
random_strict_csr(Pcg32 &rng, index_t max_rows = 50,
                  index_t max_cols = 50)
{
    index_t rows = 1 + static_cast<index_t>(
                       rng.next_below(static_cast<uint32_t>(max_rows)));
    index_t cols = 1 + static_cast<index_t>(
                       rng.next_below(static_cast<uint32_t>(max_cols)));
    std::vector<index_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
    std::vector<index_t> col_idx;
    std::vector<value_t> values;
    std::vector<uint8_t> used(static_cast<size_t>(cols));
    for (index_t r = 0; r < rows; ++r) {
        std::fill(used.begin(), used.end(), 0);
        index_t degree = static_cast<index_t>(rng.next_below(
            static_cast<uint32_t>(std::min<index_t>(cols, 8)) + 1));
        for (index_t k = 0; k < degree; ++k)
            used[rng.next_below(static_cast<uint32_t>(cols))] = 1;
        for (index_t c = 0; c < cols; ++c) {
            if (used[static_cast<size_t>(c)] == 0)
                continue;
            col_idx.push_back(c);
            values.push_back(static_cast<value_t>(
                static_cast<int32_t>(rng.next_below(7)) - 3));
        }
        row_ptr[static_cast<size_t>(r) + 1] =
            static_cast<index_t>(col_idx.size());
    }
    return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

GraphDelta
random_delta(Pcg32 &rng, index_t rows, index_t cols, int edges)
{
    GraphDelta delta;
    for (int i = 0; i < edges; ++i) {
        EdgeUpdate e;
        e.row = static_cast<index_t>(
            rng.next_below(static_cast<uint32_t>(rows)));
        e.col = static_cast<index_t>(
            rng.next_below(static_cast<uint32_t>(cols)));
        e.value = static_cast<value_t>(
            static_cast<int32_t>(rng.next_below(9)) - 4);
        if (rng.next_below(4) == 0)
            delta.removes.push_back(e);
        else
            delta.upserts.push_back(e);
    }
    return delta;
}

void
fill_integer_dense(DenseMatrix &m, Pcg32 &rng)
{
    for (index_t r = 0; r < m.rows(); ++r)
        for (index_t c = 0; c < m.cols(); ++c)
            m(r, c) = static_cast<value_t>(
                static_cast<int32_t>(rng.next_below(7)) - 3);
}

void
expect_bitwise_equal(const DenseMatrix &got, const DenseMatrix &want,
                     int seed, int iter, const char *what)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (index_t r = 0; r < got.rows(); ++r)
        for (index_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(got(r, c), want(r, c))
                << what << " differs at (" << r << ", " << c
                << "), seed " << seed << " iter " << iter;
}

/**
 * Dynamic-graph equivalence: base-SpMM + correction pass over a
 * DeltaCsr must be BIT-identical to plain SpMM over the eagerly
 * rebuilt (materialized) CSR, batch after batch, and the incrementally
 * repaired schedule must reproduce a fresh build's results after every
 * compaction. Covers: random 1-40-thread schedules, sequential and on a
 * 3-worker pool (integer data, so also against reference_spmm).
 */
TEST_P(FuzzTest, DynamicSpmmMatchesMaterializedCsr)
{
    Pcg32 rng(static_cast<uint64_t>(GetParam()) * 6151 + 11);
    WorkStealPool pool(3);
    for (int iter = 0; iter < 4; ++iter) {
        CsrMatrix base = random_strict_csr(rng);
        DeltaCsr dcsr(base);
        index_t dim = fuzz_dim(rng);
        DenseMatrix b(base.cols(), dim);
        fill_integer_dense(b, rng);

        index_t threads = 1 + static_cast<index_t>(rng.next_below(40));
        MergePathSchedule sched = MergePathSchedule::build(base, threads);

        for (int batch = 0; batch < 3; ++batch) {
            dcsr.apply(random_delta(rng, dcsr.rows(), dcsr.cols(),
                                    1 + static_cast<int>(
                                            rng.next_below(10))));
            dcsr.validate();
            CsrMatrix rebuilt = dcsr.materialize();
            rebuilt.validate(CsrValidate::kStrict);
            ASSERT_EQ(rebuilt.nnz(), dcsr.nnz());
            DenseMatrix expect(base.rows(), dim);
            reference_spmm(rebuilt, b, expect);

            // The schedule built for the ORIGINAL base stays valid
            // across every apply(): only compaction swaps the base.
            DenseMatrix seq(base.rows(), dim);
            dynamic_spmm_sequential(dcsr, b, seq, sched);
            expect_bitwise_equal(seq, expect, GetParam(), iter,
                                 "dynamic sequential");
            DenseMatrix par(base.rows(), dim);
            dynamic_spmm_parallel(dcsr, b, par, sched, pool);
            expect_bitwise_equal(par, expect, GetParam(), iter,
                                 "dynamic parallel");
        }

        // Compact, repair the schedule, and check the repaired plan
        // against a fresh build on the new base — bit-for-bit.
        DeltaCsr::CompactResult cr = dcsr.compact();
        EXPECT_EQ(dcsr.delta_edges(), 0);
        ScheduleRepair rep = repair_schedule(
            sched, *cr.old_base, *cr.new_base, cr.first_dirty_row);
        const CsrMatrix &fresh_a = *cr.new_base;
        rep.schedule.validate(fresh_a);
        DenseMatrix expect(fresh_a.rows(), dim);
        reference_spmm(fresh_a, b, expect);
        DenseMatrix repaired(fresh_a.rows(), dim);
        mergepath_spmm_parallel(fresh_a, b, repaired, rep.schedule,
                                pool);
        expect_bitwise_equal(repaired, expect, GetParam(), iter,
                             "repaired schedule");
        MergePathSchedule fresh_sched =
            MergePathSchedule::build(fresh_a, threads);
        DenseMatrix fresh(fresh_a.rows(), dim);
        mergepath_spmm_parallel(fresh_a, b, fresh, fresh_sched, pool);
        expect_bitwise_equal(fresh, repaired, GetParam(), iter,
                             "fresh vs repaired");
        // Census decomposability on the repaired schedule.
        ScheduleCensusPart left = rep.schedule.census_part(
            fresh_a, 0, rep.dirty_begin);
        ScheduleCensusPart right = rep.schedule.census_part(
            fresh_a, rep.dirty_begin, rep.schedule.num_threads());
        ScheduleCensus full = rep.schedule.census(fresh_a);
        ScheduleCensus merged = left.merged(right).counts;
        EXPECT_EQ(merged.atomic_commits, full.atomic_commits);
        EXPECT_EQ(merged.plain_row_writes, full.plain_row_writes);
        EXPECT_EQ(merged.split_rows, full.split_rows);
        EXPECT_EQ(merged.atomic_nnz, full.atomic_nnz);
        EXPECT_EQ(merged.plain_nnz, full.plain_nnz);
    }
}

/**
 * Test sink of a streamed run: ReLU on every finished row, then a copy
 * into columns [col0, col0 + width) of @p out, where col0 tracks the
 * panel in flight (the sweep hands panel-local rows).
 */
struct ReluSink
{
    DenseMatrix *out = nullptr;
    index_t col0 = 0;

    static void apply(const FinishedRow *rows, int count, index_t c_col0,
                      index_t width, const void *ctx)
    {
        const auto &s = *static_cast<const ReluSink *>(ctx);
        activation_epilogue(Activation::kRelu)(rows, count, c_col0, width,
                                               nullptr);
        for (int i = 0; i < count; ++i)
            std::copy(rows[i].crow, rows[i].crow + width,
                      s.out->row(rows[i].row) + s.col0);
    }
};

/**
 * Fused-vs-unfused differential fuzz: random strict graphs, random
 * panel widths (including misaligned ones), random thread counts.
 * Integer-valued operands make every partial sum exact, so misaligned
 * panel splits cannot change the result — the fused pipeline must be
 * BIT-identical to dense_gemm -> SpMM -> activation. Covers: random
 * 1-60-thread schedules on a 3-worker pool.
 */
TEST_P(FuzzTest, FusedForwardMatchesUnfused)
{
    Pcg32 rng(static_cast<uint64_t>(GetParam()) * 2017 + 29);
    WorkStealPool pool(3);
    for (int iter = 0; iter < 6; ++iter) {
        CsrMatrix a = random_strict_csr(rng);
        index_t f = 1 + static_cast<index_t>(rng.next_below(24));
        index_t dim = fuzz_dim(rng);
        DenseMatrix x(a.cols(), f), w(f, dim);
        fill_integer_dense(x, rng);
        fill_integer_dense(w, rng);

        DenseMatrix xw(a.cols(), dim);
        dense_gemm(x, w, xw, pool);
        index_t threads = 1 + static_cast<index_t>(rng.next_below(60));
        MergePathSchedule sched = MergePathSchedule::build(a, threads);
        DenseMatrix expect(a.rows(), dim);
        mergepath_spmm_parallel(a, xw, expect, sched, pool);
        apply_activation(expect, Activation::kRelu);

        SpmmLocality loc;
        loc.tile_d = 1 + static_cast<index_t>(rng.next_below(
                             static_cast<uint32_t>(dim) + 4));
        FusedLayerPlan plan(a, dim, borrow_schedule(sched), loc);
        DenseMatrix got(a.rows(), dim);
        plan.run(gemm_panel_source(x, w, pool), got, pool,
                 activation_epilogue(Activation::kRelu));
        expect_bitwise_equal(got, expect, GetParam(), iter,
                             "fused forward");

        // Streaming mode re-derives the same panels, row by row.
        DenseMatrix streamed(a.rows(), dim);
        streamed.fill(-1.0f);
        ReluSink sink{&streamed, 0};
        plan.run_streaming(
            gemm_panel_source(x, w, pool),
            [&sink](index_t col0, index_t width) {
                sink.col0 = col0 + width;
            },
            pool, &ReluSink::apply, &sink);
        expect_bitwise_equal(streamed, expect, GetParam(), iter,
                             "fused streaming");
    }
}

/**
 * Quantized SpMM stays within the analytically derived bound: for
 * output element (r, c), |c_f32 - c_quant| <= sum over the row's
 * non-zeros of |a_rk| * |b(col_k, c) - decode(encode(b(col_k, c)))|.
 * The per-element quantization error is computed exactly from the
 * shadow storage, so the only slack needed is fp32 accumulation-order
 * noise. Exercises the full mergepath pipeline at bf16 on random
 * (degenerate-shape) graphs.
 */
TEST_P(FuzzTest, QuantizedSpmmWithinBound)
{
    Pcg32 rng(static_cast<uint64_t>(GetParam()) * 911 + 13);
    WorkStealPool pool(3);
    for (int iter = 0; iter < 5; ++iter) {
        CsrMatrix a = random_csr(rng);
        index_t dim = fuzz_dim(rng);
        DenseMatrix b(a.cols(), dim);
        b.fill_random(rng);
        DenseMatrix expect(a.rows(), dim);
        reference_spmm(a, b, expect);

        index_t threads = 1 + static_cast<index_t>(rng.next_below(60));
        MergePathSchedule sched = MergePathSchedule::build(a, threads);

        b.quantize(StorageMode::kBf16);
        // Exact per-element quantization error of the B operand.
        DenseMatrix qerr(b.rows(), dim);
        for (index_t r = 0; r < b.rows(); ++r)
            for (index_t c = 0; c < dim; ++c)
                qerr(r, c) =
                    std::fabs(b(r, c) - bf16_decode(b.row_bf16(r)[c]));
        DenseMatrix got(a.rows(), dim);
        mergepath_spmm_parallel(a, b, got, sched, pool);
        for (index_t r = 0; r < a.rows(); ++r) {
            for (index_t c = 0; c < dim; ++c) {
                value_t bound = 0.0f;
                for (index_t k = a.row_begin(r); k < a.row_end(r); ++k)
                    bound += std::fabs(a.values()[k]) *
                             qerr(a.col_idx()[k], c);
                const value_t slack =
                    1e-3f + 1e-3f * std::fabs(expect(r, c));
                ASSERT_LE(std::fabs(got(r, c) - expect(r, c)),
                          bound + slack)
                    << "bf16 at (" << r << ", " << c << "), seed "
                    << GetParam() << " iter " << iter;
            }
        }
        b.quantize(StorageMode::kF32);
    }
}

/**
 * fp32 bit-identity: attaching and releasing narrow shadow storage
 * must leave the fp32 master — and therefore every f32-mode kernel
 * output — BIT-identical to a matrix that was never quantized. This
 * pins the acceptance criterion that the default path's numerics are
 * untouched by the mixed-precision machinery. Covers: random
 * 1-60-thread schedules, each run twice on one 3-worker pool. The data
 * is float, so the claim also rests on the carry fix-up summing split
 * rows in a fixed order.
 */
TEST_P(FuzzTest, QuantizeRoundTripKeepsF32BitIdentity)
{
    Pcg32 rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
    WorkStealPool pool(3);
    for (int iter = 0; iter < 5; ++iter) {
        CsrMatrix a = random_csr(rng);
        index_t dim = fuzz_dim(rng);
        DenseMatrix b(a.cols(), dim);
        b.fill_random(rng);

        index_t threads = 1 + static_cast<index_t>(rng.next_below(60));
        MergePathSchedule sched = MergePathSchedule::build(a, threads);
        DenseMatrix before(a.rows(), dim);
        mergepath_spmm_parallel(a, b, before, sched, pool);

        // Round-trip through bf16 back to f32.
        b.quantize(StorageMode::kBf16);
        b.quantize(StorageMode::kF32);
        EXPECT_EQ(b.storage(), StorageMode::kF32);

        DenseMatrix after(a.rows(), dim);
        mergepath_spmm_parallel(a, b, after, sched, pool);
        expect_bitwise_equal(after, before, GetParam(), iter,
                             "f32 after quantize round-trip");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, testing::Range(1, 13));

} // namespace
} // namespace mps
