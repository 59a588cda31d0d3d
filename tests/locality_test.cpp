/**
 * Tests for the cache-locality layer: column-tiled merge-path
 * traversal and software prefetch on the gather path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mps/core/locality.h"
#include "mps/core/spmm.h"
#include "mps/kernels/adaptive.h"
#include "mps/sparse/generate.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

DenseMatrix
random_dense(index_t rows, index_t cols, uint64_t seed)
{
    DenseMatrix m(rows, cols);
    Pcg32 rng(seed);
    m.fill_random(rng);
    return m;
}

CsrMatrix
evil_graph(index_t nodes, index_t nnz, index_t max_degree, uint64_t seed)
{
    PowerLawParams p;
    p.nodes = nodes;
    p.target_nnz = nnz;
    p.max_degree = max_degree;
    p.seed = seed;
    return power_law_graph(p);
}

testing::AssertionResult
bit_identical(const DenseMatrix &got, const DenseMatrix &expect)
{
    if (got.rows() != expect.rows() || got.cols() != expect.cols())
        return testing::AssertionFailure() << "shape mismatch";
    for (index_t r = 0; r < got.rows(); ++r) {
        for (index_t d = 0; d < got.cols(); ++d) {
            if (got(r, d) != expect(r, d)) {
                return testing::AssertionFailure()
                       << "(" << r << ", " << d << "): got " << got(r, d)
                       << " expect " << expect(r, d);
            }
        }
    }
    return testing::AssertionSuccess();
}

// ---------------------------------------------------------------------
// Auto-tuning math.
// ---------------------------------------------------------------------

TEST(LocalityConfig, L2DetectionYieldsPlausibleSize)
{
    int64_t l2 = detected_l2_bytes();
    EXPECT_GE(l2, 64 << 10);  // nothing ships less than 64 KiB
    EXPECT_LE(l2, 512 << 20); // or more than half a GiB per core
    EXPECT_EQ(l2, detected_l2_bytes()); // cached, stable
    EXPECT_GE(detected_llc_bytes(), l2); // outermost level dominates
}

TEST(LocalityConfig, SmallOperandIsNeverTiled)
{
    // 64 rows x 32 cols x 4 B = 8 KiB: fits any L2, so auto tiling
    // must degenerate to one full-width sweep.
    EXPECT_EQ(auto_tile_d(64, 32), 32);
    SpmmLocality loc;
    loc.tile_d = auto_tile_d(64, 32);
    EXPECT_FALSE(loc.tiled(32));
}

TEST(LocalityConfig, AutoWidthIsFullWidthOrSimdAlignedPanel)
{
    // Whatever regime each shape lands in on this host, the result is
    // either "don't tile" (== dim) or a SIMD-aligned width in
    // [32, 256].
    for (index_t n_cols : {1 << 10, 1 << 14, 1 << 17, 1 << 20}) {
        for (index_t dim : {64, 256, 1024}) {
            index_t w = auto_tile_d(n_cols, dim);
            if (w != dim) {
                EXPECT_GE(w, 32) << n_cols << "x" << dim;
                EXPECT_LE(w, 256) << n_cols << "x" << dim;
                EXPECT_EQ(w % 16, 0)
                    << "panel width must stay SIMD-block aligned";
                EXPECT_LT(w, dim);
            }
        }
    }
}

TEST(LocalityConfig, FullResidencyRegimeTilesStreamingDoesNot)
{
    const int64_t budget =
        std::min<int64_t>(detected_llc_bytes(), 64 << 20) / 2;
    // 128k rows: a 64-element panel costs 32 MB — resident on hosts
    // with a big LLC, streaming on small ones. The policy must tile
    // exactly when residency is affordable and the operand overflows
    // the LLC.
    const index_t n_cols = 1 << 17, dim = 1024;
    const int64_t operand = static_cast<int64_t>(n_cols) * dim * 4;
    index_t w = auto_tile_d(n_cols, dim);
    int64_t afford = budget / (static_cast<int64_t>(n_cols) * 4) / 16 * 16;
    if (operand > detected_llc_bytes() && afford >= 32) {
        EXPECT_EQ(w, std::min<int64_t>(afford, 256));
    } else {
        EXPECT_EQ(w, dim) << "outside full residency: never tile";
    }
    // 16M rows can never be panel-resident: streaming regime, no tile.
    EXPECT_EQ(auto_tile_d(1 << 24, 1024), 1024);
}

TEST(LocalityConfig, TileNeverExceedsDimension)
{
    // Operand too big for L2 but a narrow dimension: no tiling.
    index_t w = auto_tile_d(1 << 20, 16);
    EXPECT_EQ(w, 16);
    SpmmLocality loc;
    loc.tile_d = w;
    EXPECT_FALSE(loc.tiled(16));
}

TEST(LocalityConfig, PrefetchDistanceClampsToSaneWindow)
{
    EXPECT_EQ(auto_prefetch_distance(0), 0);
    EXPECT_EQ(auto_prefetch_distance(1), 8); // 1024/1 clamped down
    EXPECT_EQ(auto_prefetch_distance(128), 8);
    EXPECT_EQ(auto_prefetch_distance(256), 4);
    EXPECT_EQ(auto_prefetch_distance(4096), 2); // never below 2
}

TEST(LocalityConfig, TiledPredicate)
{
    SpmmLocality loc;
    EXPECT_FALSE(loc.tiled(128)); // default = pre-locality behavior
    loc.tile_d = 64;
    EXPECT_TRUE(loc.tiled(128));
    EXPECT_FALSE(loc.tiled(64)); // tile >= dim is one sweep
    EXPECT_FALSE(loc.tiled(32));
}

// ---------------------------------------------------------------------
// Column tiling: bit-identity and correctness.
// ---------------------------------------------------------------------

TEST(TiledSpmm, SequentialBitIdenticalToUntiledAcrossOddDims)
{
    CsrMatrix a = evil_graph(300, 2500, 250, 7);
    for (index_t dim : {17, 33, 100}) {
        DenseMatrix b = random_dense(a.cols(), dim, 11);
        MergePathSchedule s = MergePathSchedule::build(a, 64);

        DenseMatrix untiled(a.rows(), dim);
        mergepath_spmm_sequential(a, b, untiled, s);

        // SIMD-block-aligned widths must reproduce the untiled result
        // bit for bit: the panel loop partitions columns, never the
        // non-zero stream. Covers: one 64-thread schedule, sequential
        // (determinism_test.cpp runs tiled sweeps on 1/3/8 workers).
        for (index_t tile : {16, 32, 48}) {
            SpmmLocality loc;
            loc.tile_d = tile;
            DenseMatrix tiled(a.rows(), dim);
            mergepath_spmm_sequential(a, b, tiled, s, loc);
            EXPECT_TRUE(bit_identical(tiled, untiled))
                << "dim=" << dim << " tile=" << tile;
        }
    }
}

TEST(TiledSpmm, UnalignedTileWidthStaysNumericallyExact)
{
    // A width that cuts SIMD blocks (7) exercises the scalar tails on
    // every panel; correctness must hold even though FMA-vs-mul/add
    // rounding may differ from the untiled run by ulps.
    CsrMatrix a = evil_graph(200, 1500, 150, 9);
    DenseMatrix b = random_dense(a.cols(), 33, 13);
    DenseMatrix expect(a.rows(), 33), got(a.rows(), 33);
    reference_spmm(a, b, expect);
    MergePathSchedule s = MergePathSchedule::build(a, 37);
    SpmmLocality loc;
    loc.tile_d = 7;
    mergepath_spmm_sequential(a, b, got, s, loc);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4))
        << "diff=" << got.max_abs_diff(expect);
}

TEST(TiledSpmm, PrefetchNeverChangesBits)
{
    CsrMatrix a = evil_graph(300, 2500, 250, 7);
    DenseMatrix b = random_dense(a.cols(), 100, 17);
    MergePathSchedule s = MergePathSchedule::build(a, 64);

    DenseMatrix plain(a.rows(), 100);
    mergepath_spmm_sequential(a, b, plain, s);

    SpmmLocality loc;
    loc.tile_d = 32;
    loc.prefetch = 8; // reads ahead of the cursor, ASan-checked
    // Covers: one 64-thread schedule, sequential.
    DenseMatrix prefetched(a.rows(), 100);
    mergepath_spmm_sequential(a, b, prefetched, s, loc);
    EXPECT_TRUE(bit_identical(prefetched, plain));
}

TEST(TiledSpmm, ParallelTiledMatchesReference)
{
    CsrMatrix a = evil_graph(500, 6000, 400, 21);
    WorkStealPool pool(4);
    for (index_t dim : {17, 33, 100}) {
        DenseMatrix b = random_dense(a.cols(), dim, 23);
        DenseMatrix expect(a.rows(), dim), got(a.rows(), dim);
        reference_spmm(a, b, expect);
        MergePathSchedule s = MergePathSchedule::build(a, 256);
        SpmmLocality loc;
        loc.tile_d = 16;
        loc.prefetch = 4;
        mergepath_spmm_parallel(a, b, got, s, pool, loc);
        EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4))
            << "dim=" << dim << " diff=" << got.max_abs_diff(expect);
    }
}

TEST(TiledSpmm, DefaultEntryPointsStillMatchReference)
{
    // The legacy signatures now resolve MPS_TILE_D / MPS_PREFETCH
    // internally; whatever they resolve to must stay correct.
    CsrMatrix a = evil_graph(400, 4000, 300, 31);
    DenseMatrix b = random_dense(a.cols(), 64, 37);
    DenseMatrix expect(a.rows(), 64), got(a.rows(), 64);
    reference_spmm(a, b, expect);
    WorkStealPool pool(4);
    mergepath_spmm(a, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4));
}

// ---------------------------------------------------------------------
// Adaptive strategy selection.
// ---------------------------------------------------------------------

TEST(AdaptiveTiling, WideDimensionSelectsTiledMergePath)
{
    // Skewed graph + a dimension the auto-tuner tiles on this machine
    // -> the adaptive kernel must pick the tiled merge-path variant and
    // still match the reference.
    CsrMatrix a = evil_graph(3000, 30000, 2500, 89);
    const index_t dim = 512;
    AdaptiveSpmm kernel;
    kernel.prepare(a, dim);
    if (default_spmm_locality(a.cols(), dim).tiled(dim)) {
        EXPECT_EQ(kernel.strategy(), AdaptiveStrategy::kMergePathTiled);
    }

    DenseMatrix b = random_dense(a.cols(), dim, 97);
    DenseMatrix expect(a.rows(), dim), got(a.rows(), dim);
    reference_spmm(a, b, expect);
    WorkStealPool pool(4);
    kernel.run(a, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4))
        << "diff=" << got.max_abs_diff(expect);
}

TEST(AdaptiveTiling, NarrowDimensionFallsBackUntiled)
{
    // d = 8 never tiles (tile floor is 32): selection must fall back to
    // the skew heuristic, never kMergePathTiled.
    CsrMatrix a = evil_graph(500, 5000, 400, 101);
    AdaptiveSpmm kernel;
    kernel.prepare(a, 8);
    EXPECT_NE(kernel.strategy(), AdaptiveStrategy::kMergePathTiled);

    DenseMatrix b = random_dense(a.cols(), 8, 103);
    DenseMatrix expect(a.rows(), 8), got(a.rows(), 8);
    reference_spmm(a, b, expect);
    WorkStealPool pool(4);
    kernel.run(a, b, got, pool);
    EXPECT_TRUE(got.approx_equal(expect, 1e-3, 1e-4));
}

} // namespace
} // namespace mps
