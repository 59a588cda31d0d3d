/** Tests for GEMM, activations, GCN layers and the model. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/gcn/layer.h"
#include "mps/gcn/model.h"
#include "mps/core/fusion.h"
#include "mps/core/microkernel.h"
#include "mps/core/precision.h"
#include "mps/core/spmm.h"
#include "mps/kernels/registry.h"
#include "mps/sparse/generate.h"
#include "mps/sparse/quant.h"
#include "mps/util/metrics.h"
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

TEST(Gemm, HandExample)
{
    DenseMatrix x(2, 3), w(3, 2), out(2, 2);
    // x = [1 2 3; 4 5 6], w = [1 0; 0 1; 1 1]
    x(0, 0) = 1; x(0, 1) = 2; x(0, 2) = 3;
    x(1, 0) = 4; x(1, 1) = 5; x(1, 2) = 6;
    w(0, 0) = 1; w(1, 1) = 1; w(2, 0) = 1; w(2, 1) = 1;
    reference_gemm(x, w, out);
    EXPECT_FLOAT_EQ(out(0, 0), 4.0f);
    EXPECT_FLOAT_EQ(out(0, 1), 5.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 10.0f);
    EXPECT_FLOAT_EQ(out(1, 1), 11.0f);
}

void
expect_bitwise(const DenseMatrix &got, const DenseMatrix &want,
               const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (index_t r = 0; r < got.rows(); ++r)
        for (index_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(got(r, c), want(r, c))
                << what << " differs at (" << r << ", " << c << ")";
}

/** Every element is one k-ascending FMA chain, whatever tile owns it. */
TEST(Gemm, ParallelMatchesReference)
{
    WorkStealPool pool(4);
    DenseMatrix x = random_dense(301, 47, 1);
    DenseMatrix w = random_dense(47, 19, 2);
    DenseMatrix expect(301, 19), got(301, 19);
    reference_gemm(x, w, expect);
    dense_gemm(x, w, got, pool);
    expect_bitwise(got, expect, "dense_gemm 301x47x19");
}

/**
 * The register tile and its row (1-5) and column (one-vector, masked)
 * tails against the plain triple loop, bit for bit. 24..64 are the
 * 32-column tile's full, half and masked tails on AVX-512.
 */
TEST(Gemm, BlockedKernelMatchesKAscendingReference)
{
    WorkStealPool pool(3);
    for (index_t rows : {1, 5, 6, 7, 301})
        for (index_t width : {1, 7, 8, 15, 16, 17, 24, 31, 32, 33, 48, 63,
                              64, 128})
            for (index_t f : {1, 3, 16, 128}) {
                const auto seed = static_cast<uint64_t>(
                    rows * 10007 + width * 101 + f);
                DenseMatrix x = random_dense(rows, f, seed);
                DenseMatrix w = random_dense(f, width, seed + 1);
                DenseMatrix want(rows, width), got(rows, width);
                reference_gemm(x, w, want);
                dense_gemm(x, w, got, pool);
                expect_bitwise(got, want,
                               "rows=" + std::to_string(rows) +
                                   " width=" + std::to_string(width) +
                                   " f=" + std::to_string(f));
            }
}

/** Column slices at offsets off the 16-column tile grid. */
TEST(Gemm, PanelAtUnalignedOffsetsMatchesFullGemm)
{
    WorkStealPool pool(3);
    const index_t n = 97, f = 29, d = 53;
    DenseMatrix x = random_dense(n, f, 5);
    DenseMatrix w = random_dense(f, d, 6);
    DenseMatrix full(n, d);
    dense_gemm(x, w, full, pool);
    struct Case { index_t w_col0, width, panel_col0; };
    for (const Case c : {Case{0, 53, 0}, Case{3, 17, 0}, Case{17, 9, 5},
                         Case{1, 40, 11}, Case{45, 8, 3}, Case{50, 3, 29}}) {
        DenseMatrix panel(n, 64);
        panel.fill(-3.0f); // overwritten, not accumulated
        dense_gemm_panel(x, 0, w, c.w_col0, c.width, panel, c.panel_col0,
                         pool);
        for (index_t r = 0; r < n; ++r)
            for (index_t j = 0; j < c.width; ++j)
                ASSERT_EQ(panel(r, c.panel_col0 + j), full(r, c.w_col0 + j))
                    << "w_col0=" << c.w_col0 << " panel_col0="
                    << c.panel_col0 << " at (" << r << ", " << j << ")";
    }
    // A column block read in place: X embedded at column offset f of
    // a wider matrix (the serve path's per-request block of a batch).
    DenseMatrix wider = random_dense(n, 3 * f, 9);
    for (index_t r = 0; r < n; ++r)
        for (index_t k = 0; k < f; ++k)
            wider(r, f + k) = x(r, k);
    DenseMatrix block(n, d);
    dense_gemm_panel(wider, f, w, 0, d, block, 0, pool);
    for (index_t r = 0; r < n; ++r)
        for (index_t j = 0; j < d; ++j)
            ASSERT_EQ(block(r, j), full(r, j)) << "at (" << r << ", " << j
                                               << ")";
}

/** Accumulate mode continues each chain: k-split panels == one GEMM. */
TEST(Gemm, RankUpdateAcrossPanelsMatchesFullGemm)
{
    WorkStealPool pool(3);
    const index_t n = 151, hidden = 37, d = 21;
    DenseMatrix h = random_dense(n, hidden, 7);
    DenseMatrix w = random_dense(hidden, d, 8);
    DenseMatrix want(n, d);
    dense_gemm(h, w, want, pool);
    DenseMatrix got(n, d);
    index_t k0 = 0;
    for (index_t width : {5, 16, 11, 5}) {
        DenseMatrix panel(n, width);
        for (index_t r = 0; r < n; ++r)
            for (index_t k = 0; k < width; ++k)
                panel(r, k) = h(r, k0 + k);
        dense_gemm_rank_update(panel, width, w, k0, got, pool);
        k0 += width;
    }
    ASSERT_EQ(k0, hidden);
    expect_bitwise(got, want, "rank updates");
}

/** Bit patterns agree, NaN and the sign of zero included. */
void
expect_same_bits(const DenseMatrix &got, const DenseMatrix &want,
                 const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (index_t r = 0; r < want.rows(); ++r)
        for (index_t c = 0; c < want.cols(); ++c) {
            const value_t *gv = got.row(r) + c;
            uint32_t g = 0, w = 0;
            std::memcpy(&g, gv, sizeof g);
            std::memcpy(&w, want.row(r) + c, sizeof w);
            ASSERT_EQ(g, w) << what << " differs at (" << r << ", " << c
                            << "): " << *gv << " vs " << want(r, c);
        }
}

/**
 * Hands columns [col0, col0 + width) of @p m's rows to @p apply in
 * consecutive batches of fills[0], fills[1], ... rows. Even batches
 * are rows of @p m in place; odd ones are per-row copies in descending
 * row order, so the batch's rows share no stride.
 */
template <class F>
void
feed_batches(DenseMatrix &m, index_t col0, index_t width,
             const std::vector<int> &fills, F &&apply)
{
    index_t r0 = 0;
    for (size_t b = 0; b < fills.size(); ++b) {
        const int count = fills[b];
        const bool scattered = b % 2 == 1;
        std::vector<std::vector<value_t>> copies;
        copies.reserve(static_cast<size_t>(count));
        FinishedRow batch[kEpilogueBatchRows];
        for (int i = 0; i < count; ++i) {
            const index_t r = scattered ? r0 + count - 1 - i : r0 + i;
            value_t *src = m.row(r) + col0;
            if (scattered) {
                copies.emplace_back(src, src + width);
                src = copies.back().data();
            }
            batch[i] = {src, r};
        }
        apply(batch, count);
        r0 += count;
    }
    ASSERT_EQ(r0, m.rows());
}

/**
 * The batched epilogues equal the whole-matrix GEMMs (and the unfused
 * activation) bit for bit: every batch fill from 1 to
 * kEpilogueBatchRows, each once with adjacent rows and once with
 * scattered per-row copies; a masked tail on every dimension (in 12,
 * 16, 33; hidden 37, 128; out 1, 9, 16); the rank update in one
 * panel and across panels of
 * 5, 16 and 11 columns (w_row0 > 0 continues each row's chains, as in
 * RankUpdateAcrossPanelsMatchesFullGemm); ReLU and sigmoid. ReLU
 * inputs hold NaN and -0.0 (a product chain that underflows), which
 * must come out +0.
 */
TEST(Gemm, RowEpiloguesMatchWholeGemms)
{
    WorkStealPool pool(2);
    std::vector<int> fills;
    for (int f = 1; f <= kEpilogueBatchRows; ++f)
        fills.insert(fills.end(), {f, f});
    index_t n = 0;
    for (const int f : fills)
        n += f;
    const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
    const value_t tiny = std::numeric_limits<value_t>::denorm_min();

    struct Shape
    {
        index_t in, hidden, out;
    };
    std::vector<Shape> shapes;
    for (const index_t in : {12, 16, 33})
        for (const index_t hidden : {37, 128})
            for (const index_t out : {1, 9, 16})
                shapes.push_back({in, hidden, out});
    uint64_t seed = 30;
    for (const Activation act : {Activation::kRelu, Activation::kSigmoid})
        for (const Shape &shape : shapes) {
            const index_t in = shape.in, hidden = shape.hidden,
                          out = shape.out;
            const std::string what = std::string(act == Activation::kRelu
                                                     ? "relu"
                                                     : "sigmoid") +
                                     " " + std::to_string(in) + "-" +
                                     std::to_string(hidden) + "-" +
                                     std::to_string(out);
            DenseMatrix t = random_dense(n, in, ++seed);
            DenseMatrix w = random_dense(in, hidden, ++seed);
            DenseMatrix w_next = random_dense(hidden, out, ++seed);
            DenseMatrix rank_in = random_dense(n, hidden, ++seed);
            if (act == Activation::kRelu) {
                // Row 3's products are NaN; row 4's first output sums
                // products that round to -0.0 before the activation.
                t(3, in - 1) = nan;
                for (index_t k = 0; k < in; ++k) {
                    t(4, k) = -tiny;
                    w(k, 0) = std::abs(w(k, 0)) * 0.25f;
                }
                rank_in(5, 0) = nan;
                rank_in(6, hidden - 1) = -0.0f;
            }
            DenseMatrix h(n, hidden), want_xw(n, out), want_rank(n, out);
            dense_gemm(t, w, h, pool);
            if (act == Activation::kRelu) {
                ASSERT_TRUE(std::signbit(h(4, 0)) && h(4, 0) == 0.0f);
            }
            apply_activation(h, act);
            dense_gemm(h, w_next, want_xw, pool);
            DenseMatrix rank_act = rank_in;
            apply_activation(rank_act, act);
            dense_gemm(rank_act, w_next, want_rank, pool);

            DenseMatrix got_h(n, hidden), got_xw(n, out), got_rank(n, out),
                got_panels(n, out);
            for (DenseMatrix *m : {&got_h, &got_xw, &got_rank, &got_panels})
                m->fill(nan); // every element must be stored
            const CombineEpilogue store =
                make_combine_epilogue(act, w, got_h, nullptr);
            const CombineEpilogue fold =
                make_combine_epilogue(act, w, got_xw, &w_next);
            const RankUpdateEpilogue rank =
                make_rank_update_epilogue(act, w_next, got_rank);
            RankUpdateEpilogue panels =
                make_rank_update_epilogue(act, w_next, got_panels);

            feed_batches(t, 0, in, fills, [&](FinishedRow *rows, int count) {
                CombineEpilogue::apply(rows, count, 0, in, &store);
                CombineEpilogue::apply(rows, count, 0, in, &fold);
            });
            feed_batches(rank_in, 0, hidden, fills,
                         [&](FinishedRow *rows, int count) {
                             RankUpdateEpilogue::apply(rows, count, 0, hidden,
                                                       &rank);
                         });
            const index_t panel_widths[] = {5, 16, 11};
            index_t k0 = 0;
            for (int p = 0; k0 < hidden; ++p) {
                const index_t width =
                    std::min(panel_widths[p % 3], hidden - k0);
                panels.w_row0 = k0;
                feed_batches(rank_in, k0, width, fills,
                             [&](FinishedRow *rows, int count) {
                                 RankUpdateEpilogue::apply(rows, count, 0,
                                                           width, &panels);
                             });
                k0 += width;
            }
            expect_same_bits(got_h, h, what + " combine store");
            expect_same_bits(got_xw, want_xw, what + " combine fold");
            expect_same_bits(got_rank, want_rank, what + " rank update");
            expect_same_bits(got_panels, want_rank,
                             what + " rank update across panels");
        }
}

TEST(Gemm, SkipsZeroFeatures)
{
    // A zero X must give a zero product even with garbage in out.
    WorkStealPool pool(2);
    DenseMatrix x(10, 4); // zero-initialized
    DenseMatrix w = random_dense(4, 3, 3);
    DenseMatrix out(10, 3);
    out.fill(7.0f);
    dense_gemm(x, w, out, pool);
    for (index_t r = 0; r < 10; ++r) {
        for (index_t c = 0; c < 3; ++c)
            ASSERT_FLOAT_EQ(out(r, c), 0.0f);
    }
}

/**
 * x * w[:, col0 : col0 + width) from a bf16 plan's GEMM panel source,
 * encoded as the plan would encode it when the source left it
 * quantizable.
 */
PanelSource
bf16_source_panel(const DenseMatrix &x, const DenseMatrix &w, index_t col0,
                  index_t width, DenseMatrix &buf, WorkStealPool &pool)
{
    const PanelSource src = gemm_panel_source(x, w, pool, buf,
                                              StorageMode::kBf16)(col0,
                                                                  width);
    if (src.quantizable != nullptr)
        quantize_dense(*src.quantizable, StorageMode::kBf16, &pool, width);
    return src;
}

/** The bf16 rows [0, rows) x [0, width) of @p a and @p b are equal. */
void
expect_bf16_rows_equal(const DenseMatrix &got, const DenseMatrix &want,
                       index_t rows, index_t width, const std::string &what)
{
    for (index_t r = 0; r < rows; ++r)
        ASSERT_EQ(std::memcmp(got.row_bf16(r), want.row_bf16(r),
                              static_cast<size_t>(width) * sizeof(bf16_t)),
                  0)
            << what << " differs in row " << r;
}

/**
 * f32 x -> f32 w -> bf16 product from a dense_gemm_panel + quantize_dense
 * (the path every bf16 GEMM panel took before the tile product).
 */
DenseMatrix
encoded_f32_panel(const DenseMatrix &x, const DenseMatrix &w, index_t col0,
                  index_t width, WorkStealPool &pool)
{
    DenseMatrix want(x.rows(), width);
    dense_gemm_panel(x, w, col0, width, want, pool);
    quantize_dense(want, StorageMode::kBf16, &pool, width);
    return want;
}

/**
 * The tile product against an fp64 reference over bf16-rounded X and
 * W: within the output's bf16 rounding (2^-9 relative) plus the fp32
 * accumulation's error. n covers n % 32 in {0, 1, 31} and n < 32 (the
 * zero-filled rows of a partial 32-row block); the widths one 16-column
 * C tile, one pair and four pairs; W's panel starts off column 0.
 */
TEST(AmxGemm, StaysWithinBf16RoundedInputReference)
{
    if (!amx_gemm_enabled())
        GTEST_SKIP() << "this host grants no AMX tiles";
    WorkStealPool pool(3);
    const auto rounded = [](value_t v) {
        return static_cast<double>(bf16_decode(bf16_encode(v)));
    };
    for (index_t n : {5, 31, 32, 33, 63, 64, 65, 96})
        for (index_t width : {16, 32, 128})
            for (index_t depth : {32, 128}) {
                const auto seed =
                    static_cast<uint64_t>(n * 1009 + width * 31 + depth);
                const DenseMatrix x = random_dense(n, depth, seed);
                const DenseMatrix w = random_dense(depth, 160, seed + 1);
                const index_t col0 = 16;
                DenseMatrix buf;
                const PanelSource src =
                    bf16_source_panel(x, w, col0, width, buf, pool);
                const std::string what = "n=" + std::to_string(n) +
                                         " width=" + std::to_string(width) +
                                         " depth=" + std::to_string(depth);
                ASSERT_EQ(src.quantizable, nullptr) << what;
                ASSERT_EQ(src.b->storage(), StorageMode::kBf16) << what;
                ASSERT_FALSE(src.b->has_f32()) << what;
                for (index_t r = 0; r < n; ++r)
                    for (index_t j = 0; j < width; ++j) {
                        double ref = 0.0, mag = 0.0;
                        for (index_t k = 0; k < depth; ++k) {
                            const double p = rounded(x(r, k)) *
                                             rounded(w(k, col0 + j));
                            ref += p;
                            mag += std::abs(p);
                        }
                        const double got = bf16_decode(src.b->row_bf16(r)[j]);
                        const double tol = std::ldexp(std::abs(ref), -8) +
                                           std::ldexp(mag, -20);
                        ASSERT_LE(std::abs(got - ref), tol)
                            << what << " at (" << r << ", " << j << ")";
                    }
            }
}

/** Each output's sum is fixed per element: the same bits on any pool. */
TEST(AmxGemm, BitIdenticalAcrossPools)
{
    if (!amx_gemm_enabled())
        GTEST_SKIP() << "this host grants no AMX tiles";
    const index_t n = 301, depth = 128, width = 128;
    const DenseMatrix x = random_dense(n, depth, 41);
    const DenseMatrix w = random_dense(depth, width, 42);
    DenseMatrix want = DenseMatrix::bf16_panel(n, width);
    {
        WorkStealPool pool(1);
        ASSERT_TRUE(amx_gemm_panel(x, w, 0, width, want, pool));
    }
    for (unsigned workers : {2u, 4u}) {
        WorkStealPool pool(workers);
        DenseMatrix got = DenseMatrix::bf16_panel(n, width);
        ASSERT_TRUE(amx_gemm_panel(x, w, 0, width, got, pool));
        expect_bf16_rows_equal(got, want, n, width,
                               std::to_string(workers) + " workers");
    }
}

/** A bf16 NaN: no product of finite inputs stores this pattern. */
constexpr bf16_t kUnwritten = 0x7FC1;

/** Every element of @p m's rows [0, rows) x [0, width) reads @p v. */
void
fill_bf16(DenseMatrix &m, index_t rows, index_t width, bf16_t v)
{
    for (index_t r = 0; r < rows; ++r)
        std::fill(m.row_bf16_mut(r), m.row_bf16_mut(r) + width, v);
}

/** How many of rows [0, rows) x [0, width) of @p m are bf16 NaNs. */
index_t
count_bf16_nans(const DenseMatrix &m, index_t rows, index_t width)
{
    index_t nans = 0;
    for (index_t r = 0; r < rows; ++r)
        for (index_t j = 0; j < width; ++j)
            nans += std::isnan(bf16_decode(m.row_bf16(r)[j])) ? 1 : 0;
    return nans;
}

/**
 * The tile product stores every element of [0, n) x [0, width): a panel
 * that starts out NaN everywhere holds none afterwards. bf16_panel()
 * does not zero-fill, so a block or a column pair that were skipped
 * would show here rather than read as zero. n covers a lone row, a
 * partial first block, a partial last block, ten one-block task ranges
 * and 94 blocks, whose ranges of several blocks end while the next
 * block's X is being fetched; width 48 takes a 32-column pair and the
 * 16-column remainder.
 */
TEST(AmxGemm, WritesEveryPanelElement)
{
    if (!amx_gemm_enabled())
        GTEST_SKIP() << "this host grants no AMX tiles";
    const index_t depth = 128;
    for (const unsigned workers : {1u, 2u, 4u}) {
        WorkStealPool pool(workers);
        for (const index_t n : {1, 31, 33, 301, 3001})
            for (const index_t width : {48, 128}) {
                const std::string what =
                    std::to_string(workers) + " workers, n=" +
                    std::to_string(n) + " width=" + std::to_string(width);
                const DenseMatrix x = random_dense(n, depth, 91 + n);
                const DenseMatrix w = random_dense(depth, width, 92);
                DenseMatrix panel = DenseMatrix::bf16_panel(n, width);
                fill_bf16(panel, n, width, kUnwritten);
                ASSERT_TRUE(amx_gemm_panel(x, w, 0, width, panel, pool))
                    << what;
                EXPECT_EQ(count_bf16_nans(panel, n, width), 0) << what;
            }
    }
}

/**
 * Under ForceGemmFallback the bf16 source is the f32 product plus the
 * plan's encode, bit for bit — also into a buffer the tile product
 * left without f32 rows.
 */
TEST(AmxGemm, ForcedFallbackMatchesDenseGemmPlusQuantize)
{
    WorkStealPool pool(2);
    const index_t n = 97, depth = 64, width = 32, col0 = 16;
    const DenseMatrix x = random_dense(n, depth, 51);
    const DenseMatrix w = random_dense(depth, 64, 52);
    const DenseMatrix want = encoded_f32_panel(x, w, col0, width, pool);
    DenseMatrix buf;
    bf16_source_panel(x, w, col0, width, buf, pool);
    EXPECT_EQ(buf.has_f32(), !amx_gemm_enabled());
    {
        const ForceGemmFallback fallback;
        EXPECT_FALSE(amx_gemm_enabled());
        const PanelSource src =
            bf16_source_panel(x, w, col0, width, buf, pool);
        ASSERT_EQ(src.quantizable, &buf);
        ASSERT_TRUE(buf.has_f32());
        expect_bitwise(buf, want, "fallback f32 rows");
        expect_bf16_rows_equal(buf, want, n, width, "fallback bf16 rows");
    }
    EXPECT_EQ(amx_gemm_enabled(), amx_tiles_granted());
}

/** Depth 16 and width 8 do not fit the tiles: f32 product plus encode. */
TEST(AmxGemm, RejectedShapesTakeFallback)
{
    WorkStealPool pool(2);
    struct Case { index_t depth, width; };
    for (const Case c : {Case{16, 32}, Case{32, 8}}) {
        const std::string what = "depth=" + std::to_string(c.depth) +
                                 " width=" + std::to_string(c.width);
        EXPECT_FALSE(amx_gemm_fits(c.depth, c.width)) << what;
        const DenseMatrix x = random_dense(70, c.depth, 61);
        const DenseMatrix w = random_dense(c.depth, c.width, 62);
        DenseMatrix tiles = DenseMatrix::bf16_panel(70, c.width);
        EXPECT_FALSE(amx_gemm_panel(x, w, 0, c.width, tiles, pool)) << what;
        DenseMatrix buf;
        const PanelSource src =
            bf16_source_panel(x, w, 0, c.width, buf, pool);
        ASSERT_EQ(src.quantizable, &buf) << what;
        const DenseMatrix want = encoded_f32_panel(x, w, 0, c.width, pool);
        expect_bitwise(buf, want, what);
        expect_bf16_rows_equal(buf, want, 70, c.width, what);
    }
}

/**
 * The tile rank update against the vector tile's f32 rank update. Per
 * element |tile - vector| <= 2^-8 * sum |act(h_k) w_kj| (rounding act(H)
 * and W to bf16, 2^-9 relative each) + 2^-9 * |vector| (the output's
 * bf16 rounding) + 2^-14 * sum |act(h_k) w_kj| (both fp32 sums). Covers
 * every batch fill from 1 to 48, each once with adjacent rows and once
 * with scattered per-row copies; depths 32 and 128 (one and four B
 * tiles) into 1, 9 and 16
 * outputs; ReLU with NaN and -0.0 inputs, which enter as +0, and
 * sigmoid. Each output row is the same bits whatever batch carries it,
 * and the handoff's padding lanes stay zero.
 */
TEST(AmxRankUpdate, MatchesVectorTileWithinBound)
{
    if (!amx_rank_update_enabled())
        GTEST_SKIP() << "this host grants no AMX tiles";
    std::vector<int> fills;
    for (int f = 1; f <= kEpilogueBatchRows; ++f)
        fills.insert(fills.end(), {f, f});
    index_t n = 0;
    for (const int f : fills)
        n += f;
    const std::vector<int> singles(static_cast<size_t>(n), 1);
    const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
    uint64_t seed = 70;
    for (const Activation act : {Activation::kRelu, Activation::kSigmoid})
        for (const index_t depth : {32, 128})
            for (const index_t out : {1, 9, 16}) {
                const std::string what =
                    std::string(act == Activation::kRelu ? "relu"
                                                         : "sigmoid") +
                    " " + std::to_string(depth) + "-" + std::to_string(out);
                DenseMatrix h = random_dense(n, depth, ++seed);
                const DenseMatrix w = random_dense(depth, out, ++seed);
                if (act == Activation::kRelu) {
                    h(5, 0) = nan;
                    h(6, depth - 1) = -0.0f;
                    for (index_t k = 0; k < depth; ++k)
                        h(7, k) = k % 2 == 0 ? nan : -0.0f;
                }
                DenseMatrix want(n, out);
                const RankUpdateEpilogue vec =
                    make_rank_update_epilogue(act, w, want);
                DenseMatrix got = DenseMatrix::bf16_panel(n, out);
                const RankUpdateEpilogue tiles =
                    make_rank_update_epilogue(act, w, got);
                ASSERT_NE(tiles.w_tiles, nullptr) << what;
                DenseMatrix one_by_one = DenseMatrix::bf16_panel(n, out);
                const RankUpdateEpilogue singly =
                    make_rank_update_epilogue(act, w, one_by_one);
                feed_batches(h, 0, depth, fills,
                             [&](FinishedRow *rows, int count) {
                                 RankUpdateEpilogue::apply(rows, count, 0,
                                                           depth, &vec);
                                 RankUpdateEpilogue::apply(rows, count, 0,
                                                           depth, &tiles);
                             });
                feed_batches(h, 0, depth, singles,
                             [&](FinishedRow *rows, int count) {
                                 RankUpdateEpilogue::apply(rows, count, 0,
                                                           depth, &singly);
                             });
                DenseMatrix act_h = h;
                apply_activation(act_h, act);
                for (index_t r = 0; r < n; ++r) {
                    ASSERT_EQ(std::memcmp(got.row_bf16(r),
                                          one_by_one.row_bf16(r),
                                          static_cast<size_t>(
                                              got.padded_cols()) *
                                              sizeof(bf16_t)),
                              0)
                        << what << " row " << r << " depends on its batch";
                    for (index_t j = out; j < got.padded_cols(); ++j)
                        ASSERT_EQ(got.row_bf16(r)[j], 0)
                            << what << " padding lane " << j;
                    for (index_t j = 0; j < out; ++j) {
                        double mag = 0.0;
                        for (index_t k = 0; k < depth; ++k)
                            mag += std::abs(static_cast<double>(act_h(r, k)) *
                                            w(k, j));
                        const double v = want(r, j);
                        const double t = bf16_decode(got.row_bf16(r)[j]);
                        ASSERT_TRUE(std::isfinite(t))
                            << what << " at (" << r << ", " << j << ")";
                        ASSERT_LE(std::abs(t - v),
                                  std::ldexp(mag, -8) +
                                      std::ldexp(std::abs(v), -9) +
                                      std::ldexp(mag, -14))
                            << what << " at (" << r << ", " << j << ")";
                    }
                }
                if (act == Activation::kRelu) {
                    for (index_t j = 0; j < out; ++j)
                        ASSERT_EQ(bf16_decode(got.row_bf16(7)[j]),
                                  0.0f)
                            << what << ": NaN and -0.0 enter as +0";
                }
            }
}

/**
 * A graph whose rows 0, 5, 10, ... have no non-zeros and whose row 1 is
 * a hub over a third of the columns, so merge-path splits it across
 * executors; the other rows hold four columns each.
 */
CsrMatrix
graph_with_empty_rows(index_t n)
{
    std::vector<index_t> row_ptr{0}, cols;
    Pcg32 rng(97);
    for (index_t r = 0; r < n; ++r) {
        const index_t deg = r % 5 == 0 ? 0 : r == 1 ? n / 3 : 4;
        std::vector<index_t> row;
        for (index_t k = 0; k < deg; ++k)
            row.push_back(r == 1 ? 3 * k
                                 : static_cast<index_t>(rng.next_below(
                                       static_cast<uint32_t>(n))));
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
        cols.insert(cols.end(), row.begin(), row.end());
        row_ptr.push_back(static_cast<index_t>(cols.size()));
    }
    std::vector<value_t> vals(cols.size(), 1.0f);
    CsrMatrix a(n, n, std::move(row_ptr), std::move(cols), std::move(vals));
    a.normalize_gcn();
    return a;
}

/**
 * The streamed bf16 layer 0 as a model runs it — its XW panel from the
 * tile product, its handoff from the tile rank update — stores every
 * element the next layer reads, empty rows included: with both the
 * panel and the handoff NaN everywhere at the start, the handoff holds
 * no NaN afterwards and its padding lanes are zero (9 outputs: lanes
 * 9-15 pad each row). On pools of 1, 2 and 4.
 */
TEST(AmxRankUpdate, StreamedSweepWritesEveryHandoffElement)
{
    if (!amx_rank_update_enabled() || !amx_gemm_enabled())
        GTEST_SKIP() << "this host grants no AMX tiles";
    const index_t n = 301, f = 64, hidden = 64, classes = 9;
    const CsrMatrix a = graph_with_empty_rows(n);
    const DenseMatrix x = random_dense(n, f, 98);
    const DenseMatrix w1 = random_dense(f, hidden, 99);
    const DenseMatrix w2 = random_dense(hidden, classes, 100);
    for (const unsigned workers : {1u, 2u, 4u}) {
        const std::string what = std::to_string(workers) + " workers";
        WorkStealPool pool(workers);
        const MergePathSchedule sched =
            MergePathSchedule::build(a, 4 * workers);
        FusedLayerPlan plan(a, hidden, borrow_schedule(sched),
                            SpmmLocality{});
        plan.set_precision(StorageMode::kBf16);
        DenseMatrix xw = DenseMatrix::bf16_panel(n, hidden);
        fill_bf16(xw, n, hidden, kUnwritten);
        DenseMatrix handoff = DenseMatrix::bf16_panel(n, classes);
        fill_bf16(handoff, n, classes, kUnwritten);
        const RankUpdateEpilogue rank =
            make_rank_update_epilogue(Activation::kRelu, w2, handoff);
        plan.run_streaming(
            gemm_panel_source(x, w1, pool, xw, StorageMode::kBf16), {}, pool,
            &RankUpdateEpilogue::apply, &rank);
        ASSERT_FALSE(xw.has_f32()) << what << ": the tile product ran";
        EXPECT_EQ(count_bf16_nans(xw, n, hidden), 0) << what;
        EXPECT_EQ(count_bf16_nans(handoff, n, classes), 0) << what;
        for (index_t r = 0; r < n; ++r)
            for (index_t j = classes; j < handoff.padded_cols(); ++j)
                ASSERT_EQ(handoff.row_bf16(r)[j], 0)
                    << what << " padding lane " << j << " of row " << r;
        for (index_t j = 0; j < classes; ++j)
            EXPECT_EQ(handoff.row_bf16(5)[j], 0)
                << what << ": an empty row rank-updates to zero";
    }
}

/**
 * The tile rank update takes only what its tiles hold: the whole row
 * in one panel, and at most 128 deep into at most 16 outputs.
 */
TEST(AmxRankUpdateDeathTest, NeedsOnePanelAndFittingShape)
{
    EXPECT_TRUE(amx_rank_update_fits(128, 16));
    EXPECT_TRUE(amx_rank_update_fits(32, 1));
    EXPECT_FALSE(amx_rank_update_fits(160, 16));
    EXPECT_FALSE(amx_rank_update_fits(48, 16));
    EXPECT_FALSE(amx_rank_update_fits(64, 17));
    const DenseMatrix w = random_dense(64, 8, 81);
    DenseMatrix dst = DenseMatrix::bf16_panel(4, 8);
    if (!amx_rank_update_enabled()) {
        EXPECT_DEATH(make_rank_update_epilogue(Activation::kRelu, w, dst),
                     "needs the AMX tiles");
        return;
    }
    const DenseMatrix deep = random_dense(160, 8, 82);
    EXPECT_DEATH(make_rank_update_epilogue(Activation::kRelu, deep, dst),
                 "needs the AMX tiles");
    DenseMatrix h = random_dense(4, 64, 83);
    RankUpdateEpilogue e =
        make_rank_update_epilogue(Activation::kRelu, w, dst);
    FinishedRow rows[] = {{h.row(0), 0}, {h.row(1), 1}};
    EXPECT_DEATH(RankUpdateEpilogue::apply(rows, 2, 0, 32, &e),
                 "whole row in one panel");
    e.w_row0 = 32;
    EXPECT_DEATH(RankUpdateEpilogue::apply(rows, 2, 0, 32, &e),
                 "whole row in one panel");
}

TEST(GemmDeathTest, ShapeMismatch)
{
    DenseMatrix x(2, 3), w(4, 2), out(2, 2);
    EXPECT_DEATH(reference_gemm(x, w, out), "inner dimensions");
}

TEST(Activation, Relu)
{
    DenseMatrix m(1, 4);
    m(0, 0) = -2.0f;
    m(0, 1) = 0.0f;
    m(0, 2) = 3.0f;
    m(0, 3) = -0.5f;
    apply_activation(m, Activation::kRelu);
    EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(m(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(m(0, 2), 3.0f);
    EXPECT_FLOAT_EQ(m(0, 3), 0.0f);
}

TEST(Activation, Sigmoid)
{
    DenseMatrix m(1, 2);
    m(0, 0) = 0.0f;
    m(0, 1) = 100.0f;
    apply_activation(m, Activation::kSigmoid);
    EXPECT_FLOAT_EQ(m(0, 0), 0.5f);
    EXPECT_NEAR(m(0, 1), 1.0f, 1e-6);
}

TEST(Activation, NoneIsIdentity)
{
    DenseMatrix m = random_dense(3, 3, 5);
    DenseMatrix copy = m;
    apply_activation(m, Activation::kNone);
    EXPECT_DOUBLE_EQ(m.max_abs_diff(copy), 0.0);
}

TEST(Activation, Parse)
{
    EXPECT_EQ(parse_activation("relu"), Activation::kRelu);
    EXPECT_EQ(parse_activation("none"), Activation::kNone);
    EXPECT_EQ(parse_activation("sigmoid"), Activation::kSigmoid);
    EXPECT_EXIT(parse_activation("tanh"), testing::ExitedWithCode(1),
                "unknown activation");
}

TEST(GcnLayer, ForwardMatchesManualPipeline)
{
    WorkStealPool pool(4);
    CsrMatrix a = erdos_renyi_graph(120, 600, 7);
    a.normalize_gcn();
    DenseMatrix x = random_dense(120, 32, 8);
    DenseMatrix w = random_dense(32, 16, 9);

    GcnLayer layer(w, Activation::kRelu);
    auto kernel = make_spmm_kernel("mergepath");
    kernel->prepare(a, 16);
    DenseMatrix out(120, 16);
    layer.forward(a, x, *kernel, out, pool);

    // Manual: relu(A * (X * W)) with reference kernels.
    DenseMatrix xw(120, 16), expect(120, 16);
    reference_gemm(x, w, xw);
    reference_spmm(a, xw, expect);
    apply_activation(expect, Activation::kRelu);
    EXPECT_TRUE(out.approx_equal(expect, 1e-3, 1e-4));
}

TEST(GcnLayer, RandomWeightsDeterministicAndBounded)
{
    DenseMatrix w1 = random_layer_weights(64, 16, 3);
    DenseMatrix w2 = random_layer_weights(64, 16, 3);
    EXPECT_DOUBLE_EQ(w1.max_abs_diff(w2), 0.0);
    float bound = std::sqrt(6.0f / (64 + 16));
    for (index_t r = 0; r < 64; ++r) {
        for (index_t c = 0; c < 16; ++c)
            ASSERT_LE(std::abs(w1(r, c)), bound);
    }
}

TEST(GcnModel, TwoLayerShapesAndDeterminism)
{
    WorkStealPool pool(4);
    CsrMatrix a = erdos_renyi_graph(200, 1200, 11);
    a.normalize_gcn();
    DenseMatrix x = random_dense(200, 48, 12);

    GcnModel model = GcnModel::two_layer(48, 16, 7, 1);
    ASSERT_EQ(model.num_layers(), 2u);
    DenseMatrix out1 = model.infer(a, x, pool);
    EXPECT_EQ(out1.rows(), 200);
    EXPECT_EQ(out1.cols(), 7);

    GcnModel model2 = GcnModel::two_layer(48, 16, 7, 1);
    DenseMatrix out2 = model2.infer(a, x, pool);
    EXPECT_TRUE(out1.approx_equal(out2, 1e-3, 1e-4));
}

/**
 * The fused forward allocates its output without a zero-fill and
 * relies on its last sweep to store every element: consecutive
 * forwards (the later ones on recycled heap memory) are bit-identical,
 * and the padding lanes of a 9-wide output read zero.
 */
TEST(GcnModel, ConsecutiveForwardsAreBitIdentical)
{
    WorkStealPool pool(3);
    CsrMatrix a = erdos_renyi_graph(500, 3000, 23);
    a.normalize_gcn();
    DenseMatrix x = random_dense(500, 16, 24);
    GcnModel model = GcnModel::two_layer(16, 32, 9, 6);
    const DenseMatrix first = model.infer(a, x, pool);
    for (int i = 0; i < 3; ++i) {
        DenseMatrix out = model.infer(a, x, pool);
        expect_bitwise(out, first, "forward " + std::to_string(i + 2));
        ASSERT_EQ(out.padded_cols(), 16);
        for (index_t r = 0; r < out.rows(); ++r)
            for (index_t c = out.cols(); c < out.padded_cols(); ++c)
                ASSERT_EQ(out.row(r)[c], 0.0f) << "padding of row " << r;
        out.fill(-1.0f); // freed dirty: the next forward may reuse it
    }
}

TEST(GcnModel, AllKernelsProduceSameInference)
{
    WorkStealPool pool(4);
    PowerLawParams p;
    p.nodes = 150;
    p.target_nnz = 900;
    p.max_degree = 100;
    p.seed = 13;
    CsrMatrix a = power_law_graph(p);
    a.normalize_gcn();
    DenseMatrix x = random_dense(150, 24, 14);

    GcnModel gold = GcnModel::two_layer(24, 16, 5, 2, "reference");
    DenseMatrix expect = gold.infer(a, x, pool);
    for (const std::string name :
         {"mergepath", "gnnadvisor", "row_split", "adaptive",
          "mergepath_serial"}) {
        GcnModel model = GcnModel::two_layer(24, 16, 5, 2, name);
        DenseMatrix out = model.infer(a, x, pool);
        EXPECT_TRUE(out.approx_equal(expect, 1e-3, 1e-3)) << name;
    }
}

TEST(GcnModel, OfflineReusesScheduleOnlineRebuilds)
{
    WorkStealPool pool(2);
    CsrMatrix a = erdos_renyi_graph(400, 2400, 15);
    DenseMatrix x = random_dense(400, 16, 16);

    GcnModel offline = GcnModel::two_layer(16, 16, 4, 3, "mergepath",
                                           ScheduleMode::kOffline);
    InferenceStats s1, s2;
    offline.infer(a, x, pool, &s1);
    offline.infer(a, x, pool, &s2);
    EXPECT_GT(s1.schedule_seconds, 0.0);
    EXPECT_EQ(s2.schedule_seconds, 0.0); // cached

    GcnModel online = GcnModel::two_layer(16, 16, 4, 3, "mergepath",
                                          ScheduleMode::kOnline);
    InferenceStats o1, o2;
    online.infer(a, x, pool, &o1);
    online.infer(a, x, pool, &o2);
    EXPECT_GT(o1.schedule_seconds, 0.0);
    EXPECT_GT(o2.schedule_seconds, 0.0); // rebuilt every inference
}

TEST(GcnModel, NewGraphInvalidatesOfflineCache)
{
    WorkStealPool pool(2);
    CsrMatrix a1 = erdos_renyi_graph(100, 500, 17);
    CsrMatrix a2 = erdos_renyi_graph(130, 700, 18);
    DenseMatrix x1 = random_dense(100, 8, 19);
    DenseMatrix x2 = random_dense(130, 8, 19);

    GcnModel model = GcnModel::two_layer(8, 8, 3, 4, "mergepath",
                                         ScheduleMode::kOffline);
    InferenceStats s;
    model.infer(a1, x1, pool, &s);
    EXPECT_GT(s.schedule_seconds, 0.0);
    model.infer(a2, x2, pool, &s);
    EXPECT_GT(s.schedule_seconds, 0.0) << "cache must be invalidated";
    model.infer(a2, x2, pool, &s);
    EXPECT_EQ(s.schedule_seconds, 0.0);
}

/**
 * Switching a model's precision between forwards never gathers a
 * shadow encoded for the previous precision: the layer-0 GEMM buffer
 * and the layer handoff are rewritten every forward, so f32 after bf16
 * equals a fresh f32 model, and bf16 after f32 equals the first bf16
 * forward, bit for bit. Covers: a 32-32-8 model (both layers combine
 * first: layer 0 gathers its GEMM panel buffer, layer 1 the
 * rank-updated handoff) on a 2-worker pool.
 */
TEST(GcnModel, PrecisionSwitchReencodesRewrittenOperands)
{
    WorkStealPool pool(2);
    CsrMatrix a = erdos_renyi_graph(300, 2400, 21);
    a.normalize_gcn();
    DenseMatrix x = random_dense(300, 32, 22);
    GcnModel fresh = GcnModel::two_layer(32, 32, 8, 5);
    fresh.set_precision(StorageMode::kF32);
    const DenseMatrix want_f32 = fresh.infer(a, x, pool);

    GcnModel model = GcnModel::two_layer(32, 32, 8, 5);
    model.set_precision(StorageMode::kBf16);
    const DenseMatrix want_bf16 = model.infer(a, x, pool);
    ASSERT_GT(want_bf16.max_abs_diff(want_f32), 0.0) << "bf16 never ran";
    model.set_precision(StorageMode::kF32);
    expect_bitwise(model.infer(a, x, pool), want_f32, "f32 after bf16");
    model.set_precision(StorageMode::kBf16);
    expect_bitwise(model.infer(a, x, pool), want_bf16, "bf16 after f32");
}

/**
 * A bf16 64-64-16 model (both layers combine first) whose layer 0
 * sweeps its 64 columns in one panel hands
 * layer 1 a handoff of bf16 rows only, written by the tile rank update
 * (gcn.layer0.rank_amx = 1), and a forward runs no encode pass: the
 * layer-0 GEMM writes bf16 on the tiles and layer 1 gathers the
 * handoff as it is. Under ForceRankUpdateFallback, without AMX, or
 * with a narrower panel (MPS_TILE_D=16) the handoff has f32 rows,
 * which layer 1 encodes; the two outputs agree within bf16's error.
 */
TEST(GcnModel, Bf16HandoffComesFromTheTileRankUpdate)
{
    if (!fusion_enabled())
        GTEST_SKIP() << "the unfused path has no handoff";
    WorkStealPool pool(2);
    CsrMatrix a = erdos_renyi_graph(300, 2400, 23);
    a.normalize_gcn();
    const DenseMatrix x = random_dense(300, 64, 24);
    const auto kernel = make_spmm_kernel("mergepath");
    kernel->prepare(a, 64);
    FusedLayerPlan *plan = kernel->fused_plan(a, 64);
    ASSERT_NE(plan, nullptr);
    plan->set_precision(StorageMode::kBf16);
    const bool tiles = amx_rank_update_enabled() && plan->tile() >= 64;

    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);
    GcnModel model = GcnModel::two_layer(64, 64, 16, 7);
    model.set_precision(StorageMode::kBf16);
    model.infer(a, x, pool);
    const int64_t encodes = metrics.counter_value("fusion.encodes");
    const DenseMatrix got = model.infer(a, x, pool);
    const int64_t forward_encodes =
        metrics.counter_value("fusion.encodes") - encodes;
    const double rank_amx = metrics.gauge_value("gcn.layer0.rank_amx");
    metrics.set_enabled(false);
    metrics.reset();
    EXPECT_EQ(rank_amx, tiles ? 1.0 : 0.0);
    EXPECT_EQ(model.handoff(0).has_f32(), !tiles);
    EXPECT_EQ(model.handoff(0).storage(), StorageMode::kBf16);
    if (tiles && amx_gemm_enabled())
        EXPECT_EQ(forward_encodes, 0);
    else
        EXPECT_GT(forward_encodes, 0);

    const ForceRankUpdateFallback fallback;
    GcnModel vector = GcnModel::two_layer(64, 64, 16, 7);
    vector.set_precision(StorageMode::kBf16);
    const DenseMatrix want = vector.infer(a, x, pool);
    EXPECT_TRUE(vector.handoff(0).has_f32());
    double worst = 0.0, scale = 0.0;
    for (index_t r = 0; r < want.rows(); ++r)
        for (index_t c = 0; c < want.cols(); ++c) {
            worst = std::max(worst, std::abs(static_cast<double>(got(r, c)) -
                                             want(r, c)));
            scale = std::max(scale, std::abs(static_cast<double>(want(r, c))));
        }
    EXPECT_LE(worst, 2e-2 * scale);
}

TEST(GcnModelDeathTest, MismatchedLayerWidths)
{
    GcnModel model("reference");
    model.add_layer(GcnLayer(random_layer_weights(8, 16, 1),
                             Activation::kRelu));
    EXPECT_DEATH(model.add_layer(GcnLayer(random_layer_weights(8, 4, 2),
                                          Activation::kNone)),
                 "chain");
}

TEST(InferenceStats, OverheadFraction)
{
    InferenceStats s;
    s.schedule_seconds = 0.02;
    s.compute_seconds = 0.98;
    EXPECT_NEAR(s.overhead_fraction(), 0.02, 1e-12);
    InferenceStats zero;
    EXPECT_DOUBLE_EQ(zero.overhead_fraction(), 0.0);
}

} // namespace
} // namespace mps
