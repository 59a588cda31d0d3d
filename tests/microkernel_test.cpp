/**
 * @file
 * Cross-checks of the dense-row microkernels: the scalar reference path
 * against the SIMD path on awkward dimensions (vector-width remainders,
 * unaligned bases), plus the atomic primitives and the per-thread
 * scratch contract.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "mps/core/microkernel.h"
#include "mps/core/precision.h"
#include "mps/sparse/aligned_buffer.h"
#include "mps/sparse/dense_matrix.h"
#include "mps/sparse/quant.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"
#include "row_gather.h"

namespace mps {
namespace {

constexpr value_t kTol = 1e-4f;

// Odd dims straddle every vector-width boundary; the round ones hit
// the fixed-dimension specializations (16/32/64) and their doubles.
const index_t kDims[] = {1, 3, 8, 15, 16, 17, 31, 32, 33,
                         63, 64, 65, 100, 128};

std::vector<value_t>
random_row(Pcg32 &rng, index_t dim, float lo = -2.0f, float hi = 2.0f)
{
    std::vector<value_t> v(static_cast<size_t>(dim));
    for (auto &x : v)
        x = rng.next_float(lo, hi);
    return v;
}

void
expect_rows_close(const std::vector<value_t> &a,
                  const std::vector<value_t> &b, const char *what,
                  index_t dim)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b[i], kTol)
            << what << " diverges at lane " << i << " of dim " << dim;
    }
}

TEST(MicrokernelTest, TableMetadata)
{
    const RowKernels &scalar =
        select_row_kernels(32, MicrokernelPath::kScalar);
    EXPECT_EQ(scalar.path, MicrokernelPath::kScalar);
    EXPECT_STREQ(scalar.name, "scalar");
    EXPECT_EQ(scalar.fixed_dim, 0);

    if (!microkernel_simd_compiled())
        GTEST_SKIP() << "scalar-only build";
    const RowKernels &simd =
        select_row_kernels(33, MicrokernelPath::kSimd);
    EXPECT_EQ(simd.path, MicrokernelPath::kSimd);
    EXPECT_EQ(simd.fixed_dim, 0);
#if MPS_MICROKERNEL_SIMD == 1
    // AVX2 builds carry fully unrolled tables for the GNN-typical dims.
    for (index_t d : {16, 32, 64}) {
        const RowKernels &fixed =
            select_row_kernels(d, MicrokernelPath::kSimd);
        EXPECT_EQ(fixed.fixed_dim, d) << "dim " << d;
    }
#endif
}

TEST(MicrokernelTest, ScalarVsSimdAllOps)
{
    if (!microkernel_simd_compiled())
        GTEST_SKIP() << "scalar-only build";
    Pcg32 rng(2024, 7);
    for (index_t dim : kDims) {
        const RowKernels &sc =
            select_row_kernels(dim, MicrokernelPath::kScalar);
        const RowKernels &sv =
            select_row_kernels(dim, MicrokernelPath::kSimd);
        const std::vector<value_t> x = random_row(rng, dim);
        const std::vector<value_t> y = random_row(rng, dim);
        const value_t a = rng.next_float(-3.0f, 3.0f);

        auto run_both = [&](auto &&op, const char *what) {
            std::vector<value_t> r1 = random_row(rng, dim);
            std::vector<value_t> r2 = r1;
            op(sc, r1.data());
            op(sv, r2.data());
            expect_rows_close(r1, r2, what, dim);
        };

        run_both([&](const RowKernels &rk, value_t *row) {
            rk.zero(row, dim);
        }, "zero");
        run_both([&](const RowKernels &rk, value_t *row) {
            rk.copy(row, x.data(), dim);
        }, "copy");
        run_both([&](const RowKernels &rk, value_t *row) {
            rk.add(row, x.data(), dim);
        }, "add");
        run_both([&](const RowKernels &rk, value_t *row) {
            rk.axpy(row, a, x.data(), dim);
        }, "axpy");
        run_both([&](const RowKernels &rk, value_t *row) {
            rk.scale(row, a, dim);
        }, "scale");
        run_both([&](const RowKernels &rk, value_t *row) {
            rk.commit_plain(row, x.data(), dim);
        }, "commit_plain");
        run_both([&](const RowKernels &rk, value_t *row) {
            rk.commit_atomic(row, x.data(), dim);
        }, "commit_atomic");
        run_both([&](const RowKernels &rk, value_t *row) {
            rk.axpy_atomic(row, a, x.data(), dim);
        }, "axpy_atomic");

        EXPECT_NEAR(sc.dot(x.data(), y.data(), dim),
                    sv.dot(x.data(), y.data(), dim),
                    kTol * static_cast<value_t>(dim))
            << "dot at dim " << dim;
    }
}

TEST(MicrokernelTest, GatherDotScalarVsSimd)
{
    if (!microkernel_simd_compiled())
        GTEST_SKIP() << "scalar-only build";
    Pcg32 rng(11, 13);
    const index_t n = 200;
    std::vector<value_t> x = random_row(rng, n);
    for (index_t nnz : {0, 1, 3, 7, 8, 9, 40, 150}) {
        std::vector<value_t> vals = random_row(rng, nnz);
        std::vector<index_t> cols(static_cast<size_t>(nnz));
        for (auto &c : cols)
            c = static_cast<index_t>(
                rng.next_below(static_cast<uint32_t>(n)));
        const RowKernels &sc =
            select_row_kernels(n, MicrokernelPath::kScalar);
        const RowKernels &sv =
            select_row_kernels(n, MicrokernelPath::kSimd);
        EXPECT_NEAR(
            sc.gather_dot(vals.data(), cols.data(), 0, nnz, x.data()),
            sv.gather_dot(vals.data(), cols.data(), 0, nnz, x.data()),
            kTol * static_cast<value_t>(std::max<index_t>(nnz, 1)))
            << "gather_dot at nnz " << nnz;
    }
}

TEST(MicrokernelTest, UnalignedBasesAgree)
{
    if (!microkernel_simd_compiled())
        GTEST_SKIP() << "scalar-only build";
    // SIMD paths use unaligned loads/stores by design: shifting every
    // pointer one float off the 64-byte boundary must change nothing.
    Pcg32 rng(5, 17);
    for (index_t dim : {17, 33, 100}) {
        AlignedVector xs(static_cast<size_t>(dim) + 1);
        AlignedVector acc1(static_cast<size_t>(dim) + 1);
        for (auto &v : xs)
            v = rng.next_float(-1.0f, 1.0f);
        for (auto &v : acc1)
            v = rng.next_float(-1.0f, 1.0f);
        AlignedVector acc2 = acc1;

        const value_t *x = xs.data() + 1; // deliberately misaligned
        const RowKernels &sc =
            select_row_kernels(dim, MicrokernelPath::kScalar);
        const RowKernels &sv =
            select_row_kernels(dim, MicrokernelPath::kSimd);
        sc.axpy(acc1.data() + 1, 1.5f, x, dim);
        sv.axpy(acc2.data() + 1, 1.5f, x, dim);
        for (index_t d = 0; d < dim; ++d)
            EXPECT_NEAR(acc1[static_cast<size_t>(d) + 1],
                        acc2[static_cast<size_t>(d) + 1], kTol)
                << "unaligned axpy lane " << d << " dim " << dim;
        EXPECT_NEAR(sc.dot(x, acc1.data() + 1, dim),
                    sv.dot(x, acc2.data() + 1, dim),
                    kTol * static_cast<value_t>(dim));
    }
}

TEST(MicrokernelTest, NegativeAndNanPropagation)
{
    const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
    for (MicrokernelPath path :
         {MicrokernelPath::kScalar, MicrokernelPath::kSimd}) {
        if (path == MicrokernelPath::kSimd &&
            !microkernel_simd_compiled())
            continue;
        const index_t dim = 19;
        const RowKernels &rk = select_row_kernels(dim, path);

        std::vector<value_t> acc(static_cast<size_t>(dim), -1.0f);
        std::vector<value_t> x(static_cast<size_t>(dim), -2.0f);
        x[4] = nan;
        x[17] = nan; // one in the vector body, one in the tail
        rk.axpy(acc.data(), -0.5f, x.data(), dim);
        for (index_t d = 0; d < dim; ++d) {
            if (d == 4 || d == 17)
                EXPECT_TRUE(std::isnan(acc[static_cast<size_t>(d)]))
                    << microkernel_path_name(path) << " lane " << d;
            else
                EXPECT_NEAR(acc[static_cast<size_t>(d)], 0.0f, kTol)
                    << microkernel_path_name(path) << " lane " << d;
        }

        std::vector<value_t> s(static_cast<size_t>(dim), 3.0f);
        s[2] = nan;
        rk.scale(s.data(), 2.0f, dim);
        EXPECT_TRUE(std::isnan(s[2]));
        EXPECT_NEAR(s[0], 6.0f, kTol);

        std::vector<value_t> t(static_cast<size_t>(dim), 1.0f);
        EXPECT_TRUE(std::isnan(rk.dot(x.data(), t.data(), dim)));
    }
}

TEST(MicrokernelTest, AtomicAddConcurrent)
{
    // 4 threads x 4096 adds of 1.0 stays exactly representable in
    // fp32, so a single lost update is visible in the total.
    constexpr int kThreads = 4;
    constexpr int kAdds = 4096;
    value_t slot = 0.0f;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&slot] {
            for (int i = 0; i < kAdds; ++i)
                atomic_add(slot, 1.0f);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(slot, static_cast<value_t>(kThreads * kAdds));
}

TEST(MicrokernelTest, ScratchIsAlignedAndGrows)
{
    value_t *p = microkernel_scratch(5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kRowAlignBytes, 0u);
    select_row_kernels(5).zero(p, 5);
    value_t *q = microkernel_scratch(1000);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % kRowAlignBytes, 0u);
    select_row_kernels(1000).zero(q, 1000);
    EXPECT_EQ(q[999], 0.0f);
}

TEST(MicrokernelTest, DenseMatrixPaddedStride)
{
    DenseMatrix m(3, 17);
    EXPECT_GE(m.padded_cols(), m.cols());
    EXPECT_EQ(m.padded_cols() % kRowAlignElems, 0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kRowAlignBytes,
              0u);
    m.fill(2.0f);
    // Element (r, c) lives at data()[r * padded_cols() + c], and the
    // padding tail of every row stays zero.
    for (index_t r = 0; r < m.rows(); ++r) {
        EXPECT_EQ(m.row(r), m.data() + r * m.padded_cols());
        for (index_t c = m.cols(); c < m.padded_cols(); ++c)
            EXPECT_EQ(m.data()[r * m.padded_cols() + c], 0.0f)
                << "padding disturbed at row " << r << " slot " << c;
    }
    EXPECT_EQ(m(2, 16), 2.0f);
}

/**
 * The register-row chunks the sweep's share loop inlines
 * (src/core/row_gather.h) against the per-row fallback's loop — zero,
 * then one axpy (axpy_bf16) per non-zero on the SIMD table — bit for
 * bit: one vector, whole and masked half vectors, one and several
 * column chunks, operand columns off the line grid, empty, one-element
 * and long ranges, prefetch on and off. No lane past the width may be
 * written.
 */
TEST(MicrokernelTest, RowRangeAccumulateMatchesAxpyChain)
{
#if MPS_SIMD_VEC
    constexpr index_t kRows = 97, kNnz = 400, kMaxOff = 37, kGuard = 16;
    const index_t widths[] = {8, 16, 24, 40, 64, 96, 128, 136, 200};
    Pcg32 rng(2026, 18);
    std::vector<value_t> vals(kNnz);
    std::vector<index_t> cols(kNnz);
    for (index_t k = 0; k < kNnz; ++k) {
        vals[static_cast<size_t>(k)] = rng.next_float(-2.0f, 2.0f);
        cols[static_cast<size_t>(k)] =
            static_cast<index_t>(rng.next_below(kRows));
    }
    DenseMatrix b(kRows, kMaxOff + 200);
    b.fill_random(rng);
    DenseMatrix b16 = b;
    b16.quantize(StorageMode::kBf16);
    struct Range { index_t begin, end; };
    const Range ranges[] = {{5, 5}, {7, 8}, {0, kNnz}, {13, 211}};
    const auto expect_same = [](const std::vector<value_t> &got,
                                const std::vector<value_t> &want,
                                const std::string &what) {
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                      std::bit_cast<uint32_t>(want[i]))
                << what << " lane " << i << ": " << got[i] << " vs "
                << want[i];
    };
    static constexpr auto kF32 = by_last_eighths([](auto last) {
        return &gather_chunks<value_t, decltype(last)::value>;
    });
    static constexpr auto kBf16 = by_last_eighths([](auto last) {
        return &gather_chunks<bf16_t, decltype(last)::value>;
    });

    const auto check = [&](index_t dim, index_t off, Range rg, index_t pf) {
        const RowKernels &rk = select_row_kernels(dim, MicrokernelPath::kSimd);
        const NnzRange r{vals.data(), cols.data(), rg.begin, rg.end,
                         b.padded_cols(), pf, kNnz};
        const ChunkSplit split = chunk_split(dim);
        const auto last = static_cast<size_t>(split.last_eighths - 1);
        const std::string what =
            std::string(rk.name) + " dim=" + std::to_string(dim) +
            " off=" + std::to_string(off) + " range=[" +
            std::to_string(rg.begin) + "," + std::to_string(rg.end) +
            ") pf=" + std::to_string(pf);
        const auto n = static_cast<size_t>(dim);
        std::vector<value_t> want(n + kGuard, -7.0f);
        std::vector<value_t> got = want;

        std::fill_n(got.begin(), n, std::nanf(""));
        rk.zero(want.data(), dim);
        for (index_t k = rg.begin; k < rg.end; ++k)
            rk.axpy(want.data(), vals[static_cast<size_t>(k)],
                    b.row(cols[static_cast<size_t>(k)]) + off, dim);
        kF32[last](got.data(), r, b.row(0) + off, split.full);
        expect_same(got, want, "f32 " + what);

        std::fill_n(got.begin(), n, std::nanf(""));
        rk.zero(want.data(), dim);
        for (index_t k = rg.begin; k < rg.end; ++k)
            rk.axpy_bf16(want.data(), vals[static_cast<size_t>(k)],
                         b16.row_bf16(cols[static_cast<size_t>(k)]) + off,
                         dim);
        kBf16[last](got.data(), r, b16.row_bf16(0) + off, split.full);
        expect_same(got, want, "bf16 " + what);
    };

    for (index_t dim : widths)
        for (index_t off : {index_t{0}, index_t{16}, kMaxOff})
            for (const Range rg : ranges)
                for (index_t pf : {0, 4})
                    check(dim, off, rg, pf);
#else
    GTEST_SKIP() << "no register rows on this build";
#endif
}

// ---------------------------------------------------------------------
// Mixed precision: bf16 operand kernels, fp32 accumulate.
// ---------------------------------------------------------------------

TEST(MicrokernelTest, MixedPrecisionScalarVsSimd)
{
    if (!microkernel_simd_compiled())
        GTEST_SKIP() << "scalar-only build";
    Pcg32 rng(31, 41);
    for (index_t dim : kDims) {
        const RowKernels &sc =
            select_row_kernels(dim, MicrokernelPath::kScalar);
        const RowKernels &sv =
            select_row_kernels(dim, MicrokernelPath::kSimd);
        const std::vector<value_t> x = random_row(rng, dim);
        const value_t a = rng.next_float(-3.0f, 3.0f);

        // The encoder must be BIT-identical to the quant.h scalar
        // primitive — the shadow rows are shared state, so the two
        // paths may never disagree on a stored code.
        std::vector<bf16_t> h1(static_cast<size_t>(dim));
        std::vector<bf16_t> h2 = h1;
        sc.encode_bf16(h1.data(), x.data(), dim);
        sv.encode_bf16(h2.data(), x.data(), dim);
        for (size_t i = 0; i < h1.size(); ++i) {
            EXPECT_EQ(h1[i], h2[i])
                << "encode_bf16 lane " << i << " dim " << dim;
            EXPECT_EQ(h1[i], bf16_encode(x[i]))
                << "encode_bf16 vs quant.h lane " << i;
        }

        std::vector<value_t> r1 = random_row(rng, dim);
        std::vector<value_t> r2 = r1;
        sc.axpy_bf16(r1.data(), a, h1.data(), dim);
        sv.axpy_bf16(r2.data(), a, h1.data(), dim);
        expect_rows_close(r1, r2, "axpy_bf16", dim);
    }
}

TEST(MicrokernelTest, MixedPrecisionUnalignedBasesAgree)
{
    if (!microkernel_simd_compiled())
        GTEST_SKIP() << "scalar-only build";
    // Shadow rows start cache-line aligned, but panel-sliced calls may
    // hand the kernels any interior offset: shift every base one
    // element off the 64-byte boundary.
    Pcg32 rng(5, 29);
    for (index_t dim : {17, 33, 100}) {
        const size_t n = static_cast<size_t>(dim) + 1;
        std::vector<value_t> src(n);
        for (auto &v : src)
            v = rng.next_float(-1.0f, 1.0f);
        std::vector<bf16_t> hb(n);
        const RowKernels &sc =
            select_row_kernels(dim, MicrokernelPath::kScalar);
        const RowKernels &sv =
            select_row_kernels(dim, MicrokernelPath::kSimd);
        sc.encode_bf16(hb.data() + 1, src.data() + 1, dim);

        std::vector<bf16_t> hb2(n);
        sv.encode_bf16(hb2.data() + 1, src.data() + 1, dim);
        for (size_t i = 1; i < n; ++i)
            EXPECT_EQ(hb[i], hb2[i]) << "unaligned encode_bf16 " << i;

        AlignedVector acc1(n);
        for (auto &v : acc1)
            v = rng.next_float(-1.0f, 1.0f);
        AlignedVector acc2 = acc1;
        sc.axpy_bf16(acc1.data() + 1, 1.5f, hb.data() + 1, dim);
        sv.axpy_bf16(acc2.data() + 1, 1.5f, hb.data() + 1, dim);
        for (index_t d = 0; d < dim; ++d)
            EXPECT_NEAR(acc1[static_cast<size_t>(d) + 1],
                        acc2[static_cast<size_t>(d) + 1], kTol)
                << "unaligned mixed axpy lane " << d << " dim " << dim;
    }
}

TEST(MicrokernelTest, Bf16EncodeEdgeCases)
{
    const value_t inf = std::numeric_limits<value_t>::infinity();
    const value_t qnan = std::numeric_limits<value_t>::quiet_NaN();
    // NaN must survive encoding as NaN: the rounding increment alone
    // would carry a small-payload NaN into the infinity encoding.
    const value_t snan = std::bit_cast<value_t>(0x7f800001u);
    EXPECT_TRUE(std::isnan(bf16_decode(bf16_encode(qnan))));
    EXPECT_TRUE(std::isnan(bf16_decode(bf16_encode(snan))));
    EXPECT_TRUE(std::isnan(bf16_decode(bf16_encode(-snan))));
    EXPECT_EQ(bf16_decode(bf16_encode(inf)), inf);
    EXPECT_EQ(bf16_decode(bf16_encode(-inf)), -inf);
    // Exactly representable values round-trip, signed zero included.
    EXPECT_EQ(bf16_decode(bf16_encode(1.0f)), 1.0f);
    EXPECT_EQ(bf16_decode(bf16_encode(-2.5f)), -2.5f);
    EXPECT_TRUE(std::signbit(bf16_decode(bf16_encode(-0.0f))));
    EXPECT_FALSE(std::signbit(bf16_decode(bf16_encode(0.0f))));
    // Round-to-nearest-EVEN at the halfway point: 1 + 2^-8 sits midway
    // between 1.0 (even) and 1 + 2^-7 (odd) and must round down, while
    // 1 + 2^-7 + 2^-8 must round up to 1 + 2^-6.
    EXPECT_EQ(bf16_decode(bf16_encode(
                  std::bit_cast<value_t>(0x3f808000u))),
              1.0f);
    EXPECT_EQ(bf16_decode(bf16_encode(
                  std::bit_cast<value_t>(0x3f818000u))),
              std::bit_cast<value_t>(0x3f820000u));

    // The kernels propagate NaN through the widen.
    const index_t dim = 11;
    const RowKernels &rk = select_row_kernels(dim);
    std::vector<value_t> src(static_cast<size_t>(dim), 2.0f);
    src[3] = qnan;
    src[10] = qnan; // vector body and tail
    std::vector<bf16_t> enc(static_cast<size_t>(dim));
    rk.encode_bf16(enc.data(), src.data(), dim);
    std::vector<value_t> acc(static_cast<size_t>(dim), 1.0f);
    rk.axpy_bf16(acc.data(), 0.5f, enc.data(), dim);
    for (index_t d = 0; d < dim; ++d) {
        if (d == 3 || d == 10)
            EXPECT_TRUE(std::isnan(acc[static_cast<size_t>(d)]))
                << "lane " << d;
        else
            EXPECT_NEAR(acc[static_cast<size_t>(d)], 2.0f, kTol)
                << "lane " << d;
    }
}

TEST(MicrokernelTest, QuantizeDenseMatchesSequentialReference)
{
    // DenseMatrix::quantize (sequential, quant.h primitives) and
    // quantize_dense (encode microkernel on the pool) must produce
    // identical shadow bytes, and neither may disturb the fp32 master.
    Pcg32 rng(91, 7);
    WorkStealPool pool(3);
    DenseMatrix a(37, 33), b(37, 33);
    a.fill_random(rng);
    for (index_t r = 0; r < a.rows(); ++r)
        for (index_t c = 0; c < a.cols(); ++c)
            b(r, c) = a(r, c);
    a.quantize(StorageMode::kBf16);
    quantize_dense(b, StorageMode::kBf16, &pool);
    ASSERT_EQ(a.storage(), StorageMode::kBf16);
    ASSERT_EQ(b.storage(), StorageMode::kBf16);
    for (index_t r = 0; r < a.rows(); ++r) {
        for (index_t c = 0; c < a.cols(); ++c) {
            EXPECT_EQ(a.row_bf16(r)[c], b.row_bf16(r)[c])
                << "bf16 code at (" << r << ", " << c << ")";
            EXPECT_EQ(a(r, c), b(r, c))
                << "fp32 master disturbed at (" << r << ", " << c << ")";
        }
    }
    // Dropping back to f32 releases the shadow without touching the
    // master.
    quantize_dense(b, StorageMode::kF32, &pool);
    EXPECT_EQ(b.storage(), StorageMode::kF32);
    for (index_t r = 0; r < a.rows(); ++r)
        for (index_t c = 0; c < a.cols(); ++c)
            EXPECT_EQ(a(r, c), b(r, c));
}

TEST(MicrokernelTest, DefaultPathAndNames)
{
    MicrokernelPath p = microkernel_default_path();
    if (!microkernel_simd_compiled()) {
        EXPECT_EQ(p, MicrokernelPath::kScalar);
    }
    EXPECT_STREQ(microkernel_path_name(MicrokernelPath::kScalar),
                 "scalar");
    EXPECT_STREQ(microkernel_path_name(MicrokernelPath::kSimd), "simd");
    EXPECT_GE(microkernel_vector_width(), 1);
}

} // namespace
} // namespace mps
