/** Tests for matrix containers, conversions and file IO. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "mps/sparse/aligned_buffer.h"
#include "mps/sparse/coo_matrix.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/degree_stats.h"
#include "mps/sparse/dense_matrix.h"
#include "mps/sparse/io.h"
#include "mps/sparse/quant.h"
#include "mps/util/rng.h"

namespace mps {
namespace {

CsrMatrix
small_csr()
{
    // 4x5:
    //   [ 1 0 2 0 0 ]
    //   [ 0 0 0 0 0 ]
    //   [ 0 3 0 4 5 ]
    //   [ 6 0 0 0 0 ]
    return CsrMatrix(4, 5, {0, 2, 2, 5, 6}, {0, 2, 1, 3, 4, 0},
                     {1, 2, 3, 4, 5, 6});
}

TEST(DenseMatrix, ConstructionAndAccess)
{
    DenseMatrix m(3, 2);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 2);
    EXPECT_FLOAT_EQ(m(2, 1), 0.0f);
    m(1, 0) = 5.0f;
    EXPECT_FLOAT_EQ(m.row(1)[0], 5.0f);
}

/**
 * for_overwrite() leaves the elements to their producer but zeroes the
 * row padding (width 9: 7 padding lanes per row), so every lane a
 * row-wise kernel may read is defined. A 64-row matrix (4 KiB, too
 * large for glibc's per-thread cache) is dirtied and freed first, so
 * the small matrix under test is likely carved from its bytes rather
 * than from fresh zero pages.
 */
TEST(DenseMatrix, ForOverwriteZeroesRowPadding)
{
    {
        DenseMatrix dirty = DenseMatrix::for_overwrite(64, 9);
        std::fill(dirty.data(), dirty.data() + 64 * dirty.padded_cols(),
                  -1.0f);
    }
    DenseMatrix m = DenseMatrix::for_overwrite(5, 9);
    EXPECT_EQ(m.rows(), 5);
    EXPECT_EQ(m.cols(), 9);
    ASSERT_EQ(m.padded_cols(), 16);
    EXPECT_TRUE(m.has_f32());
    EXPECT_EQ(m.storage(), StorageMode::kF32);
    for (index_t r = 0; r < m.rows(); ++r) {
        for (index_t c = m.cols(); c < m.padded_cols(); ++c)
            EXPECT_EQ(m.row(r)[c], 0.0f) << "(" << r << ", " << c << ")";
        for (index_t c = 0; c < m.cols(); ++c)
            m(r, c) = static_cast<value_t>(r * m.cols() + c);
    }
    EXPECT_EQ(m(4, 8), 44.0f);
    const DenseMatrix copy = m;
    EXPECT_EQ(copy.max_abs_diff(m), 0.0);
}

/**
 * bf16_panel() leaves the elements to their producer, as
 * for_overwrite() does, but zeroes the row padding (width 9: lanes 9-15
 * of each row read 0), so a gather of whole 16-lane rows reads no
 * undefined lane. A 64-row panel (2 KiB, too large for glibc's
 * per-thread cache) is dirtied and freed first, so the small panel under
 * test is likely carved from its bytes rather than from fresh zero pages.
 */
TEST(DenseMatrix, Bf16PanelZeroesRowPadding)
{
    {
        DenseMatrix dirty = DenseMatrix::bf16_panel(64, 9);
        std::fill(dirty.row_bf16_mut(0),
                  dirty.row_bf16_mut(0) + 64 * dirty.padded_cols(),
                  bf16_t{0xFFFF});
    }
    DenseMatrix m = DenseMatrix::bf16_panel(5, 9);
    EXPECT_EQ(m.rows(), 5);
    EXPECT_EQ(m.cols(), 9);
    ASSERT_EQ(m.padded_cols(), 16);
    EXPECT_FALSE(m.has_f32());
    EXPECT_EQ(m.storage(), StorageMode::kBf16);
    for (index_t r = 0; r < m.rows(); ++r) {
        for (index_t c = m.cols(); c < m.padded_cols(); ++c)
            EXPECT_EQ(m.row_bf16(r)[c], 0) << "(" << r << ", " << c << ")";
        for (index_t c = 0; c < m.cols(); ++c)
            m.row_bf16_mut(r)[c] = bf16_encode(static_cast<value_t>(c));
    }
    EXPECT_EQ(bf16_decode(m.row_bf16(4)[8]), 8.0f);
    const DenseMatrix copy = m;
    EXPECT_EQ(std::memcmp(copy.row_bf16(4), m.row_bf16(4),
                          16 * sizeof(bf16_t)),
              0);
}

/**
 * The huge-page size rule: a block of at least kHugeBlockBytes starts
 * on a 2 MiB boundary (when the host's transparent huge pages are not
 * off), a smaller one on a cache line, and both keep the row padding
 * zero — the zero-filled, for_overwrite and bf16-shadow forms alike.
 * 200,000 rows of width 9 are 200,000 x 16 floats, 12.8 MB.
 */
TEST(DenseMatrix, LargeBlocksSitOnHugePages)
{
    const index_t rows = 200000, cols = 9;
    ASSERT_GE(static_cast<size_t>(rows) * 16 * sizeof(value_t),
              kHugeBlockBytes);
    const size_t huge = huge_pages_enabled() ? kHugePageBytes : kRowAlignBytes;
    const auto offset = [](const void *p, size_t align) {
        return reinterpret_cast<uintptr_t>(p) % align;
    };
    DenseMatrix zeroed(rows, cols);
    DenseMatrix overwrite = DenseMatrix::for_overwrite(rows, cols);
    DenseMatrix shadowed(rows, cols);
    shadowed.set_storage(StorageMode::kBf16);
    const DenseMatrix small(1000, cols);
    EXPECT_EQ(offset(zeroed.data(), huge), 0u);
    EXPECT_EQ(offset(overwrite.data(), huge), 0u);
    EXPECT_EQ(offset(small.data(), kRowAlignBytes), 0u);
    for (DenseMatrix *m : {&zeroed, &overwrite, &shadowed}) {
        for (index_t r = 0; r < rows; ++r)
            for (index_t c = 0; c < cols; ++c)
                (*m)(r, c) = 1.0f;
        for (index_t r = 0; r < rows; ++r)
            for (index_t c = cols; c < m->padded_cols(); ++c)
                ASSERT_EQ(m->row(r)[c], 0.0f) << "(" << r << ", " << c << ")";
    }
    for (index_t r = 0; r < rows; ++r)
        for (index_t c = cols; c < shadowed.padded_cols(); ++c)
            ASSERT_EQ(shadowed.row_bf16(r)[c], 0) << "(" << r << ", " << c
                                                  << ")";
    AlignedVectorB16 big(kHugeBlockBytes / sizeof(bf16_t));
    EXPECT_EQ(offset(big.data(), huge), 0u);
}

TEST(DenseMatrix, FillAndDiff)
{
    DenseMatrix a(2, 2), b(2, 2);
    a.fill(1.0f);
    b.fill(1.0f);
    EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
    b(1, 1) = 1.5f;
    EXPECT_NEAR(a.max_abs_diff(b), 0.5, 1e-7);
    EXPECT_FALSE(a.approx_equal(b));
    EXPECT_TRUE(a.approx_equal(b, 0.6, 0.0));
}

TEST(DenseMatrix, ApproxEqualUsesRelativeTolerance)
{
    DenseMatrix a(1, 1), b(1, 1);
    a(0, 0) = 1000.0f;
    b(0, 0) = 1000.05f;
    EXPECT_TRUE(a.approx_equal(b, 1e-6, 1e-3));
    EXPECT_FALSE(a.approx_equal(b, 1e-6, 1e-8));
}

TEST(DenseMatrix, RandomFillDeterministic)
{
    Pcg32 r1(9), r2(9);
    DenseMatrix a(4, 4), b(4, 4);
    a.fill_random(r1);
    b.fill_random(r2);
    EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
}

/** Every f32 and bf16 spelling parses; nothing else does. */
TEST(StorageMode, ParseAcceptsOnlyF32AndBf16Spellings)
{
    const struct
    {
        const char *name;
        StorageMode mode;
    } known[] = {{"f32", StorageMode::kF32},
                 {"fp32", StorageMode::kF32},
                 {"float", StorageMode::kF32},
                 {"float32", StorageMode::kF32},
                 {"bf16", StorageMode::kBf16},
                 {"bfloat16", StorageMode::kBf16}};
    for (const auto &k : known) {
        StorageMode got = k.mode == StorageMode::kF32 ? StorageMode::kBf16
                                                      : StorageMode::kF32;
        EXPECT_TRUE(parse_storage_mode(k.name, &got)) << k.name;
        EXPECT_EQ(got, k.mode) << k.name;
    }
    for (const char *bad : {"int8", "i8", "", "F32", "bf", "garbage"}) {
        StorageMode got = StorageMode::kBf16;
        EXPECT_FALSE(parse_storage_mode(bad, &got)) << bad;
        EXPECT_EQ(got, StorageMode::kBf16) << bad << " wrote its output";
    }
    EXPECT_FALSE(parse_storage_mode(nullptr, nullptr));
    EXPECT_STREQ(storage_mode_name(StorageMode::kF32), "f32");
    EXPECT_STREQ(storage_mode_name(StorageMode::kBf16), "bf16");
}

TEST(CooMatrix, SortAndMergeSumsDuplicates)
{
    CooMatrix m(3, 3);
    m.add(2, 1, 1.0f);
    m.add(0, 0, 2.0f);
    m.add(2, 1, 3.0f);
    m.add(1, 2, 4.0f);
    m.sort_and_merge();
    ASSERT_EQ(m.nnz(), 3);
    EXPECT_EQ(m.entries()[0].row, 0);
    EXPECT_EQ(m.entries()[1].row, 1);
    EXPECT_EQ(m.entries()[2].row, 2);
    EXPECT_FLOAT_EQ(m.entries()[2].value, 4.0f);
}

TEST(CsrMatrix, BasicShapeAndDegrees)
{
    CsrMatrix m = small_csr();
    EXPECT_EQ(m.rows(), 4);
    EXPECT_EQ(m.cols(), 5);
    EXPECT_EQ(m.nnz(), 6);
    EXPECT_EQ(m.degree(0), 2);
    EXPECT_EQ(m.degree(1), 0);
    EXPECT_EQ(m.degree(2), 3);
    EXPECT_EQ(m.row_begin(2), 2);
    EXPECT_EQ(m.row_end(2), 5);
}

TEST(CsrMatrix, FromCooMatchesManualBuild)
{
    CooMatrix coo(4, 5);
    coo.add(2, 3, 4.0f);
    coo.add(0, 0, 1.0f);
    coo.add(2, 1, 3.0f);
    coo.add(0, 2, 2.0f);
    coo.add(3, 0, 6.0f);
    coo.add(2, 4, 5.0f);
    CsrMatrix m = CsrMatrix::from_coo(std::move(coo));
    CsrMatrix expect = small_csr();
    EXPECT_EQ(m.row_ptr(), expect.row_ptr());
    EXPECT_EQ(m.col_idx(), expect.col_idx());
    EXPECT_EQ(m.values(), expect.values());
}

TEST(CsrMatrix, CooRoundTrip)
{
    CsrMatrix m = small_csr();
    CsrMatrix back = CsrMatrix::from_coo(m.to_coo());
    EXPECT_EQ(back.row_ptr(), m.row_ptr());
    EXPECT_EQ(back.col_idx(), m.col_idx());
    EXPECT_EQ(back.values(), m.values());
}

TEST(CsrMatrix, TransposeTwiceIsIdentity)
{
    CsrMatrix m = small_csr();
    CsrMatrix tt = m.transposed().transposed();
    EXPECT_EQ(tt.rows(), m.rows());
    EXPECT_EQ(tt.cols(), m.cols());
    EXPECT_EQ(tt.row_ptr(), m.row_ptr());
    EXPECT_EQ(tt.col_idx(), m.col_idx());
    EXPECT_EQ(tt.values(), m.values());
}

TEST(CsrMatrix, TransposeMovesEntries)
{
    CsrMatrix t = small_csr().transposed();
    EXPECT_EQ(t.rows(), 5);
    EXPECT_EQ(t.cols(), 4);
    EXPECT_EQ(t.nnz(), 6);
    // Entry (3, 0) = 6 becomes (0, 3).
    bool found = false;
    for (index_t k = t.row_begin(0); k < t.row_end(0); ++k) {
        if (t.col_idx()[k] == 3) {
            EXPECT_FLOAT_EQ(t.values()[k], 6.0f);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(CsrMatrix, NormalizeGcnSymmetricWeights)
{
    // 2-node cycle: both entries get 1/sqrt(2*2) = 0.5.
    CsrMatrix m(2, 2, {0, 1, 2}, {1, 0}, {1.0f, 1.0f});
    m.normalize_gcn();
    EXPECT_FLOAT_EQ(m.values()[0], 0.5f);
    EXPECT_FLOAT_EQ(m.values()[1], 0.5f);
}

TEST(CsrMatrixDeathTest, ValidateCatchesBadRowPtr)
{
    EXPECT_DEATH(CsrMatrix(2, 2, {0, 2, 1}, {0}, {1.0f}),
                 "non-decreasing");
}

TEST(CsrMatrixDeathTest, ValidateCatchesBadColumn)
{
    EXPECT_DEATH(CsrMatrix(1, 2, {0, 1}, {5}, {1.0f}), "out of range");
}

TEST(DegreeStats, SmallMatrix)
{
    DegreeStats s = compute_degree_stats(small_csr());
    EXPECT_EQ(s.min_degree, 0);
    EXPECT_EQ(s.max_degree, 3);
    EXPECT_NEAR(s.avg_degree, 1.5, 1e-12);
    EXPECT_NEAR(s.empty_row_fraction, 0.25, 1e-12);
    EXPECT_GT(s.degree_cv, 0.0);
    EXPECT_FALSE(to_string(s).empty());
}

TEST(DegreeStats, HistogramCountsRows)
{
    Log2Histogram h = degree_histogram(small_csr());
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.zero_count(), 1u);
}

TEST(MatrixMarketIo, RoundTrip)
{
    CsrMatrix m = small_csr();
    std::ostringstream out;
    write_matrix_market(out, m.to_coo());
    std::istringstream in(out.str());
    CsrMatrix back = CsrMatrix::from_coo(read_matrix_market(in));
    EXPECT_EQ(back.row_ptr(), m.row_ptr());
    EXPECT_EQ(back.col_idx(), m.col_idx());
    EXPECT_EQ(back.values(), m.values());
}

TEST(MatrixMarketIo, PatternAndComments)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% a comment\n"
        "3 3 2\n"
        "1 2\n"
        "3 1\n");
    CooMatrix m = read_matrix_market(in);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_FLOAT_EQ(m.entries()[0].value, 1.0f);
}

TEST(MatrixMarketIo, SymmetricExpansion)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 7.0\n");
    CsrMatrix m = CsrMatrix::from_coo(read_matrix_market(in));
    // Off-diagonal expands to both triangles; diagonal does not double.
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_EQ(m.degree(0), 1);
    EXPECT_EQ(m.degree(1), 1);
    EXPECT_EQ(m.degree(2), 1);
}

TEST(MatrixMarketIoDeathTest, RejectsBadBanner)
{
    std::istringstream in("%%NotMatrixMarket x y z w\n1 1 0\n");
    EXPECT_EXIT(read_matrix_market(in), testing::ExitedWithCode(1),
                "banner");
}

TEST(EdgeListIo, DirectedAndWeighted)
{
    std::istringstream in(
        "# comment line\n"
        "0 1 2.5\n"
        "4 2\n");
    CsrMatrix m = CsrMatrix::from_coo(read_edge_list(in));
    EXPECT_EQ(m.rows(), 5);
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_FLOAT_EQ(m.values()[0], 2.5f);
    EXPECT_FLOAT_EQ(m.values()[1], 1.0f);
}

TEST(EdgeListIo, UndirectedDoublesEdges)
{
    std::istringstream in("0 1\n1 2\n");
    CooMatrix m = read_edge_list(in, /*undirected=*/true);
    EXPECT_EQ(m.nnz(), 4);
}

} // namespace
} // namespace mps
