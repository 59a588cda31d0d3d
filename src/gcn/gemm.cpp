#include "mps/gcn/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <sys/mman.h>

#include "mps/core/microkernel.h"
#include "mps/core/simd_vec.h"
#include "mps/sparse/aligned_buffer.h"
#include "mps/util/log.h"
#include "mps/util/work_steal_pool.h"

#if MPS_AMX_BF16
#include <immintrin.h>
#endif

namespace mps {

namespace {

void
check_gemm_shapes(const DenseMatrix &x, const DenseMatrix &w,
                  const DenseMatrix &out)
{
    MPS_CHECK(x.cols() == w.rows(), "GEMM inner dimensions differ: ",
              x.cols(), " vs ", w.rows());
    MPS_CHECK(out.rows() == x.rows() && out.cols() == w.cols(),
              "GEMM output must be ", x.rows(), "x", w.cols());
}

/**
 * One dense product on raw row-major operands:
 *   C[rows x cols] (+)= X[rows x depth] * W[depth x cols]
 * with leading dimensions ldx/ldw/ldc. `accumulate` adds onto C
 * instead of overwriting it.
 */
struct GemmBlock
{
    const value_t *x;
    index_t ldx;
    const value_t *w;
    index_t ldw;
    value_t *c;
    index_t ldc;
    index_t rows, cols, depth;
    bool accumulate;
};

/**
 * The scalar path: a plain ikj loop, one in-memory FMA chain per
 * output element in ascending k — the reference the tiles are checked
 * against in forced-scalar builds. std::fma, not `+= a * b`: whether
 * the compiler contracts that expression depends on how it vectorizes
 * the loop, and a mul + add rounds differently from the tile's FMA.
 */
void
gemm_block_scalar(const GemmBlock &g)
{
    for (index_t i = 0; i < g.rows; ++i) {
        value_t *crow = g.c + i * g.ldc;
        const value_t *xrow = g.x + i * g.ldx;
        if (!g.accumulate)
            std::fill(crow, crow + g.cols, 0.0f);
        for (index_t k = 0; k < g.depth; ++k) {
            const value_t xv = xrow[k];
            const value_t *wrow = g.w + k * g.ldw;
            for (index_t j = 0; j < g.cols; ++j)
                crow[j] = std::fma(xv, wrow[j], crow[j]);
        }
    }
}

#if MPS_SIMD_VEC

/**
 * One MR-row, NV-vector register tile at (i0, j0), over SimdVec: 6 x 32
 * columns on AVX-512, 6 x 16 on AVX2. The accumulators stay in
 * registers for the whole k loop; each k step loads NV vectors of W's
 * row k, broadcasts x[r][k] and issues MR * NV FMAs. With kMasked the
 * last vector covers only the lanes set in @p mask (a column tail).
 * Per element this is exactly the chain acc = fma(x[r][k], w[k][j],
 * acc) over k ascending.
 */
template <int MR, int NV, bool kMasked>
inline void
tile(const GemmBlock &g, index_t i0, index_t j0, SimdVec::Mask mask)
{
    using V = SimdVec;
    const value_t *x = g.x + i0 * g.ldx;
    const value_t *w = g.w + j0;
    value_t *c = g.c + i0 * g.ldc + j0;
    const auto load = [&](const value_t *p, int v) {
        return kMasked && v == NV - 1 ? V::load(p + V::kLanes * v, mask)
                                      : V::load(p + V::kLanes * v);
    };
    V::Reg acc[MR][NV];
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            acc[r][v] = g.accumulate ? load(c + r * g.ldc, v) : V::zero();
    for (index_t k = 0; k < g.depth; ++k) {
        const value_t *wk = w + k * g.ldw;
        V::Reg wv[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
            wv[v] = load(wk, v);
#pragma GCC unroll 6
        for (int r = 0; r < MR; ++r) {
            const V::Reg xb = V::broadcast(x[r * g.ldx + k]);
#pragma GCC unroll 2
            for (int v = 0; v < NV; ++v)
                acc[r][v] = V::fmadd(xb, wv[v], acc[r][v]);
        }
    }
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) {
            value_t *p = c + r * g.ldc + V::kLanes * v;
            if (kMasked && v == NV - 1)
                V::store(p, acc[r][v], mask);
            else
                V::store(p, acc[r][v]);
        }
}

/** All column tiles of one MR-row strip: two vectors wide, then the tail. */
template <int MR>
void
strip(const GemmBlock &g, index_t i0)
{
    constexpr index_t kLanes = SimdVec::kLanes;
    const SimdVec::Mask none = SimdVec::prefix(0);
    index_t j = 0;
    for (; j + 2 * kLanes <= g.cols; j += 2 * kLanes)
        tile<MR, 2, false>(g, i0, j, none);
    const index_t rem = g.cols - j;
    if (rem == 0)
        return;
    const SimdVec::Mask mask =
        SimdVec::prefix(static_cast<int>(rem % kLanes));
    if (rem == kLanes)
        tile<MR, 1, false>(g, i0, j, none);
    else if (rem < kLanes)
        tile<MR, 1, true>(g, i0, j, mask);
    else
        tile<MR, 2, true>(g, i0, j, mask);
}

/**
 * 6-row strips (12 accumulator registers), then a 1-5 row tail. The
 * strip's rows of X stay in L1 across its column tiles. W is read in
 * place: packing its 16-column panels contiguously measured within
 * noise at f = h = 128 on the 8-lane tile (DESIGN.md §15).
 */
void
gemm_block_simd(const GemmBlock &g)
{
    index_t i = 0;
    for (; i + 6 <= g.rows; i += 6)
        strip<6>(g, i);
    switch (g.rows - i) {
      case 5: strip<5>(g, i); break;
      case 4: strip<4>(g, i); break;
      case 3: strip<3>(g, i); break;
      case 2: strip<2>(g, i); break;
      case 1: strip<1>(g, i); break;
      default: break;
    }
}

#endif // MPS_SIMD_VEC

/**
 * The one dense-product kernel every GEMM entry point runs: register
 * tiles on the AVX-512 or AVX2+FMA path, the plain loop on the scalar
 * path (and on NEON, which has no tile yet). Both give each output
 * element one FMA chain over k ascending, so they agree bit for bit.
 */
void
gemm_block(const GemmBlock &g)
{
    if (g.rows <= 0 || g.cols <= 0)
        return;
#if MPS_SIMD_VEC
    if (microkernel_default_path() == MicrokernelPath::kSimd) {
        gemm_block_simd(g);
        return;
    }
#endif
    gemm_block_scalar(g);
}

/**
 * Row-parallel front of gemm_block: chunks of kChunkRows rows (a
 * multiple of the 6-row tile) claimed as ranges over @p pool. With
 * @p tail_first the chunks are walked from the last one down.
 */
void
gemm_parallel(const GemmBlock &g, WorkStealPool &pool,
              bool tail_first = false)
{
    constexpr index_t kChunkRows = 48;
    if (g.rows <= 0)
        return;
    const uint64_t chunks =
        (static_cast<uint64_t>(g.rows) + kChunkRows - 1) / kChunkRows;
    pool.parallel_for_ranges(chunks, [&](uint64_t begin, uint64_t end) {
        for (uint64_t c = begin; c < end; ++c) {
            const auto chunk =
                static_cast<index_t>(tail_first ? chunks - 1 - c : c);
            GemmBlock part = g;
            const index_t row0 = chunk * kChunkRows;
            part.rows = std::min(kChunkRows, g.rows - row0);
            part.x += row0 * g.ldx;
            part.c += row0 * g.ldc;
            gemm_block(part);
        }
    });
}

/** Live ForceGemmFallback guards (see gemm.h). */
std::atomic<int> g_forced_fallbacks{0};

/** Live ForceRankUpdateFallback guards (see gemm.h). */
std::atomic<int> g_forced_rank_fallbacks{0};

/** The last RankUpdateEpilogue::tile_id handed out. */
std::atomic<uint64_t> g_rank_tile_ids{0};

#if MPS_AMX_BF16

/**
 * The bf16 tile product. Each task converts a 32-row block of X to
 * bf16 once and computes its outputs 32 x 32 at a time: two A tiles
 * (rows 0-15 and 16-31 of the block, 32 k each), two B tiles (two
 * 16-column VNNI tiles of W) and four C tiles of fp32 accumulators,
 * over k in steps of 32. A 16-wide remainder uses one B tile and two C
 * tiles. Tile numbers: C 0-3, A 4-5, B 6-7.
 */
constexpr index_t kTileRows = 16;  ///< rows of every tile, columns of C
constexpr index_t kTileDepth = 32; ///< bf16 k values in an A-tile row
constexpr index_t kBlockRows = 2 * kTileRows;
constexpr index_t kBTileElems = kTileRows * kTileDepth;

/** _tile_loadconfig's 64-byte layout, palette 1: 8 tiles of 16 x 64 B. */
struct alignas(64) TileConfig
{
    uint8_t palette = 1;
    uint8_t start_row = 0;
    uint8_t reserved[14] = {};
    uint16_t colsb[16] = {};
    uint8_t rows[16] = {};

    TileConfig()
    {
        for (int t = 0; t < 8; ++t) {
            colsb[t] = 64;
            rows[t] = kTileRows;
        }
    }
};

/**
 * The tile intrinsics are asm statements that do not tell the compiler
 * which memory they read: keep buffers written in C++ ordered before
 * the tile loads that read them.
 */
inline void
tile_memory_fence()
{
    __asm__ volatile("" ::: "memory");
}

/**
 * W[:, w_col0 : w_col0 + width) rounded to bf16 in _tile_dpbf16ps's B
 * layout: per 32-deep k block and 16-column tile, one contiguous 1 KiB
 * tile of 16 rows, row r holding the pairs (w[k0 + 2r][j],
 * w[k0 + 2r + 1][j]) for the tile's 16 columns j.
 */
AlignedVectorB16
pack_w_vnni(const DenseMatrix &w, index_t w_col0, index_t width)
{
    const index_t kblocks = w.rows() / kTileDepth;
    const index_t ctiles = width / kTileRows;
    AlignedVectorB16 packed(static_cast<size_t>(kblocks * ctiles) *
                            kBTileElems);
    for (index_t kb = 0; kb < kblocks; ++kb)
        for (index_t ct = 0; ct < ctiles; ++ct) {
            bf16_t *tile = packed.data() +
                           static_cast<size_t>(kb * ctiles + ct) *
                               kBTileElems;
            for (index_t k = 0; k < kTileDepth; ++k) {
                const value_t *wrow =
                    w.row(kb * kTileDepth + k) + w_col0 + ct * kTileRows;
                for (index_t j = 0; j < kTileRows; ++j)
                    tile[(k / 2) * kTileDepth + 2 * j + (k % 2)] =
                        bf16_encode(wrow[j]);
            }
        }
    return packed;
}

/** One panel's tile product: panel bf16 columns [0, width). */
struct AmxGemm
{
    const DenseMatrix *x;
    const bf16_t *w_packed; ///< pack_w_vnni of the panel's W columns
    index_t depth;
    index_t width;
    DenseMatrix *panel;
};

/**
 * X rows [r0, r0 + 32) rounded to bf16 (row stride depth) into @p xa;
 * rows at or past n are zero, and their outputs are never stored.
 */
void
load_x_block(const AmxGemm &g, index_t r0, bf16_t *xa)
{
    for (index_t i = 0; i < kBlockRows; ++i) {
        bf16_t *dst = xa + i * g.depth;
        if (r0 + i >= g.x->rows()) {
            std::fill(dst, dst + g.depth, bf16_t{0});
            continue;
        }
        const value_t *src = g.x->row(r0 + i);
        for (index_t k = 0; k < g.depth; k += kTileDepth) {
            const __m512bh v = _mm512_cvtne2ps_pbh(
                _mm512_loadu_ps(src + k + 16), _mm512_loadu_ps(src + k));
            std::memcpy(dst + k, &v, sizeof v);
        }
    }
    tile_memory_fence();
}

/**
 * The next block's X rows, fetched into L2 a few lines per k step while
 * the current block's tiles multiply, so the next load_x_block finds
 * them there instead of waiting on memory: the X stream and the tile
 * math overlap instead of taking turns. A prefetch changes no result.
 */
struct XPrefetch
{
    const char *next = nullptr; ///< the next line to fetch
    const char *end = nullptr;  ///< one past the last
    size_t step = 0;            ///< bytes to fetch per k step

    /**
     * The rows of block @p blk + 1 of @p g, spread over the @p ksteps
     * k steps of block @p blk's tile chains; nothing past the last row.
     */
    XPrefetch(const AmxGemm &g, uint64_t blk, index_t ksteps)
    {
        const index_t r1 = (static_cast<index_t>(blk) + 1) * kBlockRows;
        const index_t rows = std::min(kBlockRows, g.x->rows() - r1);
        if (rows <= 0)
            return;
        // Rows are padded to whole cache lines.
        next = reinterpret_cast<const char *>(g.x->row(r1));
        end = next + static_cast<size_t>(rows) *
                         static_cast<size_t>(g.x->padded_cols()) *
                         sizeof(value_t);
        const auto lines = static_cast<size_t>(end - next) / kRowAlignBytes;
        const auto k = static_cast<size_t>(ksteps);
        step = (lines + k - 1) / k * kRowAlignBytes;
    }

    /** One k step's share of the lines. */
    void fetch()
    {
        const char *stop = next + std::min<size_t>(step, end - next);
        for (; next < stop; next += kRowAlignBytes)
            _mm_prefetch(next, _MM_HINT_T1);
    }
};

/**
 * The 32 x 16*kCTiles outputs at column j0 of the block in @p xa, as
 * fp32 into @p cbuf (32 rows of 32 floats), fetching one share of @p pf
 * per k step.
 */
template <int kCTiles>
void
tile_block(const AmxGemm &g, const bf16_t *xa, index_t j0, float *cbuf,
           XPrefetch &pf)
{
    const long lda = static_cast<long>(g.depth * sizeof(bf16_t));
    const index_t ctiles = g.width / kTileRows;
    _tile_zero(0);
    _tile_zero(2);
    if constexpr (kCTiles == 2) {
        _tile_zero(1);
        _tile_zero(3);
    }
    for (index_t kb = 0; kb < g.depth / kTileDepth; ++kb) {
        const bf16_t *b = g.w_packed +
                          static_cast<size_t>(kb * ctiles + j0 / kTileRows) *
                              kBTileElems;
        _tile_loadd(4, xa + kb * kTileDepth, lda);
        _tile_loadd(5, xa + kTileRows * g.depth + kb * kTileDepth, lda);
        _tile_loadd(6, b, 64);
        _tile_dpbf16ps(0, 4, 6);
        _tile_dpbf16ps(2, 5, 6);
        if constexpr (kCTiles == 2) {
            _tile_loadd(7, b + kBTileElems, 64);
            _tile_dpbf16ps(1, 4, 7);
            _tile_dpbf16ps(3, 5, 7);
        }
        pf.fetch();
    }
    constexpr long ldc = kBlockRows * sizeof(float);
    _tile_stored(0, cbuf, ldc);
    _tile_stored(2, cbuf + kTileRows * kBlockRows, ldc);
    if constexpr (kCTiles == 2) {
        _tile_stored(1, cbuf + kTileRows, ldc);
        _tile_stored(3, cbuf + kTileRows * kBlockRows + kTileRows, ldc);
    }
}

/**
 * The first @p rows rows of @p cbuf, rounded to bf16, into the panel. A
 * 32-column pair is one whole cache line of a row: where it starts on a
 * line, it goes out as a non-temporal store, which writes the line
 * without first reading it into the cache (the panel is far larger than
 * the caches, and the sweep reads it back from memory anyway).
 * amx_blocks fences these stores before it returns.
 */
template <int kCTiles>
void
store_block(const AmxGemm &g, const float *cbuf, index_t r0, index_t rows,
            index_t j0)
{
    for (index_t i = 0; i < rows; ++i) {
        const float *c = cbuf + i * kBlockRows;
        bf16_t *dst = g.panel->row_bf16_mut(r0 + i) + j0;
        if constexpr (kCTiles == 2) {
            const __m512bh v = _mm512_cvtne2ps_pbh(
                _mm512_loadu_ps(c + kTileRows), _mm512_loadu_ps(c));
            if (reinterpret_cast<uintptr_t>(dst) % 64 == 0)
                _mm512_stream_si512(reinterpret_cast<__m512i *>(dst),
                                    reinterpret_cast<const __m512i &>(v));
            else
                std::memcpy(dst, &v, sizeof v);
        } else {
            const __m256bh v = _mm512_cvtneps_pbh(_mm512_loadu_ps(c));
            std::memcpy(dst, &v, sizeof v);
        }
    }
}

/**
 * tile_id of the RankUpdateEpilogue whose W this thread's B tiles 4-7
 * hold (see rank_tiles), 0 for none. Every other tile user on the
 * thread clears it.
 */
thread_local uint64_t t_rank_tiles = 0;

/** Blocks [begin, end) of 32 rows, on this thread's tiles. */
void
amx_blocks(const AmxGemm &g, uint64_t begin, uint64_t end)
{
    t_rank_tiles = 0;
    thread_local AlignedVectorB16 xa;
    const auto need = static_cast<size_t>(kBlockRows * g.depth);
    if (xa.size() < need)
        xa.resize(need);
    alignas(64) float cbuf[kBlockRows * kBlockRows];
    const TileConfig cfg;
    tile_memory_fence();
    _tile_loadconfig(&cfg);
    // k steps of one block: a chain of depth / 32 per 32-column pair
    // and per 16-column remainder.
    const index_t ksteps = (g.width + 2 * kTileRows - 1) /
                           (2 * kTileRows) * (g.depth / kTileDepth);
    for (uint64_t blk = begin; blk < end; ++blk) {
        const auto r0 = static_cast<index_t>(blk) * kBlockRows;
        const index_t rows = std::min(kBlockRows, g.x->rows() - r0);
        load_x_block(g, r0, xa.data());
        XPrefetch pf(g, blk, ksteps);
        index_t j = 0;
        for (; j + 2 * kTileRows <= g.width; j += 2 * kTileRows) {
            tile_block<2>(g, xa.data(), j, cbuf, pf);
            store_block<2>(g, cbuf, r0, rows, j);
        }
        if (j < g.width) {
            tile_block<1>(g, xa.data(), j, cbuf, pf);
            store_block<1>(g, cbuf, r0, rows, j);
        }
    }
    _tile_release();
    _mm_sfence(); // the non-temporal stores, before the sweep reads them
}

/**
 * The tile rank update's registers: C tiles 0-2 hold the outputs of
 * batch rows 0-15, 16-31 and 32-47; A tile 3 takes one 16 x 32 block of
 * the rounded batch at a time; B tiles 4-7 hold W's k blocks 0-3.
 * The tile intrinsics take their register numbers as literals, hence
 * the switches.
 */
void
rank_tiles(const RankUpdateEpilogue &e)
{
    if (t_rank_tiles == e.tile_id)
        return;
    const TileConfig cfg;
    tile_memory_fence();
    _tile_loadconfig(&cfg);
    const bf16_t *b = e.w_tiles->data();
    switch (e.w->rows() / kTileDepth) {
    case 4: _tile_loadd(7, b + 3 * kBTileElems, 64); [[fallthrough]];
    case 3: _tile_loadd(6, b + 2 * kBTileElems, 64); [[fallthrough]];
    case 2: _tile_loadd(5, b + kBTileElems, 64); [[fallthrough]];
    default: _tile_loadd(4, b, 64);
    }
    t_rank_tiles = e.tile_id;
}

/** C tile @p group += A tile 3 * B tile 4 + @p kb. */
inline void
rank_dp(int group, int kb)
{
    switch (group * 4 + kb) {
    case 0: _tile_dpbf16ps(0, 3, 4); break;
    case 1: _tile_dpbf16ps(0, 3, 5); break;
    case 2: _tile_dpbf16ps(0, 3, 6); break;
    case 3: _tile_dpbf16ps(0, 3, 7); break;
    case 4: _tile_dpbf16ps(1, 3, 4); break;
    case 5: _tile_dpbf16ps(1, 3, 5); break;
    case 6: _tile_dpbf16ps(1, 3, 6); break;
    case 7: _tile_dpbf16ps(1, 3, 7); break;
    case 8: _tile_dpbf16ps(2, 3, 4); break;
    case 9: _tile_dpbf16ps(2, 3, 5); break;
    case 10: _tile_dpbf16ps(2, 3, 6); break;
    default: _tile_dpbf16ps(2, 3, 7); break;
    }
}

/**
 * The tile rank update of one batch (RankUpdateEpilogue, gemm.h): its
 * rows as act(H) rounded to bf16, 16-row groups against the resident
 * W, each C row rounded to bf16 into its handoff row.
 */
void
amx_rank_update(const RankUpdateEpilogue &e, const FinishedRow *rows,
                int count)
{
    constexpr index_t kMaxDepth = 4 * kTileDepth;
    const index_t depth = e.w->rows();
    const index_t cols = e.w->cols();
    alignas(64) bf16_t a[kEpilogueBatchRows * kMaxDepth];
    alignas(64) float c[kEpilogueBatchRows * kTileRows];
    alignas(64) value_t act_row[kMaxDepth];
    const PanelEpilogue activate = e.act == Activation::kRelu
                                       ? nullptr
                                       : activation_epilogue(e.act);
    for (int i = 0; i < count; ++i) {
        const value_t *h = rows[i].crow;
        if (activate != nullptr) {
            std::memcpy(act_row, h, static_cast<size_t>(depth) * sizeof *h);
            const FinishedRow one{act_row, 0};
            activate(&one, 1, 0, depth, nullptr);
            h = act_row;
        }
        bf16_t *dst = a + i * depth;
        for (index_t k = 0; k < depth; k += kTileDepth) {
            __m512 lo = _mm512_loadu_ps(h + k);
            __m512 hi = _mm512_loadu_ps(h + k + 16);
            if (e.act == Activation::kRelu) {
                // max(x, +0) returns its second operand for a NaN or a
                // -0.0 x, as the vector tile's ReLU does.
                lo = SimdVec::max(lo, SimdVec::zero());
                hi = SimdVec::max(hi, SimdVec::zero());
            }
            const __m512bh v = _mm512_cvtne2ps_pbh(hi, lo);
            std::memcpy(dst + k, &v, sizeof v);
        }
    }
    tile_memory_fence();
    rank_tiles(e);
    // Rows past count in the last group hold stale values; a tile row's
    // outputs depend on that row alone, and these are never stored.
    const int groups = (count + kTileRows - 1) / static_cast<int>(kTileRows);
    const long lda = static_cast<long>(depth * sizeof(bf16_t));
    constexpr long ldc = kTileRows * sizeof(float);
    for (int g = 0; g < groups; ++g) {
        switch (g) {
        case 0: _tile_zero(0); break;
        case 1: _tile_zero(1); break;
        default: _tile_zero(2); break;
        }
        for (index_t kb = 0; kb < depth / kTileDepth; ++kb) {
            _tile_loadd(3, a + g * kTileRows * depth + kb * kTileDepth, lda);
            rank_dp(g, static_cast<int>(kb));
        }
        float *cg = c + g * kTileRows * kTileRows;
        switch (g) {
        case 0: _tile_stored(0, cg, ldc); break;
        case 1: _tile_stored(1, cg, ldc); break;
        default: _tile_stored(2, cg, ldc); break;
        }
    }
    tile_memory_fence();
    const __mmask16 live = static_cast<__mmask16>((1u << cols) - 1u);
    for (int i = 0; i < count; ++i) {
        bf16_t *dst = e.out->row_bf16_mut(rows[i].row);
        const __m256bh v =
            _mm512_cvtneps_pbh(_mm512_load_ps(c + i * kTileRows));
        _mm256_mask_storeu_epi16(dst, live,
                                 reinterpret_cast<const __m256i &>(v));
    }
}

#endif // MPS_AMX_BF16

/**
 * One lane: the stand-in for SimdVec on builds without one and on the
 * forced-scalar path. A "vector" is then one row and the transposes do
 * nothing, so the epilogue products run the very same loop nest, one
 * std::fma per multiply-add, and equal gemm_block_scalar.
 */
struct ScalarVec
{
    using Reg = value_t;
    using Mask = int; ///< 1 = the lane is live
    static constexpr int kLanes = 1;

    static Mask prefix(int n) { return n; }
    static Reg zero() { return 0.0f; }
    static Reg broadcast(value_t v) { return v; }
    static Reg fmadd(Reg a, Reg b, Reg c) { return std::fma(a, b, c); }
    static Reg max(Reg a, Reg b) { return a > b ? a : b; }
    static Reg load(const value_t *p) { return *p; }
    static Reg load(const value_t *p, Mask m) { return m != 0 ? *p : 0.0f; }
    static void store(value_t *p, Reg v) { *p = v; }
    static void store(value_t *p, Reg v, Mask m) {
        if (m != 0)
            *p = v;
    }
    static void transpose(Reg *) {}
};

/** Runs @p f with SimdVec on the SIMD path, else with ScalarVec. */
template <class F>
void
with_lanes(F &&f)
{
#if MPS_SIMD_VEC
    if (microkernel_default_path() == MicrokernelPath::kSimd) {
        f(SimdVec{});
        return;
    }
#endif
    f(ScalarVec{});
}

/**
 * The rows-in-lanes layout of an epilogue batch (DESIGN.md §15). Its
 * rows are transposed into k-major tiles: tile row k holds column k of
 * every batch row, `groups` vectors of kLanes rows each, so one vector
 * load reads one column of kLanes rows. A product then runs on a
 * kOuts-output x kVecs-vector register tile: per k it loads kVecs
 * vectors, broadcasts kOuts weights and issues kOuts * kVecs FMAs,
 * with every accumulator in a register (24 + 3 + 1 of 32 zmm on
 * AVX-512, 12 + 3 + 1 of 16 ymm on AVX2).
 */
template <class V>
struct LaneTile
{
    static constexpr int kLanes = V::kLanes;
    static constexpr int kVecs = 3;
    static constexpr int kOuts = V::kLanes == 16 ? 8 : 4;
    /** Tile rows are whole vectors and whole register tiles. */
    static constexpr index_t kRowAlign = std::max(kLanes, kOuts);
    static_assert(kRowAlignElems % kRowAlign == 0,
                  "a product's last outputs must stay inside W's padding");

    int count;
    int groups; ///< vectors per tile row
    index_t ld; ///< floats per tile row

    explicit LaneTile(int rows)
        : count(rows), groups((rows + kLanes - 1) / kLanes),
          ld(static_cast<index_t>(groups) * kLanes)
    {
    }

    /** Tile rows for a dimension of @p n. */
    static index_t rows(index_t n) {
        return (n + kRowAlign - 1) / kRowAlign * kRowAlign;
    }

    /** Floats of a tile over a dimension of @p n. */
    size_t floats(index_t n) const {
        return static_cast<size_t>(rows(n)) * static_cast<size_t>(ld);
    }
};

/**
 * Per-thread scratch of the epilogue products, grown on demand and
 * reused across batches and sweeps, like the sweep's staging tile, but
 * mapped straight from the kernel: taken from the heap, this block of
 * a few dozen KB kept glibc from returning freed heap memory and
 * raised gcn-amazon-bf16's peak RSS from 379 to 501 MB.
 */
value_t *
lane_scratch(size_t floats)
{
    struct Pages
    {
        void *base = nullptr;
        size_t bytes = 0;

        void release()
        {
            if (base != nullptr)
                munmap(base, bytes);
        }
        ~Pages() { release(); }
    };
    thread_local Pages pages;
    const size_t need = floats * sizeof(value_t);
    if (pages.bytes < need) {
        const size_t bytes = (need + 4095) / 4096 * 4096;
        void *base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        MPS_CHECK(base != MAP_FAILED, "cannot map ", bytes,
                  " bytes of epilogue scratch");
        pages.release();
        pages.base = base;
        pages.bytes = bytes;
    }
    return static_cast<value_t *>(pages.base);
}

/**
 * Columns [0, width) of @p src's rows into the k-major @p tile, through
 * kLanes x kLanes register transposes; lanes past the batch read 0.
 * With @p relu each value goes in as max(x, +0).
 */
template <class V>
void
to_k_major(const LaneTile<V> &lt, value_t *const *src, index_t width,
           bool relu, value_t *tile)
{
    constexpr int L = V::kLanes;
    const index_t ld = lt.ld;
    for (int g = 0; g < lt.groups; ++g) {
        value_t *const *rows = src + g * L;
        const int live = std::min(L, lt.count - g * L);
        value_t *t = tile + g * L;
        for (index_t k0 = 0; k0 < width; k0 += L) {
            const auto mask =
                V::prefix(static_cast<int>(std::min<index_t>(L, width - k0)));
            const bool tail = width - k0 < L;
            typename V::Reg v[L];
#pragma GCC unroll 16
            for (int r = 0; r < L; ++r) {
                v[r] = r >= live ? V::zero()
                       : tail    ? V::load(rows[r] + k0, mask)
                                 : V::load(rows[r] + k0);
                if (relu)
                    v[r] = V::max(v[r], V::zero());
            }
            V::transpose(v);
#pragma GCC unroll 16
            for (int c = 0; c < L; ++c)
                V::store(t + (k0 + c) * ld, v[c]);
        }
    }
}

/** The inverse: tile rows [0, width) back into columns of @p dst's rows. */
template <class V>
void
from_k_major(const LaneTile<V> &lt, const value_t *tile, index_t width,
             value_t *const *dst)
{
    constexpr int L = V::kLanes;
    const index_t ld = lt.ld;
    for (int g = 0; g < lt.groups; ++g) {
        value_t *const *rows = dst + g * L;
        const int live = std::min(L, lt.count - g * L);
        const value_t *t = tile + g * L;
        for (index_t j0 = 0; j0 < width; j0 += L) {
            const auto mask =
                V::prefix(static_cast<int>(std::min<index_t>(L, width - j0)));
            const bool tail = width - j0 < L;
            typename V::Reg v[L];
#pragma GCC unroll 16
            for (int c = 0; c < L; ++c)
                v[c] = V::load(t + (j0 + c) * ld);
            V::transpose(v);
#pragma GCC unroll 16
            for (int r = 0; r < L; ++r) {
                if (r >= live)
                    break;
                if (tail)
                    V::store(rows[r] + j0, v[r], mask);
                else
                    V::store(rows[r] + j0, v[r]);
            }
        }
    }
}

/**
 * One register tile: outputs [0, kOuts) of @p w's columns for the NV
 * row vectors at @p x, into @p o (tile rows = outputs). Per element
 * this is acc = fma(x[k], w[k][j], acc) over k ascending, from +0 or,
 * with @p accumulate, from @p o's value; @p relu stores max(acc, +0).
 */
template <class V, int NV>
inline void
lane_tile(const value_t *x, index_t ld, index_t depth, const value_t *w,
          index_t ldw, value_t *o, bool accumulate, bool relu)
{
    constexpr int L = V::kLanes;
    constexpr int MR = LaneTile<V>::kOuts;
    typename V::Reg acc[MR][NV];
#pragma GCC unroll 8
    for (int m = 0; m < MR; ++m)
#pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            acc[m][v] = accumulate ? V::load(o + m * ld + v * L) : V::zero();
    for (index_t k = 0; k < depth; ++k) {
        typename V::Reg xv[NV];
#pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            xv[v] = V::load(x + k * ld + v * L);
        const value_t *wk = w + k * ldw;
#pragma GCC unroll 8
        for (int m = 0; m < MR; ++m) {
            const typename V::Reg b = V::broadcast(wk[m]);
#pragma GCC unroll 3
            for (int v = 0; v < NV; ++v)
                acc[m][v] = V::fmadd(xv[v], b, acc[m][v]);
        }
    }
#pragma GCC unroll 8
    for (int m = 0; m < MR; ++m)
#pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            V::store(o + m * ld + v * L,
                     relu ? V::max(acc[m][v], V::zero()) : acc[m][v]);
}

/**
 * The epilogue product o (+)= x * w on k-major tiles: x holds @p depth
 * rows, o gets rows [0, LaneTile::rows(cols)), the last ones from W's
 * zero padding. @p w points at W's row of k = 0.
 */
template <class V>
void
lane_product(const LaneTile<V> &lt, const value_t *x, index_t depth,
             const value_t *w, index_t ldw, index_t cols, value_t *o,
             bool accumulate, bool relu)
{
    constexpr int L = V::kLanes;
    constexpr int NV = LaneTile<V>::kVecs;
    constexpr int MR = LaneTile<V>::kOuts;
    const index_t outs = LaneTile<V>::rows(cols);
    for (int g = 0; g < lt.groups; g += NV) {
        const value_t *xg = x + g * L;
        const int nv = std::min(NV, lt.groups - g);
        for (index_t j = 0; j < outs; j += MR) {
            value_t *og = o + j * lt.ld + g * L;
            if (nv == 3)
                lane_tile<V, 3>(xg, lt.ld, depth, w + j, ldw, og,
                                accumulate, relu);
            else if (nv == 2)
                lane_tile<V, 2>(xg, lt.ld, depth, w + j, ldw, og,
                                accumulate, relu);
            else
                lane_tile<V, 1>(xg, lt.ld, depth, w + j, ldw, og,
                                accumulate, relu);
        }
    }
}

/**
 * @p act over @p n floats of a k-major tile, when the product did not
 * fuse it as a register max (ReLU): activation_epilogue's own scalar
 * expression, with the tile handed over as one long row.
 */
void
activate_tile(Activation act, value_t *tile, size_t n)
{
    if (act == Activation::kRelu)
        return;
    if (const PanelEpilogue epi = activation_epilogue(act)) {
        const FinishedRow whole{tile, 0};
        epi(&whole, 1, 0, static_cast<index_t>(n), nullptr);
    }
}

/** A batch's rows and the destination rows they land on. */
struct BatchRows
{
    int count;
    value_t *src[kEpilogueBatchRows];
    value_t *dst[kEpilogueBatchRows];

    BatchRows(const FinishedRow *rows, int n, DenseMatrix &out) : count(n)
    {
        for (int i = 0; i < n; ++i) {
            src[i] = rows[i].crow;
            dst[i] = out.row(rows[i].row);
        }
    }
};

template <class V>
void
rank_update(const RankUpdateEpilogue &e, const BatchRows &b, index_t width)
{
    const LaneTile<V> lt(b.count);
    const index_t cols = e.w->cols();
    value_t *x = lane_scratch(lt.floats(width) + lt.floats(cols));
    value_t *o = x + lt.floats(width);
    to_k_major(lt, b.src, width, e.act == Activation::kRelu, x);
    activate_tile(e.act, x, lt.floats(width));
    // Panels after the first continue each row's chains from its
    // current value; the first stores, starting them from +0.
    const bool accumulate = e.w_row0 > 0;
    if (accumulate)
        to_k_major(lt, b.dst, cols, false, o);
    lane_product(lt, x, width, e.w->row(e.w_row0), e.w->padded_cols(), cols,
                 o, accumulate, false);
    from_k_major(lt, o, cols, b.dst);
}

template <class V>
void
combine(const CombineEpilogue &e, const BatchRows &b, index_t width)
{
    const LaneTile<V> lt(b.count);
    const index_t hidden = e.w->cols();
    const index_t out = e.w_next != nullptr ? e.w_next->cols() : 0;
    value_t *x = lane_scratch(lt.floats(width) + lt.floats(hidden) +
                              lt.floats(out));
    value_t *h = x + lt.floats(width);
    to_k_major(lt, b.src, width, false, x);
    lane_product(lt, x, width, e.w->data(), e.w->padded_cols(), hidden, h,
                 false, e.act == Activation::kRelu);
    activate_tile(e.act, h, lt.floats(hidden));
    if (e.w_next == nullptr) {
        from_k_major(lt, h, hidden, b.dst);
        return;
    }
    value_t *o = h + lt.floats(hidden);
    lane_product(lt, h, hidden, e.w_next->data(), e.w_next->padded_cols(),
                 out, o, false, false);
    from_k_major(lt, o, out, b.dst);
}

} // namespace

void
dense_gemm(const DenseMatrix &x, const DenseMatrix &w, DenseMatrix &out,
           WorkStealPool &pool)
{
    check_gemm_shapes(x, w, out);
    gemm_parallel({x.data(), x.padded_cols(), w.data(), w.padded_cols(),
                   out.data(), out.padded_cols(), x.rows(), w.cols(),
                   x.cols(), false},
                  pool);
}

void
reference_gemm(const DenseMatrix &x, const DenseMatrix &w,
               DenseMatrix &out)
{
    check_gemm_shapes(x, w, out);
    for (index_t i = 0; i < x.rows(); ++i)
        for (index_t j = 0; j < w.cols(); ++j) {
            value_t acc = 0.0f;
            for (index_t k = 0; k < x.cols(); ++k)
                acc = std::fma(x(i, k), w(k, j), acc);
            out(i, j) = acc;
        }
}

void
dense_gemm_panel(const DenseMatrix &x, index_t x_col0, const DenseMatrix &w,
                 index_t w_col0, index_t width, DenseMatrix &panel,
                 index_t panel_col0, WorkStealPool &pool)
{
    MPS_CHECK(width > 0 && w_col0 >= 0 && w_col0 + width <= w.cols(),
              "W panel [", w_col0, ", ", w_col0 + width,
              ") out of range for ", w.cols(), " cols");
    MPS_CHECK(panel_col0 >= 0 && panel_col0 + width <= panel.cols(),
              "panel columns out of range");
    MPS_CHECK(x_col0 >= 0 && x_col0 + w.rows() <= x.cols(),
              "X columns [", x_col0, ", ", x_col0 + w.rows(),
              ") out of range for ", x.cols(), " cols");
    MPS_CHECK(x.rows() <= panel.rows(), "panel has too few rows");
    gemm_parallel({x.data() + x_col0, x.padded_cols(), w.data() + w_col0,
                   w.padded_cols(), panel.data() + panel_col0,
                   panel.padded_cols(), x.rows(), width, w.rows(), false},
                  pool);
}

void
dense_gemm_panel(const DenseMatrix &x, const DenseMatrix &w,
                 index_t w_col0, index_t width, DenseMatrix &panel,
                 WorkStealPool &pool)
{
    MPS_CHECK(x.cols() == w.rows(), "GEMM inner dimensions differ: ",
              x.cols(), " vs ", w.rows());
    dense_gemm_panel(x, /*x_col0=*/0, w, w_col0, width, panel,
                     /*panel_col0=*/0, pool);
}

void
dense_gemm_rank_update(const DenseMatrix &h_panel, index_t width,
                       const DenseMatrix &w, index_t w_row0,
                       DenseMatrix &out, WorkStealPool &pool)
{
    MPS_CHECK(width > 0 && width <= h_panel.cols(),
              "panel width out of range");
    MPS_CHECK(w_row0 >= 0 && w_row0 + width <= w.rows(),
              "W rows [", w_row0, ", ", w_row0 + width,
              ") out of range for ", w.rows(), " rows");
    MPS_CHECK(out.rows() == h_panel.rows() && out.cols() == w.cols(),
              "rank-update output must be ", h_panel.rows(), "x",
              w.cols());
    // The pipeline calls this right after the panel sweep, which
    // committed rows in ascending traversal order — so the panel's
    // TAIL is what is still cache-resident. Rows are independent, so
    // consume the most recently committed chunks first; on big panels
    // this turns a cold DRAM re-read of the head into a hot re-read of
    // the tail.
    gemm_parallel({h_panel.data(), h_panel.padded_cols(), w.row(w_row0),
                   w.padded_cols(), out.data(), out.padded_cols(),
                   out.rows(), w.cols(), width, true},
                  pool, /*tail_first=*/true);
}

void
RankUpdateEpilogue::apply(const FinishedRow *rows, int count,
                          index_t /*c_col0*/, index_t width,
                          const void *ctx)
{
    const auto &e = *static_cast<const RankUpdateEpilogue *>(ctx);
    if (e.w_tiles != nullptr) {
        MPS_CHECK(e.w_row0 == 0 && width == e.w->rows(),
                  "the tile rank update needs the whole row in one panel");
#if MPS_AMX_BF16
        amx_rank_update(e, rows, count);
#endif
        return;
    }
    const BatchRows b(rows, count, *e.out);
    // No zero-skip: post-ReLU rows are about half zeros in an
    // unpredictable pattern, and a skip branch would cost more than
    // the FMAs it saves. Adding hv * w with hv == 0 contributes
    // ±0.0f, which leaves every accumulator value bit-unchanged except
    // one already holding -0.0f — and these sums cannot produce -0.0f
    // without a product underflowing, far outside the value ranges GNN
    // features reach. The 1-thread bit gates verify this empirically.
    with_lanes([&](auto v) { rank_update<decltype(v)>(e, b, width); });
}

RankUpdateEpilogue
make_rank_update_epilogue(Activation act, const DenseMatrix &w,
                          DenseMatrix &out)
{
    MPS_CHECK(out.cols() == w.cols(), "rank-update accumulator must be n x ",
              w.cols());
    RankUpdateEpilogue e;
    e.act = act;
    e.w = &w;
    e.out = &out;
    if (!out.has_f32()) {
        MPS_CHECK(amx_rank_update_enabled() &&
                      amx_rank_update_fits(w.rows(), w.cols()),
                  "a bf16 rank-update destination needs the AMX tiles and a ",
                  "depth of at most 128 in steps of 32 into at most 16 ",
                  "outputs");
#if MPS_AMX_BF16
        e.w_tiles = std::make_shared<const AlignedVectorB16>(
            pack_w_vnni(w, 0, kTileRows));
#endif
        e.tile_id = g_rank_tile_ids.fetch_add(1) + 1;
    }
    return e;
}

void
CombineEpilogue::apply(const FinishedRow *rows, int count, index_t c_col0,
                       index_t width, const void *ctx)
{
    const auto &e = *static_cast<const CombineEpilogue *>(ctx);
    MPS_CHECK(c_col0 == 0 && width == e.w->rows(),
              "combine epilogue needs the whole aggregated row");
    const BatchRows b(rows, count, *e.out);
    with_lanes([&](auto v) { combine<decltype(v)>(e, b, width); });
}

CombineEpilogue
make_combine_epilogue(Activation act, const DenseMatrix &w,
                      DenseMatrix &out, const DenseMatrix *w_next)
{
    const index_t out_width = w_next != nullptr ? w_next->cols() : w.cols();
    MPS_CHECK(w_next == nullptr || w_next->rows() == w.cols(),
              "next layer's weights must take ", w.cols(), " inputs");
    MPS_CHECK(out.cols() == out_width, "combine destination must be n x ",
              out_width);
    CombineEpilogue e;
    e.act = act;
    e.w = &w;
    e.out = &out;
    e.w_next = w_next;
    return e;
}

PanelSourceFn
gemm_panel_source(const DenseMatrix &x, const DenseMatrix &w,
                  WorkStealPool &pool)
{
    // The buffer is shared by every panel of the run (the first call
    // sees the widest panel) and owned by the closure, so slice-backed
    // plans never pay for it.
    auto buf = std::make_shared<DenseMatrix>();
    return [&x, &w, &pool, buf](index_t col0, index_t width) {
        if (buf->rows() != x.rows() || buf->cols() < width)
            *buf = DenseMatrix::for_overwrite(x.rows(), width);
        dense_gemm_panel(x, w, col0, width, *buf, pool);
        // fresh: the buffer was just rewritten for this panel, so a
        // quantizing plan must re-encode it (panel columns only).
        return PanelSource{buf.get(), 0, buf.get(), Freshness::kPanel};
    };
}

PanelSourceFn
gemm_panel_source(const DenseMatrix &x, const DenseMatrix &w,
                  WorkStealPool &pool, DenseMatrix &buf,
                  StorageMode precision)
{
    return [&x, &w, &pool, &buf, precision](index_t col0, index_t width) {
        if (precision == StorageMode::kBf16 && amx_gemm_enabled() &&
            amx_gemm_fits(w.rows(), width)) {
            // The product lands in the bf16 rows: the buffer holds no
            // f32 rows, and the plan has nothing left to encode.
            if (buf.has_f32() || buf.rows() != x.rows() ||
                buf.cols() < width)
                buf = DenseMatrix::bf16_panel(x.rows(), width);
            amx_gemm_panel(x, w, col0, width, buf, pool);
            return PanelSource{&buf, 0};
        }
        if (!buf.has_f32() || buf.rows() != x.rows() || buf.cols() < width)
            buf = DenseMatrix::for_overwrite(x.rows(), width);
        dense_gemm_panel(x, w, col0, width, buf, pool);
        return PanelSource{&buf, 0, &buf, Freshness::kPanel};
    };
}

bool
amx_gemm_enabled()
{
    return amx_tiles_granted() &&
           g_forced_fallbacks.load(std::memory_order_relaxed) == 0;
}

bool
amx_gemm_fits(index_t depth, index_t width)
{
    return depth > 0 && depth % 32 == 0 && width > 0 && width % 16 == 0;
}

bool
amx_gemm_panel(const DenseMatrix &x, const DenseMatrix &w, index_t w_col0,
               index_t width, DenseMatrix &panel, WorkStealPool &pool)
{
    MPS_CHECK(x.cols() == w.rows(), "GEMM inner dimensions differ: ",
              x.cols(), " vs ", w.rows());
    MPS_CHECK(width > 0 && w_col0 >= 0 && w_col0 + width <= w.cols(),
              "W panel [", w_col0, ", ", w_col0 + width,
              ") out of range for ", w.cols(), " cols");
    MPS_CHECK(panel.storage() == StorageMode::kBf16 &&
                  panel.rows() >= x.rows() && panel.cols() >= width,
              "AMX GEMM needs a bf16 panel of at least ", x.rows(), "x",
              width);
    if (!amx_gemm_enabled() || !amx_gemm_fits(w.rows(), width))
        return false;
#if MPS_AMX_BF16
    const AlignedVectorB16 packed = pack_w_vnni(w, w_col0, width);
    const AmxGemm g{&x, packed.data(), w.rows(), width, &panel};
    const uint64_t blocks =
        (static_cast<uint64_t>(x.rows()) + kBlockRows - 1) / kBlockRows;
    pool.parallel_for_ranges(blocks, [&g](uint64_t begin, uint64_t end) {
        amx_blocks(g, begin, end);
    });
    return true;
#else
    (void)pool;
    return false; // amx_tiles_granted() is false without the kernel
#endif
}

bool
amx_rank_update_enabled()
{
    return amx_tiles_granted() &&
           g_forced_rank_fallbacks.load(std::memory_order_relaxed) == 0;
}

bool
amx_rank_update_fits(index_t depth, index_t cols)
{
    return depth > 0 && depth <= 128 && depth % 32 == 0 && cols > 0 &&
           cols <= 16;
}

ForceRankUpdateFallback::ForceRankUpdateFallback()
{
    g_forced_rank_fallbacks.fetch_add(1, std::memory_order_relaxed);
}

ForceRankUpdateFallback::~ForceRankUpdateFallback()
{
    g_forced_rank_fallbacks.fetch_sub(1, std::memory_order_relaxed);
}

ForceGemmFallback::ForceGemmFallback()
{
    g_forced_fallbacks.fetch_add(1, std::memory_order_relaxed);
}

ForceGemmFallback::~ForceGemmFallback()
{
    g_forced_fallbacks.fetch_sub(1, std::memory_order_relaxed);
}

PanelSourceFn
slice_panel_source(const DenseMatrix &xw)
{
    return [&xw](index_t col0, index_t) {
        return PanelSource{&xw, col0};
    };
}

PanelSourceFn
slice_panel_source(DenseMatrix &xw)
{
    // Mutable overload: the plan may quantize the matrix in place (the
    // shadow encode happens once, on the first panel, full-width).
    return [&xw](index_t col0, index_t) {
        return PanelSource{&xw, col0, &xw, Freshness::kStable};
    };
}

PanelSourceFn
handoff_panel_source(DenseMatrix &h)
{
    return [&h](index_t col0, index_t) {
        return PanelSource{&h, col0, &h, Freshness::kRun};
    };
}

} // namespace mps
