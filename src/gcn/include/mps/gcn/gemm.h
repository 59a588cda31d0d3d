/**
 * @file
 * Dense GEMM for the combination phase of a GCN layer: XW = X * W with
 * X (n x f) the node-feature matrix and W (f x d) the trained weights.
 *
 * The full GEMM, the panel GEMM feeding the fused pipeline and the
 * rank updates run one kernel: a 6-row x 2-vector accumulator tile held
 * in registers, with 1-5 row and masked column tails (a plain loop on
 * the scalar microkernel path). The batched commit epilogues run the
 * products of a batch of rows with the rows in lanes instead: the batch
 * is transposed into k-major tiles and each product runs an 8-output x
 * 3-vector register tile (4 x 3 on AVX2), which loads a third as many
 * operands per FMA. Each output element is one FMA chain over k in
 * ascending order either way, so a column slice, a row slice, a batch
 * or a k-split rank update of a product is bit-identical to the
 * corresponding part of the whole product. X is not zero-skipped: a
 * zero term adds ±0.0f, which leaves every accumulator bit-unchanged
 * unless it already holds -0.0f (see RankUpdateEpilogue). DESIGN.md
 * §15 has the numbers.
 *
 * Two products run elsewhere, on the AMX tiles where the host grants
 * them, and only for bf16 plans:
 *  - a bf16 plan's GEMM panel source (gemm_panel_source with precision
 *    kBf16, amx_gemm_panel) rounds X and W to bf16, accumulates in
 *    fp32 on the tiles and writes each output row straight into the
 *    panel's bf16 rows, so the panel has no f32 rows and no encode
 *    pass runs;
 *  - a rank update into a bf16_panel() (RankUpdateEpilogue) rounds
 *    act(H) and W to bf16 the same way and writes the next layer's
 *    bf16 handoff rows, which that layer gathers without an encode.
 * f32 plans never take either.
 */
#ifndef MPS_GCN_GEMM_H
#define MPS_GCN_GEMM_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "mps/core/fusion.h"
#include "mps/gcn/activation.h"
#include "mps/sparse/dense_matrix.h"

namespace mps {

class WorkStealPool;

/**
 * out = x * w. Shapes: x is n x f, w is f x d, out must be n x d.
 * Row-parallel over @p pool in chunks of 6-row register tiles.
 */
void dense_gemm(const DenseMatrix &x, const DenseMatrix &w,
                DenseMatrix &out, WorkStealPool &pool);

/**
 * Sequential reference GEMM for tests: an independent i-j-k triple
 * loop, one scalar accumulator per element summed over k ascending —
 * bitwise equal to dense_gemm.
 */
void reference_gemm(const DenseMatrix &x, const DenseMatrix &w,
                    DenseMatrix &out);

/**
 * Panel-on-demand GEMM for the fused pipeline: compute one TILE-wide
 * column slice of X * W,
 *   panel[:, panel_col0 : panel_col0+width)
 *     = x[:, x_col0 : x_col0+f) * w[:, w_col0 : w_col0+width)
 * with f = w.rows(). The same kernel as dense_gemm restricted to W's
 * column slice, and bit-identical to the corresponding columns of the
 * full GEMM at any w_col0 and panel_col0: each element's FMA chain
 * does not depend on which tile or lane computes it. The x_col0
 * offset reads one column block of a wider X in place — the serve
 * path's per-request block of a batch's wide layer output.
 */
void dense_gemm_panel(const DenseMatrix &x, index_t x_col0,
                      const DenseMatrix &w, index_t w_col0, index_t width,
                      DenseMatrix &panel, index_t panel_col0,
                      WorkStealPool &pool);

/** Whole-X convenience: panel[:, 0:width) = x * w[:, w_col0:+width). */
void dense_gemm_panel(const DenseMatrix &x, const DenseMatrix &w,
                      index_t w_col0, index_t width, DenseMatrix &panel,
                      WorkStealPool &pool);

/**
 * Rank-`width` update of the NEXT layer's combination from a streamed
 * output panel: out += h_panel[:, 0:width) * w[w_row0 : w_row0+width, :).
 * Accumulating panel-by-panel in ascending w_row0 order continues each
 * element's FMA chain (k ascending) exactly as dense_gemm(h, w, out)
 * runs it — so the multi-layer pipeline that never materializes H
 * reproduces the unfused combination bit-for-bit.
 * @p out must be zero-filled before the first panel.
 */
void dense_gemm_rank_update(const DenseMatrix &h_panel, index_t width,
                            const DenseMatrix &w, index_t w_row0,
                            DenseMatrix &out, WorkStealPool &pool);

/**
 * Batched pipeline epilogue: as the merge-path sweep hands over a
 * batch of up to kEpilogueBatchRows finished output rows, apply the
 * layer activation to them and rank-update the NEXT layer's XW
 * accumulator from them at once — while the rows are still in L1 —
 * on the rows-in-lanes register tile (the batch transposed into
 * per-thread k-major scratch; the rows it is handed are only read).
 * Run under run_streaming, the rows come straight from the
 * sweep's staging tiles: no output panel exists, and nothing re-reads
 * one. The first panel (w_row0 == 0) stores its products, so @p out
 * needs no zero-fill; later panels add theirs.
 *
 * FLOP-for-FLOP identical to activation_epilogue followed by
 * dense_gemm_rank_update: rows are independent and each element's
 * k-ascending FMA chain is unchanged (a stored chain starts from
 * +0.0f, as one accumulated onto a zero-filled row does). The rows it
 * consumes are schedule-deterministic (split rows sum their carries in
 * thread order), so for a fixed schedule the accumulated XW is
 * bit-identical on any pool size, and with a 1-thread schedule also to
 * the unfused reference.
 *
 * Concurrency: a sweep executor only batches rows it finished, which
 * it owns whole; split rows reach apply() in the carry fix-up after
 * the panel barrier, which hands each row to exactly one executor.
 * Rows of @p out are therefore never written concurrently.
 *
 * The tile rank update: when @p out is a DenseMatrix::bf16_panel(),
 * apply() runs the product on the AMX tiles and writes bf16 rows
 * instead (DESIGN.md §13 and §15). A 48-row batch is three 16-row A
 * tiles per 32-deep k block of act(H), rounded to bf16 (ReLU as
 * max(x, +0), so NaN and -0.0 enter as +0); W's k blocks sit in four B
 * tiles, configured and loaded once per executor thread and kept
 * there for every later batch with the same tile_id; each output is
 *   out.row_bf16(r)[j] = bf16(sum over k of bf16(act(h[k])) * bf16(w[k][j]))
 * with fp32 accumulation on the tiles, whichever executor runs the
 * row. The whole row must arrive in one panel (w_row0 == 0 and the
 * width W's rows), and the shape must amx_rank_update_fits().
 *
 * `w_row0` must track the global first column of the panel in flight.
 * Panels stream in ascending order starting at 0, so start it at 0 and
 * advance it from run_streaming's consumer callback (which fires after
 * each panel's epilogues and before the next panel's sweep):
 *
 *   RankUpdateEpilogue rank = make_rank_update_epilogue(...);
 *   plan.run_streaming(src,
 *       [&](index_t col0, index_t width) { rank.w_row0 = col0 + width; },
 *       pool, &RankUpdateEpilogue::apply, &rank);
 */
struct RankUpdateEpilogue
{
    Activation act = Activation::kNone;
    const DenseMatrix *w = nullptr; ///< next layer's weights
    DenseMatrix *out = nullptr;     ///< next layer's XW accumulator
    index_t w_row0 = 0; ///< global col0 of the panel in flight
    /**
     * The tile rank update's W in the AMX B layout (null on the vector
     * tile), and the id that tells an executor whether its B tiles
     * already hold it.
     */
    std::shared_ptr<const AlignedVectorB16> w_tiles;
    uint64_t tile_id = 0;

    /** PanelEpilogue trampoline; @p ctx is the RankUpdateEpilogue. */
    static void apply(const FinishedRow *rows, int count, index_t c_col0,
                      index_t width, const void *ctx);
};

/**
 * Build a RankUpdateEpilogue accumulating act(panel) * w into @p out
 * (which must outlive the run, like @p w; every row of it is written,
 * the first panel storing). A bf16_panel()
 * @p out selects the tile rank update, which needs
 * amx_rank_update_enabled() and amx_rank_update_fits(w.rows(),
 * w.cols()).
 */
RankUpdateEpilogue make_rank_update_epilogue(Activation act,
                                             const DenseMatrix &w,
                                             DenseMatrix &out);

/// Takes bench/e2e/probes.cpp's row_scatter until ROADMAP 1(b) drops it.
inline RankUpdateEpilogue
make_rank_update_epilogue(Activation act, const DenseMatrix &w,
                          DenseMatrix &out, std::nullptr_t)
{
    return make_rank_update_epilogue(act, w, out);
}

/**
 * Batched epilogue of an AGGREGATE-FIRST layer, which sweeps A over
 * its narrower input H (width in) and combines afterwards:
 * act((A * H) * W) instead of act(A * (H * W)). As the sweep hands
 * over a batch of up to kEpilogueBatchRows finished aggregated rows T,
 * apply() computes h = act(T * W) on the rows-in-lanes register tile
 * (T transposed into k-major scratch, h formed there too) and hands
 * each row off as whichever is narrower for the next step:
 *  - w_next == nullptr: store h as row `row` of @p out — the
 *    next aggregate-first layer's input, or the model output;
 *  - w_next set: fold h into the next (combine-first) layer's XW,
 *    out[row] = h * w_next, and never store h.
 * The sweep must cover all `in` columns in one panel (the plan's
 * tile() >= in): the epilogue needs the whole aggregated row. Rows are
 * owned by one executor each, exactly as for RankUpdateEpilogue.
 */
struct CombineEpilogue
{
    Activation act = Activation::kNone;
    const DenseMatrix *w = nullptr;      ///< this layer's weights (in x out)
    DenseMatrix *out = nullptr;          ///< destination (see above)
    const DenseMatrix *w_next = nullptr; ///< next layer's weights, or null

    /** PanelEpilogue trampoline; @p ctx is the CombineEpilogue. */
    static void apply(const FinishedRow *rows, int count, index_t c_col0,
                      index_t width, const void *ctx);
};

/**
 * Build a CombineEpilogue for act((A * H) * w). @p out must be
 * n x w.cols() when @p w_next is null, else n x w_next->cols(); every
 * row is stored, so it needs no zero-fill. Everything borrowed must
 * outlive the run.
 */
CombineEpilogue make_combine_epilogue(Activation act, const DenseMatrix &w,
                                      DenseMatrix &out,
                                      const DenseMatrix *w_next);

/**
 * Panel source computing X * W slices on demand into a closure-owned
 * buffer (allocated on first call at the first — widest — panel
 * width). Captures @p x, @p w and @p pool by reference: the returned
 * callable must not outlive them.
 */
PanelSourceFn gemm_panel_source(const DenseMatrix &x, const DenseMatrix &w,
                                WorkStealPool &pool);

/**
 * Same, but computing into @p buf owned by the caller — typically a
 * plan's gemm_scratch(), so a cached FusedLayerPlan reuses one buffer
 * across every forward instead of allocating per call. @p buf is
 * (re)allocated on first use, without a zero-fill: the product stores
 * every element the plan reads. The callable additionally must not
 * outlive @p buf.
 *
 * @p precision is the precision of the plan the source feeds. Under
 * kBf16, a panel that amx_gemm_fits() runs amx_gemm_panel() into a
 * DenseMatrix::bf16_panel() — no f32 rows, nothing for the plan to
 * encode — while amx_gemm_enabled(). Every other panel is the f32
 * product (dense_gemm_panel) into f32 rows, which the plan encodes
 * (Freshness::kPanel); a bf16-only @p buf is reallocated with f32
 * rows first.
 */
PanelSourceFn gemm_panel_source(const DenseMatrix &x, const DenseMatrix &w,
                                WorkStealPool &pool, DenseMatrix &buf,
                                StorageMode precision = StorageMode::kF32);

/**
 * True when bf16 GEMM panels run on the AMX tiles: amx_tiles_granted()
 * and no ForceGemmFallback is alive.
 */
bool amx_gemm_enabled();

/**
 * The shapes the tile product takes: depth (X's columns) a multiple of
 * 32 and a panel width a multiple of 16. Others take the f32 product.
 */
bool amx_gemm_fits(index_t depth, index_t width);

/**
 * The AMX tile product of one panel:
 *   panel.row_bf16(r)[0 : width)
 *     = bf16(bf16(x[r]) * bf16(w[:, w_col0 : w_col0 + width)))
 * with fp32 accumulation on the tiles (_tile_dpbf16ps). X and the
 * output round to nearest even, with denormals flushed to zero (the
 * AVX512-BF16 conversions); W rounds as bf16_encode. Row-parallel over
 * @p pool in 32-row blocks; each output element's sum does not depend
 * on the block or thread that computes it, so the result is the same
 * on any pool size. @p panel must have bf16 rows (storage() == kBf16)
 * of at least x.rows() x width; its f32 rows, if any, are not touched.
 * Every element of rows [0, x.rows()) x [0, width) is stored, so the
 * panel may come unwritten from DenseMatrix::bf16_panel(). Returns
 * false, writing nothing, when !amx_gemm_enabled() or the shape does
 * not amx_gemm_fits().
 */
bool amx_gemm_panel(const DenseMatrix &x, const DenseMatrix &w,
                    index_t w_col0, index_t width, DenseMatrix &panel,
                    WorkStealPool &pool);

/**
 * Test hook: while one is alive, amx_gemm_enabled() is false and every
 * bf16 GEMM panel takes the f32 product plus encode, exactly as on a
 * host without AMX.
 */
class ForceGemmFallback
{
  public:
    ForceGemmFallback();
    ~ForceGemmFallback();
    ForceGemmFallback(const ForceGemmFallback &) = delete;
    ForceGemmFallback &operator=(const ForceGemmFallback &) = delete;
};

/**
 * True when a bf16 plan's rank update may run on the AMX tiles:
 * amx_tiles_granted() and no ForceRankUpdateFallback is alive.
 */
bool amx_rank_update_enabled();

/**
 * The shapes the tile rank update takes: a depth (W's rows) of 32, 64,
 * 96 or 128, so W's k blocks fit the four B tiles it keeps loaded, and
 * at most 16 outputs (W's columns, one C tile wide; W's zero padding
 * fills the rest of the tile). Others keep the vector tile.
 */
bool amx_rank_update_fits(index_t depth, index_t cols);

/**
 * Test hook: while one is alive, amx_rank_update_enabled() is false, so
 * a bf16 model hands its layers an f32 accumulator updated on the
 * vector tile and encoded by the next layer, exactly as on a host
 * without AMX.
 */
class ForceRankUpdateFallback
{
  public:
    ForceRankUpdateFallback();
    ~ForceRankUpdateFallback();
    ForceRankUpdateFallback(const ForceRankUpdateFallback &) = delete;
    ForceRankUpdateFallback &
    operator=(const ForceRankUpdateFallback &) = delete;
};

/**
 * Zero-copy panel source over an already-materialized combination
 * (used by pipeline stages whose XW accumulated via rank updates).
 * Captures @p xw by reference.
 */
PanelSourceFn slice_panel_source(const DenseMatrix &xw);

/**
 * Mutable-operand overload: identical slicing, but the returned
 * PanelSource marks @p xw quantizable so a FusedLayerPlan running at
 * reduced precision may encode its bf16 shadow buffer in place
 * (once, full-width). The f32 data is never modified.
 */
PanelSourceFn slice_panel_source(DenseMatrix &xw);

/**
 * Slice source over a model-owned layer handoff @p h that the previous
 * layer rewrote before this run: a reduced-precision plan re-encodes
 * its shadow rows on the first panel of every run, in place
 * (Freshness::kRun), so @p h keeps one shadow allocation across
 * forwards.
 */
PanelSourceFn handoff_panel_source(DenseMatrix &h);

} // namespace mps

#endif // MPS_GCN_GEMM_H
