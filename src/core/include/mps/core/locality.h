/**
 * @file
 * Cache-locality layer under the merge-path decomposition.
 *
 * The SpMM hot loop gathers one full d-wide row of the dense operand B
 * per non-zero through CSR column indices. Once the dense operand
 * (n_cols x d x 4B) outgrows L2, every gather misses: the traversal is
 * bound by irregular loads, not by balance (which the schedule solved)
 * or by arithmetic (which the microkernels solved). This header is the
 * CPU transplant of the GPU locality techniques of Accel-GCN
 * (column-dimension tiling into shared memory, workload remapping) and
 * GE-SpMM (coalesced row reuse):
 *
 *  - column tiling: run the merge-path traversal once per TILE_D-wide
 *    panel of B/C so the gathered rows' working set stays L2-resident.
 *    The schedule is reused across panels — one diagonal search,
 *    d/TILE_D sweeps (MPS_TILE_D: auto from detected L2, integer
 *    override, "inf"/"off" disables);
 *  - software prefetch: issue prefetches for the B rows of upcoming
 *    non-zeros inside the traversal loop, hiding the gather latency the
 *    tiling cannot (MPS_PREFETCH: distance in non-zeros, 0 disables,
 *    unset auto-derives from d).
 *
 * Accel-GCN's third technique, remapping rows by degree, is not here:
 * merge-path already balances the work, and a degree or RCM row order
 * measured no faster than the natural one (DESIGN §8). Every output
 * row lands on its traversal row.
 *
 * Both knobs are observable through locality.* metrics: tile width and
 * sweep count, prefetch distance.
 */
#ifndef MPS_CORE_LOCALITY_H
#define MPS_CORE_LOCALITY_H

#include <cstddef>

#include "mps/sparse/types.h"

namespace mps {

/**
 * Per-call locality options of one merge-path SpMM execution. The
 * default-constructed value means "exactly the pre-locality behavior":
 * one full-width sweep, no prefetch.
 */
struct SpmmLocality
{
    /**
     * Column-panel width in elements; <= 0 or >= d runs one full-width
     * sweep. Callers normally take the resolved value from
     * default_spmm_locality().
     */
    index_t tile_d = 0;

    /**
     * Prefetch distance in non-zeros ahead of the traversal; <= 0
     * disables.
     */
    index_t prefetch = 0;

    /// Always null; goes when bench/e2e/probes.cpp drops it (ROADMAP 1(b)).
    std::nullptr_t row_scatter = nullptr;

    /**
     * True when tile_d came from the auto tuner rather than an
     * explicit MPS_TILE_D override or a caller-pinned width. A
     * FusedLayerPlan then owns the width: it re-derives tile_d, and
     * prefetch unless MPS_PREFETCH pins it, from the bytes its panels
     * store at the plan's precision, and widens run() when the whole
     * operand is LLC-resident. An explicit width is always honored
     * as-is.
     */
    bool auto_width = false;

    /** True when the panel loop will run more than one sweep. */
    bool tiled(index_t dim) const {
        return tile_d > 0 && tile_d < dim;
    }
};

/**
 * Detected per-core L2 capacity in bytes (sysconf / sysfs, cached;
 * falls back to 1 MiB when the platform exposes nothing).
 */
int64_t detected_l2_bytes();

/**
 * Detected last-level (outermost) cache capacity in bytes: the L3 when
 * the platform reports one, otherwise the L2. The auto tile width
 * budgets panel residency against this level — on big-L3 parts an
 * operand that merely exceeds L2 is still fully cache-resident and
 * tiling would only add sweep overhead.
 */
int64_t detected_llc_bytes();

/**
 * Resolved MPS_TILE_D policy: kAuto sizes panels from detected_l2_bytes,
 * kDisabled always runs full-width, kExplicit uses the given width.
 */
enum class TilePolicy { kAuto, kDisabled, kExplicit };

/** Process-wide locality environment (parsed once from env vars). */
struct LocalityEnv
{
    TilePolicy tile_policy = TilePolicy::kAuto;
    index_t tile_d = 0;      ///< explicit width when kExplicit
    bool prefetch_auto = true;
    index_t prefetch = 0;    ///< explicit distance when !prefetch_auto
};

/** The cached MPS_TILE_D / MPS_PREFETCH parse. */
const LocalityEnv &locality_env();

/**
 * Auto panel width for dense dimension @p dim, a multiple of 16 in
 * [32, 256]. Tiles only in the full-residency regime: the widest panel
 * such that a slice of EVERY operand row fits in half a trustworthy
 * cache (the LLC, capped at 64 MiB — huge virtualized L3s measure
 * DRAM-like for single-core gathers) — DRAM is then touched only on a
 * row's first gather per sweep. Returns @p dim (no tiling) when the
 * whole operand already fits in the LLC, when the operand has too many
 * rows for full residency at any useful width (the streaming regime,
 * where sweeps cost and prefetch is the right tool), or when dim is
 * not larger than the computed width.
 *
 * @p elem_bytes is the stored width of one operand element (see
 * storage_elem_bytes in mps/sparse/quant.h): quantized operands fit
 * more columns per cache and tile proportionally wider. The default
 * (sizeof(value_t)) keeps every existing f32 call site bit-identical.
 */
index_t auto_tile_d(index_t n_cols, index_t dim,
                    index_t elem_bytes = sizeof(value_t));

/**
 * Auto prefetch distance for dense dimension @p dim: roughly one
 * 4 KiB page of gathered data ahead,
 * clamp(4096 / (dim * elem_bytes), 2, 8) — for f32 this is the
 * historical clamp(1024 / dim, 2, 8). Narrow storage packs more
 * elements per page, so the lookahead grows.
 */
index_t auto_prefetch_distance(index_t dim,
                               index_t elem_bytes = sizeof(value_t));

/**
 * Auto panel width for the FUSED pipeline (mps/core/fusion.h), where
 * the panel is not a window onto a pre-materialized operand but the
 * operand itself: the GEMM stage writes each n_rows x width panel
 * immediately before the SpMM sweep gathers from it. Unlike
 * auto_tile_d this never bails to full width in the streaming regime —
 * a full-width panel would BE the materialized `XW` the fused path
 * exists to avoid — so the width floors at 32 (clamped to [32, 256],
 * multiple of 16, capped at dim). Narrower-than-resident panels still
 * win here: the gather reads just-written lines instead of a cold
 * n x d temporary. This is the STREAMING width; FusedLayerPlan::run()
 * into a full-width output widens it when the whole temporary is
 * LLC-resident (see fusion.h).
 *
 * @p elem_bytes is the stored width of one panel element, which every
 * caller names (storage_elem_bytes): a bf16 panel is half the bytes of
 * an f32 one, so it may fit one panel where f32 needs two.
 */
index_t auto_fused_tile_d(index_t n_rows, index_t dim, index_t elem_bytes);

/**
 * The streaming panel width default_fused_locality() resolves for
 * @p dim (== dim when the plan sweeps every column in one panel):
 * the MPS_TILE_D width when one is set, else auto_fused_tile_d.
 */
index_t fused_tile_width(index_t n_rows, index_t dim, index_t elem_bytes);

/**
 * Resolve locality options for a fused panel-streaming execution over
 * an @p n_rows-row panel buffer at output dimension @p dim, whose
 * elements are stored @p elem_bytes wide. Honors an explicit
 * MPS_TILE_D width (kDisabled runs one full-width panel — useful for
 * A/B measurement, it degenerates to the unfused dataflow plus a
 * copy); kAuto uses auto_fused_tile_d and sets auto_width, so a
 * FusedLayerPlan re-derives the width and lookahead at its own
 * precision (FusedLayerPlan::set_precision).
 */
SpmmLocality default_fused_locality(index_t n_rows, index_t dim,
                                    index_t elem_bytes);

/**
 * Resolve the process-default locality options for a SpMM gathering
 * from an n_cols-row dense operand at dimension @p dim, honoring the
 * MPS_TILE_D / MPS_PREFETCH overrides. Publishes the
 * locality.tile_d / locality.prefetch_distance gauges when metrics
 * are enabled.
 */
SpmmLocality default_spmm_locality(index_t n_cols, index_t dim,
                                   index_t elem_bytes = sizeof(value_t));

/**
 * Prefetch @p addr into all cache levels for reading (no-op if
 * unsupported). Forced inline: GCC 12 can judge a call whose only
 * effect is a prefetch side-effect free and delete it before inlining
 * it, which silently dropped every prefetch of the sweep's share loop.
 */
[[gnu::always_inline]] inline void
locality_prefetch(const void *addr)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
    (void)addr;
#endif
}

} // namespace mps

#endif // MPS_CORE_LOCALITY_H
