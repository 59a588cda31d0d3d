/**
 * @file
 * Shared dense-row microkernel vocabulary for every SpMM/SpMV/GCN
 * inner loop.
 *
 * The paper maps one warp lane per dense column (Section IV-C,
 * Figure 7): the d-wide accumulation `acc[d] += a * brow[d]` is the
 * unit of work every kernel repeats per non-zero. On a CPU the same
 * mapping is a vector register per 16 (AVX-512), 8 (AVX2) or 4 (NEON)
 * columns. This header centralizes that datapath so mergepath, the
 * split baselines and the GCN training path all share one
 * implementation instead of ~25 hand-rolled copies.
 *
 * Two code paths exist behind one dispatch table:
 *   - scalar: portable reference, kept deliberately un-autovectorized
 *     so cross-checking it against the SIMD path compares genuinely
 *     different code.
 *   - simd: AVX2(+FMA) or NEON, with fully unrolled fixed-dimension
 *     variants for d in {16, 32, 64} — the feature widths GNN layers
 *     actually use. The register-row gathers run on the widest
 *     register compiled in (mps/core/simd_vec.h), zmm on AVX-512.
 *
 * Kernels call select_row_kernels(dim) once per prepare()/run() and
 * hold the returned table; the env var MPS_MICROKERNEL=scalar|simd
 * overrides the default path (tests use it to cross-check), and the
 * cmake option MPS_FORCE_SCALAR compiles the SIMD path out entirely.
 */
#ifndef MPS_CORE_MICROKERNEL_H
#define MPS_CORE_MICROKERNEL_H

#include <atomic>

#include "mps/sparse/types.h"

#if !defined(MPS_FORCE_SCALAR) && defined(__AVX2__)
#define MPS_MICROKERNEL_SIMD 1 /* AVX2 (8-wide), FMA when available */
#elif !defined(MPS_FORCE_SCALAR) && defined(__ARM_NEON)
#define MPS_MICROKERNEL_SIMD 2 /* NEON (4-wide) */
#else
#define MPS_MICROKERNEL_SIMD 0 /* scalar only */
#endif

// Lanes of the widest register the hot loops use (mps/core/simd_vec.h):
// 16 on AVX-512 builds, whose GEMM tile and register-row gather run
// on zmm registers while the other row kernels stay 8-wide.
#if MPS_MICROKERNEL_SIMD == 1 && defined(__FMA__) &&                     \
    defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#define MPS_MICROKERNEL_LANES 16
#elif MPS_MICROKERNEL_SIMD == 1
#define MPS_MICROKERNEL_LANES 8
#elif MPS_MICROKERNEL_SIMD == 2
#define MPS_MICROKERNEL_LANES 4
#else
#define MPS_MICROKERNEL_LANES 1
#endif

// The bf16 tile GEMM (src/gcn/gemm.cpp) runs on the AMX tiles: it is
// compiled only where the build targets AMX-TILE, AMX-BF16 and
// AVX512-BF16 (for its conversions), and runs only where
// amx_tiles_granted().
#if !defined(MPS_FORCE_SCALAR) && defined(__AMX_TILE__) &&              \
    defined(__AMX_BF16__) && defined(__AVX512BF16__)
#define MPS_AMX_BF16 1
#else
#define MPS_AMX_BF16 0
#endif

namespace mps {

/** Which implementation family a dispatch table uses. */
enum class MicrokernelPath { kScalar, kSimd };

/** True when a vectorized path was compiled into this binary. */
constexpr bool
microkernel_simd_compiled()
{
    return MPS_MICROKERNEL_SIMD != 0;
}

/**
 * Vector lanes of the compiled SIMD path's widest register (1 when
 * scalar-only).
 */
constexpr index_t
microkernel_vector_width()
{
    return MPS_MICROKERNEL_LANES;
}

/** "scalar" or "simd". */
const char *microkernel_path_name(MicrokernelPath path);

/**
 * Process-wide default path: the SIMD path when compiled in, unless
 * MPS_MICROKERNEL=scalar|simd overrides it. Resolved once on first
 * call; also publishes the microkernel.* gauges.
 */
MicrokernelPath microkernel_default_path();

/**
 * Publish the microkernel.* gauges of the default path again (when
 * metrics are enabled): a plan that prepares after a metrics reset
 * calls this to show the ISA it runs on.
 */
void publish_microkernel_gauges();

/**
 * True when the AMX bf16 tile GEMM is compiled in (MPS_AMX_BF16) and
 * this host lets the process use the tiles: CPUID leaf 7 reports
 * AMX-TILE and AMX-BF16, and the kernel granted
 * arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA). Resolved once
 * per process; published as the microkernel.amx gauge.
 */
bool amx_tiles_granted();

// ---------------------------------------------------------------------
// Atomic scalar primitives — the single shared definition (previously
// copied into four kernels). fetch_add is used when the float
// atomic_ref is lock-free; the CAS loop remains as the fallback.
// ---------------------------------------------------------------------

/** Atomic slot += v (relaxed; float adds commute). */
inline void
atomic_add(value_t &slot, value_t v)
{
    std::atomic_ref<value_t> ref(slot);
    if constexpr (std::atomic_ref<value_t>::is_always_lock_free) {
        ref.fetch_add(v, std::memory_order_relaxed);
    } else {
        value_t old = ref.load(std::memory_order_relaxed);
        while (!ref.compare_exchange_weak(old, old + v,
                                          std::memory_order_relaxed)) {
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch table
// ---------------------------------------------------------------------

/**
 * One resolved set of row primitives. All pointers are non-null; dim
 * is passed on every call and must match the dim the table was
 * selected for only in the fixed-dimension tables (asserted there).
 * Rows may alias only where the operation reads and writes the same
 * pointer (e.g. scale); distinct arguments must not overlap.
 */
struct RowKernels
{
    /** row[0:dim) = 0. */
    void (*zero)(value_t *row, index_t dim);
    /** dst[0:dim) = src[0:dim). */
    void (*copy)(value_t *dst, const value_t *src, index_t dim);
    /** acc += x. */
    void (*add)(value_t *acc, const value_t *x, index_t dim);
    /** acc += a * x — the SpMM hot loop. */
    void (*axpy)(value_t *acc, value_t a, const value_t *x, index_t dim);
    /** row *= a. */
    void (*scale)(value_t *row, value_t a, index_t dim);
    /** Sum of x[i] * y[i]. */
    value_t (*dot)(const value_t *x, const value_t *y, index_t dim);
    /** Sum of vals[k] * x[cols[k]] for k in [begin, end) — SpMV row. */
    value_t (*gather_dot)(const value_t *vals, const index_t *cols,
                          index_t begin, index_t end, const value_t *x);
    /** dst += acc with plain stores (thread owns the row). */
    void (*commit_plain)(value_t *dst, const value_t *acc, index_t dim);
    /** dst += acc with one atomic_add per element (shared row). */
    void (*commit_atomic)(value_t *dst, const value_t *acc, index_t dim);
    /** dst += a * x with one atomic_add per element (column split). */
    void (*axpy_atomic)(value_t *dst, value_t a, const value_t *x,
                        index_t dim);

    // -----------------------------------------------------------------
    // Mixed precision (mps/sparse/quant.h): B-operand rows stored at
    // bf16 width, widened to fp32 in registers. Accumulators and
    // destinations are always fp32, so the commit_* protocol above is
    // reused unchanged — only the load side narrows. encode_bf16 is
    // the quantizing store that builds the shadow rows; it is
    // bit-identical to the scalar quant.h primitive.
    // -----------------------------------------------------------------

    /** acc += a * widen(x) — bf16 operand, fp32 accumulate. */
    void (*axpy_bf16)(value_t *acc, value_t a, const bf16_t *x,
                      index_t dim);
    /** dst[0:dim) = bf16(src[0:dim)) (round-to-nearest-even). */
    void (*encode_bf16)(bf16_t *dst, const value_t *src, index_t dim);

    MicrokernelPath path;
    /** Compile-time dimension of this table, 0 for the generic ones. */
    index_t fixed_dim;
    /** Short label: "scalar", "simd", "simd16", "simd32", "simd64". */
    const char *name;
};

/**
 * Resolve the table for @p dim on the process default path. Returns a
 * fixed-dimension table for d in {16, 32, 64} on the SIMD path, the
 * generic table otherwise. Cheap (a couple of branches), but callers
 * with a prepare() step should still resolve once and keep the
 * reference.
 */
const RowKernels &select_row_kernels(index_t dim);

/** Same, forcing @p path (tests and the scalar-vs-simd bench). */
const RowKernels &select_row_kernels(index_t dim, MicrokernelPath path);

// ---------------------------------------------------------------------
// Convenience free functions for single-shot call sites (SGD updates,
// serve's result copy, SpMV rows). Each forwards through
// select_row_kernels(dim).
// ---------------------------------------------------------------------

void row_copy(value_t *dst, const value_t *src, index_t dim);
void row_axpy(value_t *acc, value_t a, const value_t *x, index_t dim);
void row_scale(value_t *row, value_t a, index_t dim);
value_t row_gather_dot(const value_t *vals, const index_t *cols,
                       index_t begin, index_t end, const value_t *x);

/**
 * Per-thread 64-byte-aligned accumulator scratch of at least @p dim
 * elements (uninitialized; callers zero it). Grows on demand and
 * is reused across parallel_for tasks, so the pool kernels no longer
 * allocate a std::vector per task. One buffer per thread: a caller
 * must finish with it before invoking anything else that uses it.
 */
value_t *microkernel_scratch(index_t dim);

} // namespace mps

#endif // MPS_CORE_MICROKERNEL_H
