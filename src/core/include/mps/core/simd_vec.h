/**
 * @file
 * One vector register of value_t lanes, the type the two hot loops are
 * written over once: the GEMM register tile (src/gcn/gemm.cpp) and the
 * SpMM register-row gather (RowKernels::gather_axpy*). SimdVec is the
 * widest x86 ISA compiled in — AVX-512 (16 lanes) where the build
 * targets AVX512F/BW/VL, AVX2+FMA (8 lanes) otherwise — and absent
 * (MPS_SIMD_VEC 0) on scalar, NEON and FMA-less builds.
 *
 * fmadd is a true single-rounding FMA on both ISAs: the loops built on
 * it are bit-identical to the k-ascending FMA chains of the scalar GEMM
 * and of the row kernels' axpy, whatever the lane count.
 */
#ifndef MPS_CORE_SIMD_VEC_H
#define MPS_CORE_SIMD_VEC_H

#include "mps/core/microkernel.h"
#include "mps/sparse/types.h"

#if MPS_MICROKERNEL_SIMD == 1 && defined(__FMA__)
#define MPS_SIMD_VEC 1
#include <immintrin.h>
#else
#define MPS_SIMD_VEC 0
#endif

#if MPS_SIMD_VEC
namespace mps {

#if MPS_MICROKERNEL_LANES == 16

struct SimdVec
{
    using Reg = __m512;
    using Mask = __mmask16;
    static constexpr int kLanes = 16;

    /** The first @p n lanes, 0 <= n <= kLanes. */
    static Mask prefix(int n) {
        return static_cast<Mask>((1u << n) - 1u);
    }
    static Reg zero() { return _mm512_setzero_ps(); }
    static Reg broadcast(value_t v) { return _mm512_set1_ps(v); }
    static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
    static Reg load(const value_t *p) { return _mm512_loadu_ps(p); }
    /** Lanes outside @p m read as 0 and touch no memory. */
    static Reg load(const value_t *p, Mask m) {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static Reg load(const bf16_t *p) {
        return widen(_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)),
                     prefix(kLanes));
    }
    static Reg load(const bf16_t *p, Mask m) {
        return widen(_mm256_maskz_loadu_epi16(m, p), m);
    }
    static void store(value_t *p, Reg v) { _mm512_storeu_ps(p, v); }
    static void store(value_t *p, Reg v, Mask m) {
        _mm512_mask_storeu_ps(p, m, v);
    }

  private:
    /**
     * 16 bf16 halves -> fp32: zero-extend, shift into the high half.
     * The maskz forms emit the same instructions as the unmasked ones;
     * GCC 12 reports the unmasked forms' undefined pass-through operand
     * as maybe-uninitialized.
     */
    static Reg widen(__m256i h, Mask m) {
        return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
            m, _mm512_maskz_cvtepu16_epi32(m, h), 16));
    }
};

#else // 8-lane AVX2+FMA

struct SimdVec
{
    using Reg = __m256;
    using Mask = __m256i;
    static constexpr int kLanes = 8;

    /** The first @p n lanes, 0 <= n <= kLanes. */
    static Mask prefix(int n) {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Reg zero() { return _mm256_setzero_ps(); }
    static Reg broadcast(value_t v) { return _mm256_set1_ps(v); }
    static Reg fmadd(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
    static Reg load(const value_t *p) { return _mm256_loadu_ps(p); }
    /** Lanes outside @p m read as 0 and touch no memory. */
    static Reg load(const value_t *p, Mask m) {
        return _mm256_maskload_ps(p, m);
    }
    /**
     * 8 bf16 halves -> fp32. No masked form: AVX2 has no 16-bit masked
     * load, and every gather width is a whole number of 8-lane vectors.
     */
    static Reg load(const bf16_t *p) {
        const __m128i h =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm256_castsi256_ps(
            _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
    }
    static void store(value_t *p, Reg v) { _mm256_storeu_ps(p, v); }
    static void store(value_t *p, Reg v, Mask m) {
        _mm256_maskstore_ps(p, m, v);
    }
};

#endif

} // namespace mps
#endif // MPS_SIMD_VEC

#endif // MPS_CORE_SIMD_VEC_H
