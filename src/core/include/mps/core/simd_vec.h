/**
 * @file
 * One vector register of value_t lanes, the type the hot loops are
 * written over once: the GEMM register tile and the rows-in-lanes
 * epilogue products (src/gcn/gemm.cpp), and the SpMM register-row
 * gather (src/core/row_gather.h). SimdVec is the
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
    /**
     * a > b ? a : b per lane, so a NaN or a zero of either sign in @p a
     * yields @p b: max(x, zero()) is exactly the scalar `x > 0 ? x : 0`.
     */
    static Reg max(Reg a, Reg b) { return _mm512_maskz_max_ps(kAll, a, b); }

    /** In-register transpose: lane j of r[i] trades with lane i of r[j]. */
    static void transpose(Reg r[kLanes]) {
        Reg t[kLanes];
#pragma GCC unroll 16
        for (int i = 0; i < kLanes; i += 2) {
            t[i] = _mm512_maskz_unpacklo_ps(kAll, r[i], r[i + 1]);
            t[i + 1] = _mm512_maskz_unpackhi_ps(kAll, r[i], r[i + 1]);
        }
        // r[4i + c], 128-bit block b: rows 4i..4i+3 of column 4b + c.
#pragma GCC unroll 16
        for (int i = 0; i < kLanes; i += 4) {
            r[i] = _mm512_maskz_shuffle_ps(kAll, t[i], t[i + 2], 0x44);
            r[i + 1] = _mm512_maskz_shuffle_ps(kAll, t[i], t[i + 2], 0xEE);
            r[i + 2] = _mm512_maskz_shuffle_ps(kAll, t[i + 1], t[i + 3], 0x44);
            r[i + 3] = _mm512_maskz_shuffle_ps(kAll, t[i + 1], t[i + 3], 0xEE);
        }
#pragma GCC unroll 4
        for (int c = 0; c < 4; ++c) {
            const Reg lo0 = blocks<0x88>(r[c], r[4 + c]);
            const Reg hi0 = blocks<0xDD>(r[c], r[4 + c]);
            const Reg lo1 = blocks<0x88>(r[8 + c], r[12 + c]);
            const Reg hi1 = blocks<0xDD>(r[8 + c], r[12 + c]);
            t[c] = blocks<0x88>(lo0, lo1);
            t[4 + c] = blocks<0x88>(hi0, hi1);
            t[8 + c] = blocks<0xDD>(lo0, lo1);
            t[12 + c] = blocks<0xDD>(hi0, hi1);
        }
#pragma GCC unroll 16
        for (int i = 0; i < kLanes; ++i)
            r[i] = t[i];
    }

  private:
    /*
     * The maskz forms below emit the same instructions as the unmasked
     * ones; GCC 12 reports the unmasked forms' undefined pass-through
     * operand as maybe-uninitialized.
     */
    static constexpr Mask kAll = 0xFFFF;

    /** The 128-bit blocks of a and b that kImm selects. */
    template <int kImm>
    static Reg blocks(Reg a, Reg b) {
        return _mm512_maskz_shuffle_f32x4(kAll, a, b, kImm);
    }

    /** 16 bf16 halves -> fp32: zero-extend, shift into the high half. */
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
    /** a > b ? a : b per lane (see the AVX-512 max). */
    static Reg max(Reg a, Reg b) { return _mm256_max_ps(a, b); }

    /** In-register transpose: lane j of r[i] trades with lane i of r[j]. */
    static void transpose(Reg r[kLanes]) {
        Reg t[kLanes];
#pragma GCC unroll 16
        for (int i = 0; i < kLanes; i += 2) {
            t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
            t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
        }
        // r[4i + c], 128-bit half b: rows 4i..4i+3 of column 4b + c.
#pragma GCC unroll 16
        for (int i = 0; i < kLanes; i += 4) {
            r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
            r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
            r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
            r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
        }
#pragma GCC unroll 4
        for (int c = 0; c < 4; ++c) {
            t[c] = _mm256_permute2f128_ps(r[c], r[4 + c], 0x20);
            t[4 + c] = _mm256_permute2f128_ps(r[c], r[4 + c], 0x31);
        }
#pragma GCC unroll 16
        for (int i = 0; i < kLanes; ++i)
            r[i] = t[i];
    }
};

#endif

} // namespace mps
#endif // MPS_SIMD_VEC

#endif // MPS_CORE_SIMD_VEC_H
