#include "mps/core/microkernel.h"

#include <cstdint>
#include <cstdlib>
#include <string>

#include "mps/sparse/aligned_buffer.h"
#include "mps/sparse/quant.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"

#if MPS_MICROKERNEL_SIMD == 1
#include <immintrin.h>
#elif MPS_MICROKERNEL_SIMD == 2
#include <arm_neon.h>
#endif

#if MPS_AMX_BF16 && defined(__linux__)
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

// The scalar implementations are the portable reference the tests
// cross-check the SIMD path against. Keep the compiler from
// auto-vectorizing them, otherwise "scalar vs simd" compares AVX
// against AVX and a lane-handling bug in either path cancels out.
#if defined(__GNUC__) && !defined(__clang__)
#define MPS_SCALAR_KERNEL                                                    \
    __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define MPS_SCALAR_KERNEL
#endif

namespace mps {

namespace {

// ---------------------------------------------------------------------
// Scalar reference path
// ---------------------------------------------------------------------
namespace scalar {

MPS_SCALAR_KERNEL void
zero(value_t *row, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        row[d] = 0.0f;
}

MPS_SCALAR_KERNEL void
copy(value_t *dst, const value_t *src, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        dst[d] = src[d];
}

MPS_SCALAR_KERNEL void
add(value_t *acc, const value_t *x, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        acc[d] += x[d];
}

MPS_SCALAR_KERNEL void
axpy(value_t *acc, value_t a, const value_t *x, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        acc[d] += a * x[d];
}

MPS_SCALAR_KERNEL void
scale(value_t *row, value_t a, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        row[d] *= a;
}

MPS_SCALAR_KERNEL value_t
dot(const value_t *x, const value_t *y, index_t dim)
{
    value_t sum = 0.0f;
    for (index_t d = 0; d < dim; ++d)
        sum += x[d] * y[d];
    return sum;
}

MPS_SCALAR_KERNEL value_t
gather_dot(const value_t *vals, const index_t *cols, index_t begin,
           index_t end, const value_t *x)
{
    value_t sum = 0.0f;
    for (index_t k = begin; k < end; ++k)
        sum += vals[k] * x[cols[k]];
    return sum;
}

MPS_SCALAR_KERNEL void
commit_plain(value_t *dst, const value_t *acc, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        dst[d] += acc[d];
}

// Mixed-precision reference kernels: the quant.h scalar primitives in
// the un-autovectorized loop shape. These define the semantics the
// SIMD variants must reproduce bit-for-bit.

MPS_SCALAR_KERNEL void
axpy_bf16(value_t *acc, value_t a, const bf16_t *x, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        acc[d] += a * bf16_decode(x[d]);
}

MPS_SCALAR_KERNEL void
encode_bf16(bf16_t *dst, const value_t *src, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        dst[d] = bf16_encode(src[d]);
}

} // namespace scalar

// Atomic commits cannot vectorize; both paths share these.
void
commit_atomic_impl(value_t *dst, const value_t *acc, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        atomic_add(dst[d], acc[d]);
}

void
axpy_atomic_impl(value_t *dst, value_t a, const value_t *x, index_t dim)
{
    for (index_t d = 0; d < dim; ++d)
        atomic_add(dst[d], a * x[d]);
}

constexpr RowKernels kScalarTable = {
    scalar::zero,         scalar::copy,
    scalar::add,          scalar::axpy,
    scalar::scale,        scalar::dot,
    scalar::gather_dot,   scalar::commit_plain,
    commit_atomic_impl,   axpy_atomic_impl,
    scalar::axpy_bf16,    scalar::encode_bf16,
    MicrokernelPath::kScalar,
    /*fixed_dim=*/0,
    "scalar",
};

#if MPS_MICROKERNEL_SIMD == 1
// ---------------------------------------------------------------------
// AVX2 (+FMA when available) path, 8 lanes of value_t per register.
// ---------------------------------------------------------------------
namespace simd {

inline __m256
fmadd(__m256 a, __m256 b, __m256 c)
{
#if defined(__FMA__)
    return _mm256_fmadd_ps(a, b, c);
#else
    return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

inline value_t
hsum(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
    return _mm_cvtss_f32(lo);
}

void
zero(value_t *row, index_t dim)
{
    const __m256 z = _mm256_setzero_ps();
    index_t d = 0;
    for (; d + 8 <= dim; d += 8)
        _mm256_storeu_ps(row + d, z);
    for (; d < dim; ++d)
        row[d] = 0.0f;
}

void
copy(value_t *dst, const value_t *src, index_t dim)
{
    index_t d = 0;
    for (; d + 8 <= dim; d += 8)
        _mm256_storeu_ps(dst + d, _mm256_loadu_ps(src + d));
    for (; d < dim; ++d)
        dst[d] = src[d];
}

void
add(value_t *acc, const value_t *x, index_t dim)
{
    index_t d = 0;
    for (; d + 8 <= dim; d += 8) {
        _mm256_storeu_ps(acc + d,
                         _mm256_add_ps(_mm256_loadu_ps(acc + d),
                                       _mm256_loadu_ps(x + d)));
    }
    for (; d < dim; ++d)
        acc[d] += x[d];
}

void
axpy(value_t *acc, value_t a, const value_t *x, index_t dim)
{
    const __m256 va = _mm256_set1_ps(a);
    index_t d = 0;
    for (; d + 16 <= dim; d += 16) {
        _mm256_storeu_ps(acc + d,
                         fmadd(va, _mm256_loadu_ps(x + d),
                               _mm256_loadu_ps(acc + d)));
        _mm256_storeu_ps(acc + d + 8,
                         fmadd(va, _mm256_loadu_ps(x + d + 8),
                               _mm256_loadu_ps(acc + d + 8)));
    }
    for (; d + 8 <= dim; d += 8) {
        _mm256_storeu_ps(acc + d,
                         fmadd(va, _mm256_loadu_ps(x + d),
                               _mm256_loadu_ps(acc + d)));
    }
    for (; d < dim; ++d)
        acc[d] += a * x[d];
}

void
scale(value_t *row, value_t a, index_t dim)
{
    const __m256 va = _mm256_set1_ps(a);
    index_t d = 0;
    for (; d + 8 <= dim; d += 8) {
        _mm256_storeu_ps(row + d,
                         _mm256_mul_ps(va, _mm256_loadu_ps(row + d)));
    }
    for (; d < dim; ++d)
        row[d] *= a;
}

value_t
dot(const value_t *x, const value_t *y, index_t dim)
{
    __m256 acc = _mm256_setzero_ps();
    index_t d = 0;
    for (; d + 8 <= dim; d += 8) {
        acc = fmadd(_mm256_loadu_ps(x + d), _mm256_loadu_ps(y + d),
                    acc);
    }
    value_t sum = hsum(acc);
    for (; d < dim; ++d)
        sum += x[d] * y[d];
    return sum;
}

value_t
gather_dot(const value_t *vals, const index_t *cols, index_t begin,
           index_t end, const value_t *x)
{
    __m256 acc = _mm256_setzero_ps();
    index_t k = begin;
    for (; k + 8 <= end; k += 8) {
        __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(cols + k));
        __m256 xv = _mm256_i32gather_ps(x, idx, 4);
        acc = fmadd(_mm256_loadu_ps(vals + k), xv, acc);
    }
    value_t sum = hsum(acc);
    for (; k < end; ++k)
        sum += vals[k] * x[cols[k]];
    return sum;
}

void
commit_plain(value_t *dst, const value_t *acc, index_t dim)
{
    add(dst, acc, dim);
}

// ---------------------------------------------------------------------
// Mixed-precision variants: the bf16 operand widens to fp32 IN
// REGISTERS (zero-extend 16-bit halves and shift into the high
// mantissa), accumulators stay fp32.
// ---------------------------------------------------------------------

/** Widen 8 bf16 values at @p p to an fp32 vector. */
inline __m256
load_bf16x8(const bf16_t *p)
{
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
}

void
axpy_bf16(value_t *acc, value_t a, const bf16_t *x, index_t dim)
{
    const __m256 va = _mm256_set1_ps(a);
    index_t d = 0;
    for (; d + 16 <= dim; d += 16) {
        _mm256_storeu_ps(acc + d, fmadd(va, load_bf16x8(x + d),
                                        _mm256_loadu_ps(acc + d)));
        _mm256_storeu_ps(acc + d + 8,
                         fmadd(va, load_bf16x8(x + d + 8),
                               _mm256_loadu_ps(acc + d + 8)));
    }
    for (; d + 8 <= dim; d += 8) {
        _mm256_storeu_ps(acc + d, fmadd(va, load_bf16x8(x + d),
                                        _mm256_loadu_ps(acc + d)));
    }
    for (; d < dim; ++d)
        acc[d] += a * bf16_decode(x[d]);
}

void
encode_bf16(bf16_t *dst, const value_t *src, index_t dim)
{
    const __m256i bias = _mm256_set1_epi32(0x7fff);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i quiet = _mm256_set1_epi32(0x0040);
    index_t d = 0;
    for (; d + 8 <= dim; d += 8) {
        const __m256 f = _mm256_loadu_ps(src + d);
        const __m256i u = _mm256_castps_si256(f);
        // Round-to-nearest-even: u += 0x7fff + lsb(u >> 16).
        const __m256i lsb =
            _mm256_and_si256(_mm256_srli_epi32(u, 16), one);
        const __m256i rounded = _mm256_srli_epi32(
            _mm256_add_epi32(u, _mm256_add_epi32(bias, lsb)), 16);
        // NaN lanes skip rounding (it could carry into the exponent
        // and produce inf) and force a quiet bit instead.
        const __m256i nan = _mm256_or_si256(_mm256_srli_epi32(u, 16),
                                            quiet);
        const __m256i unord = _mm256_castps_si256(
            _mm256_cmp_ps(f, f, _CMP_UNORD_Q));
        const __m256i h32 = _mm256_blendv_epi8(rounded, nan, unord);
        // 8 x u32 (each <= 0xffff) -> 8 contiguous u16.
        const __m256i packed =
            _mm256_packus_epi32(h32, _mm256_setzero_si256());
        const __m256i lanes = _mm256_permute4x64_epi64(packed, 0x08);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + d),
                         _mm256_castsi256_si128(lanes));
    }
    for (; d < dim; ++d)
        dst[d] = bf16_encode(src[d]);
}

// Fully unrolled fixed-dimension variants of the inner-loop hot set.
// DIM must be a multiple of 8; the selector only hands these out for
// d in {16, 32, 64}, where the trip count is a compile-time constant
// and the loop disappears entirely.

template <index_t DIM>
void
zero_fixed(value_t *row, index_t /*dim*/)
{
    const __m256 z = _mm256_setzero_ps();
    for (index_t d = 0; d < DIM; d += 8)
        _mm256_storeu_ps(row + d, z);
}

template <index_t DIM>
void
add_fixed(value_t *acc, const value_t *x, index_t /*dim*/)
{
    for (index_t d = 0; d < DIM; d += 8) {
        _mm256_storeu_ps(acc + d,
                         _mm256_add_ps(_mm256_loadu_ps(acc + d),
                                       _mm256_loadu_ps(x + d)));
    }
}

template <index_t DIM>
void
axpy_fixed(value_t *acc, value_t a, const value_t *x, index_t /*dim*/)
{
    const __m256 va = _mm256_set1_ps(a);
    for (index_t d = 0; d < DIM; d += 8) {
        _mm256_storeu_ps(acc + d,
                         fmadd(va, _mm256_loadu_ps(x + d),
                               _mm256_loadu_ps(acc + d)));
    }
}

template <index_t DIM>
void
commit_plain_fixed(value_t *dst, const value_t *acc, index_t /*dim*/)
{
    add_fixed<DIM>(dst, acc, DIM);
}

template <index_t DIM>
void
axpy_bf16_fixed(value_t *acc, value_t a, const bf16_t *x,
                index_t /*dim*/)
{
    const __m256 va = _mm256_set1_ps(a);
    for (index_t d = 0; d < DIM; d += 8) {
        _mm256_storeu_ps(acc + d, fmadd(va, load_bf16x8(x + d),
                                        _mm256_loadu_ps(acc + d)));
    }
}

} // namespace simd

constexpr RowKernels kSimdGeneric = {
    simd::zero,         simd::copy,
    simd::add,          simd::axpy,
    simd::scale,        simd::dot,
    simd::gather_dot,   simd::commit_plain,
    commit_atomic_impl, axpy_atomic_impl,
    simd::axpy_bf16,    simd::encode_bf16,
    MicrokernelPath::kSimd,
    /*fixed_dim=*/0,
    "simd",
};

template <index_t DIM>
constexpr RowKernels
make_fixed_table(const char *table_name)
{
    RowKernels t = kSimdGeneric;
    t.zero = simd::zero_fixed<DIM>;
    t.add = simd::add_fixed<DIM>;
    t.axpy = simd::axpy_fixed<DIM>;
    t.commit_plain = simd::commit_plain_fixed<DIM>;
    t.axpy_bf16 = simd::axpy_bf16_fixed<DIM>;
    t.fixed_dim = DIM;
    t.name = table_name;
    return t;
}

constexpr RowKernels kSimd16 = make_fixed_table<16>("simd16");
constexpr RowKernels kSimd32 = make_fixed_table<32>("simd32");
constexpr RowKernels kSimd64 = make_fixed_table<64>("simd64");

#elif MPS_MICROKERNEL_SIMD == 2
// ---------------------------------------------------------------------
// NEON path, 4 lanes of value_t per register. No fixed-dimension
// tables: at 4 lanes the generic loop is already dense enough.
// ---------------------------------------------------------------------
namespace simd {

inline float32x4_t
fmadd(float32x4_t a, float32x4_t b, float32x4_t c)
{
    return vfmaq_f32(c, a, b);
}

void
zero(value_t *row, index_t dim)
{
    const float32x4_t z = vdupq_n_f32(0.0f);
    index_t d = 0;
    for (; d + 4 <= dim; d += 4)
        vst1q_f32(row + d, z);
    for (; d < dim; ++d)
        row[d] = 0.0f;
}

void
copy(value_t *dst, const value_t *src, index_t dim)
{
    index_t d = 0;
    for (; d + 4 <= dim; d += 4)
        vst1q_f32(dst + d, vld1q_f32(src + d));
    for (; d < dim; ++d)
        dst[d] = src[d];
}

void
add(value_t *acc, const value_t *x, index_t dim)
{
    index_t d = 0;
    for (; d + 4 <= dim; d += 4)
        vst1q_f32(acc + d, vaddq_f32(vld1q_f32(acc + d),
                                     vld1q_f32(x + d)));
    for (; d < dim; ++d)
        acc[d] += x[d];
}

void
axpy(value_t *acc, value_t a, const value_t *x, index_t dim)
{
    const float32x4_t va = vdupq_n_f32(a);
    index_t d = 0;
    for (; d + 4 <= dim; d += 4) {
        vst1q_f32(acc + d,
                  fmadd(va, vld1q_f32(x + d), vld1q_f32(acc + d)));
    }
    for (; d < dim; ++d)
        acc[d] += a * x[d];
}

void
scale(value_t *row, value_t a, index_t dim)
{
    const float32x4_t va = vdupq_n_f32(a);
    index_t d = 0;
    for (; d + 4 <= dim; d += 4)
        vst1q_f32(row + d, vmulq_f32(va, vld1q_f32(row + d)));
    for (; d < dim; ++d)
        row[d] *= a;
}

value_t
dot(const value_t *x, const value_t *y, index_t dim)
{
    float32x4_t acc = vdupq_n_f32(0.0f);
    index_t d = 0;
    for (; d + 4 <= dim; d += 4)
        acc = fmadd(vld1q_f32(x + d), vld1q_f32(y + d), acc);
    value_t sum = vaddvq_f32(acc);
    for (; d < dim; ++d)
        sum += x[d] * y[d];
    return sum;
}

value_t
gather_dot(const value_t *vals, const index_t *cols, index_t begin,
           index_t end, const value_t *x)
{
    // NEON has no gather; the scalar loop is the honest form.
    value_t sum = 0.0f;
    for (index_t k = begin; k < end; ++k)
        sum += vals[k] * x[cols[k]];
    return sum;
}

void
commit_plain(value_t *dst, const value_t *acc, index_t dim)
{
    add(dst, acc, dim);
}

} // namespace simd

// The mixed-precision fields fall back to the scalar reference on
// NEON: 4-lane widening loops don't beat the scalar fma chain, and
// the bandwidth saving comes from the narrow buffers either way.
constexpr RowKernels kSimdGeneric = {
    simd::zero,         simd::copy,
    simd::add,          simd::axpy,
    simd::scale,        simd::dot,
    simd::gather_dot,   simd::commit_plain,
    commit_atomic_impl, axpy_atomic_impl,
    scalar::axpy_bf16,  scalar::encode_bf16,
    MicrokernelPath::kSimd,
    /*fixed_dim=*/0,
    "simd",
};
#endif // MPS_MICROKERNEL_SIMD

void
publish_gauges(MicrokernelPath path)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (!metrics.enabled())
        return;
    const bool simd_on = path == MicrokernelPath::kSimd;
    metrics.gauge_set("microkernel.simd", simd_on ? 1.0 : 0.0);
    metrics.gauge_set("microkernel.vector_width",
                      simd_on ? static_cast<double>(microkernel_vector_width())
                              : 1.0);
    metrics.gauge_set("microkernel.amx", amx_tiles_granted() ? 1.0 : 0.0);
}

#if MPS_AMX_BF16 && defined(__linux__)
bool
request_amx_tiles()
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
        return false;
    constexpr unsigned kAmxBf16 = 1u << 22, kAmxTile = 1u << 24;
    if ((edx & (kAmxBf16 | kAmxTile)) != (kAmxBf16 | kAmxTile))
        return false;
    // Linux keeps the 8 KiB tile state off until a process asks for it.
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtiledata = 18;
    return syscall(SYS_arch_prctl, kArchReqXcompPerm,
                   kXfeatureXtiledata) == 0;
}
#else
bool
request_amx_tiles()
{
    return false;
}
#endif

} // namespace

bool
amx_tiles_granted()
{
    static const bool granted = request_amx_tiles();
    return granted;
}

const char *
microkernel_path_name(MicrokernelPath path)
{
    return path == MicrokernelPath::kSimd ? "simd" : "scalar";
}

MicrokernelPath
microkernel_default_path()
{
    static const MicrokernelPath resolved = [] {
        MicrokernelPath p = microkernel_simd_compiled()
                                ? MicrokernelPath::kSimd
                                : MicrokernelPath::kScalar;
        if (const char *env = std::getenv("MPS_MICROKERNEL")) {
            const std::string v(env);
            if (v == "scalar") {
                p = MicrokernelPath::kScalar;
            } else if (v == "simd") {
                if (microkernel_simd_compiled()) {
                    p = MicrokernelPath::kSimd;
                } else {
                    warn("MPS_MICROKERNEL=simd but no SIMD path was "
                         "compiled in; using scalar");
                    p = MicrokernelPath::kScalar;
                }
            } else if (!v.empty()) {
                warn("unknown MPS_MICROKERNEL value '" + v +
                     "' (scalar|simd); using default");
            }
        }
        publish_gauges(p);
        return p;
    }();
    return resolved;
}

void
publish_microkernel_gauges()
{
    publish_gauges(microkernel_default_path());
}

const RowKernels &
select_row_kernels(index_t dim, MicrokernelPath path)
{
#if MPS_MICROKERNEL_SIMD
    if (path == MicrokernelPath::kSimd) {
#if MPS_MICROKERNEL_SIMD == 1
        switch (dim) {
          case 16:
            return kSimd16;
          case 32:
            return kSimd32;
          case 64:
            return kSimd64;
          default:
            return kSimdGeneric;
        }
#else
        (void)dim;
        return kSimdGeneric;
#endif
    }
#else
    (void)path;
#endif
    (void)dim;
    return kScalarTable;
}

const RowKernels &
select_row_kernels(index_t dim)
{
    return select_row_kernels(dim, microkernel_default_path());
}

void
row_copy(value_t *dst, const value_t *src, index_t dim)
{
    select_row_kernels(dim).copy(dst, src, dim);
}

void
row_axpy(value_t *acc, value_t a, const value_t *x, index_t dim)
{
    select_row_kernels(dim).axpy(acc, a, x, dim);
}

void
row_scale(value_t *row, value_t a, index_t dim)
{
    select_row_kernels(dim).scale(row, a, dim);
}

value_t
row_gather_dot(const value_t *vals, const index_t *cols, index_t begin,
               index_t end, const value_t *x)
{
    return select_row_kernels(end - begin).gather_dot(vals, cols, begin,
                                                      end, x);
}

value_t *
microkernel_scratch(index_t dim)
{
    thread_local AlignedVector buf;
    if (static_cast<index_t>(buf.size()) < dim)
        buf.resize(static_cast<size_t>(padded_row_length(dim)));
    return buf.data();
}

} // namespace mps
