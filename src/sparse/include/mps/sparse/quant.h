/**
 * @file
 * Reduced-precision operand storage: scalar conversion primitives and
 * the StorageMode selector shared by DenseMatrix and the microkernels.
 *
 * The merge-path gather loop is load-bound (bench/fig_locality: gather
 * GB/s is the ceiling), so the win here is bytes, not flops: the B
 * operand is stored at 16 (bf16) bits per element and widened back to
 * fp32 in registers inside the kernels. Accumulators and the C output
 * stay fp32 throughout — the split-row commit protocol never sees a
 * narrow type.
 *
 * bf16 is the top half of an IEEE binary32: decode is a 16-bit shift,
 * encode rounds to nearest-even with a NaN quieting fixup.
 *
 * These scalar primitives are the reference semantics: the SIMD
 * encode kernel in mps/core/microkernel.cpp is bit-identical to them
 * (including the NaN edges), which is what the scalar-vs-SIMD
 * cross-check tests pin down.
 */
#ifndef MPS_SPARSE_QUANT_H
#define MPS_SPARSE_QUANT_H

#include <bit>
#include <cstdint>

#include "mps/sparse/types.h"

namespace mps {

/** Per-matrix element storage width of a DenseMatrix B operand. */
enum class StorageMode : std::uint8_t
{
    kF32 = 0,  ///< full fp32 rows only (the default; bit-exact paths)
    kBf16 = 1, ///< shadow bf16 rows beside the fp32 master
};

/** Bytes per stored element under @p mode (4 / 2). */
constexpr index_t
storage_elem_bytes(StorageMode mode)
{
    return mode == StorageMode::kBf16 ? 2 : 4;
}

/**
 * Round @p f to bfloat16 with round-to-nearest-even. NaN inputs are
 * quieted (payload may be truncated away entirely, so a quiet bit is
 * forced) rather than risking the rounding increment turning a NaN
 * bit pattern into infinity.
 */
inline bf16_t
bf16_encode(value_t f)
{
    std::uint32_t u = std::bit_cast<std::uint32_t>(f);
    if ((u & 0x7fffffffu) > 0x7f800000u)
        return static_cast<bf16_t>((u >> 16) | 0x0040u);
    u += 0x7fffu + ((u >> 16) & 1u);
    return static_cast<bf16_t>(u >> 16);
}

/** Widen a bfloat16 back to fp32 (exact: low mantissa bits are zero). */
inline value_t
bf16_decode(bf16_t h)
{
    return std::bit_cast<value_t>(static_cast<std::uint32_t>(h) << 16);
}

/** Human-readable name of @p mode ("f32" / "bf16"). */
const char *storage_mode_name(StorageMode mode);

/**
 * Parse a precision name ("f32"/"fp32"/"float"/"float32",
 * "bf16"/"bfloat16"). Returns false (leaving @p out untouched) on
 * anything else.
 */
bool parse_storage_mode(const char *s, StorageMode *out);

/**
 * The cached MPS_PRECISION parse: the process-wide default operand
 * precision for inference paths (GcnModel, ServeConfig). Unset or
 * unrecognized values mean kF32; a bad value warns once. Training
 * never consults this — it is pinned to fp32.
 */
StorageMode default_precision();

} // namespace mps

#endif // MPS_SPARSE_QUANT_H
