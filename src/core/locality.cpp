#include "mps/core/locality.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "mps/util/log.h"
#include "mps/util/metrics.h"

namespace mps {

namespace {

constexpr int64_t kDefaultL2Bytes = 1 << 20; // 1 MiB

/**
 * Largest cache the auto-tuner trusts to be meaningfully faster than
 * DRAM for single-core random gathers. Cloud parts advertise enormous
 * shared L3s (this was tuned against a vCPU reporting 260 MiB) whose
 * per-core random-access latency is DRAM-like — panels kept "resident"
 * there measure slower than simply prefetching past the misses. Real
 * per-socket L3s top out well under this bound.
 */
constexpr int64_t kMaxResidencyBytes = 64 << 20;

int64_t
sysfs_cache_bytes(const char *path)
{
    // sysfs "512K" / "1024K" / "2M" style strings.
    std::ifstream f(path);
    if (!f)
        return 0;
    int64_t value = 0;
    char unit = '\0';
    f >> value >> unit;
    if (value <= 0)
        return 0;
    if (unit == 'K' || unit == 'k')
        return value << 10;
    if (unit == 'M' || unit == 'm')
        return value << 20;
    return value;
}

int64_t
probe_l2_bytes()
{
#if defined(_SC_LEVEL2_CACHE_SIZE)
    long sz = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (sz > 0)
        return static_cast<int64_t>(sz);
#endif
    int64_t sysfs = sysfs_cache_bytes(
        "/sys/devices/system/cpu/cpu0/cache/index2/size");
    return sysfs > 0 ? sysfs : kDefaultL2Bytes;
}

int64_t
probe_llc_bytes()
{
    int64_t l3 = 0;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    long sz = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (sz > 0)
        l3 = static_cast<int64_t>(sz);
#endif
    if (l3 <= 0)
        l3 = sysfs_cache_bytes(
            "/sys/devices/system/cpu/cpu0/cache/index3/size");
    return std::max(l3, detected_l2_bytes());
}

LocalityEnv
parse_locality_env()
{
    LocalityEnv env;
    if (const char *v = std::getenv("MPS_TILE_D")) {
        std::string s(v);
        if (s == "inf" || s == "off" || s == "none") {
            env.tile_policy = TilePolicy::kDisabled;
        } else if (s == "auto" || s.empty()) {
            env.tile_policy = TilePolicy::kAuto;
        } else {
            char *end = nullptr;
            long width = std::strtol(s.c_str(), &end, 10);
            if (end != nullptr && *end == '\0' && width >= 0) {
                if (width == 0) {
                    env.tile_policy = TilePolicy::kDisabled;
                } else {
                    env.tile_policy = TilePolicy::kExplicit;
                    env.tile_d = static_cast<index_t>(width);
                }
            } else {
                warn("unrecognized MPS_TILE_D value '" + s +
                     "' (want an integer, 'inf' or 'auto'); using auto");
            }
        }
    }
    if (const char *v = std::getenv("MPS_PREFETCH")) {
        std::string s(v);
        char *end = nullptr;
        long dist = std::strtol(s.c_str(), &end, 10);
        if (end != nullptr && *end == '\0' && dist >= 0) {
            env.prefetch_auto = false;
            env.prefetch = static_cast<index_t>(dist);
        } else {
            warn("unrecognized MPS_PREFETCH value '" + s +
                 "' (want a non-negative integer); using auto");
        }
    }
    return env;
}

} // namespace

int64_t
detected_l2_bytes()
{
    static const int64_t bytes = probe_l2_bytes();
    return bytes;
}

int64_t
detected_llc_bytes()
{
    static const int64_t bytes = probe_llc_bytes();
    return bytes;
}

const LocalityEnv &
locality_env()
{
    static const LocalityEnv env = parse_locality_env();
    return env;
}

index_t
auto_tile_d(index_t n_cols, index_t dim, index_t elem_bytes)
{
    const int64_t llc = detected_llc_bytes();
    // Whole dense operand resident in the outermost cache -> tiling
    // buys nothing: the hierarchy already captures every re-gather and
    // prefetch hides the remaining latency. The operand rows are
    // cache-line padded, so budget with the padded stride. elem_bytes
    // is the STORED element width — quantized operands hold more
    // columns per byte and tile proportionally wider.
    const int64_t padded_dim = (dim + 15) / 16 * 16;
    const int64_t operand_bytes = static_cast<int64_t>(n_cols) *
                                  padded_dim *
                                  static_cast<int64_t>(elem_bytes);
    if (operand_bytes <= llc)
        return dim;
    // Full-residency regime: the widest panel such that a slice of
    // EVERY operand row fits in half a trustworthy cache — gathers
    // then go to DRAM only on a row's first touch per sweep, and every
    // reuse hits cache. This is the only regime where tiling measures
    // faster than the untiled traversal: a panel that merely *windows*
    // the operand (partial residency) re-pays the full sweep overhead
    // without cutting DRAM traffic, and loses to plain prefetch.
    const int64_t budget = std::min(llc, kMaxResidencyBytes) / 2;
    int64_t width = budget / (static_cast<int64_t>(n_cols) *
                              static_cast<int64_t>(elem_bytes));
    width = width / 16 * 16;
    if (width < 32)
        return dim; // streaming regime: prefetch, not panels
    width = std::min<int64_t>(width, 256);
    if (width >= dim)
        return dim;
    return static_cast<index_t>(width);
}

index_t
auto_prefetch_distance(index_t dim, index_t elem_bytes)
{
    if (dim <= 0)
        return 0;
    // Wider rows take longer to consume, so the lookahead shrinks:
    // ~one 4 KiB page of gathered BYTES ahead of the read cursor
    // (quantized rows pack more elements per page, so the distance
    // grows). The cap of 8 measured best for narrow rows — past that
    // the prefetched lines start being evicted before use.
    return std::clamp<index_t>(
        4096 / (dim * std::max<index_t>(elem_bytes, 1)), 2, 8);
}

index_t
auto_fused_tile_d(index_t n_rows, index_t dim, index_t elem_bytes)
{
    if (dim <= 32)
        return dim;
    const int64_t llc = detected_llc_bytes();
    const int64_t padded_dim = (dim + 15) / 16 * 16;
    const int64_t operand_bytes = static_cast<int64_t>(n_rows) *
                                  padded_dim *
                                  static_cast<int64_t>(elem_bytes);
    // This is the STREAMING panel width: both the source buffer the
    // GEMM fills and the output panel the consumer reads must stay
    // hot, so budget half a trustworthy cache and floor at 32 instead
    // of giving up — narrow dense panels keep the stores and gathers
    // on contiguous 128-byte rows, and the schedule reuse amortizes
    // the extra sweeps. run() into a full-width output re-derives its
    // own width (FusedLayerPlan widens when the whole temporary is
    // LLC-resident, where extra sweeps only add traversal cost and
    // strided column stores).
    //
    // Flat-LLC regime: when the advertised LLC exceeds the residency
    // bound (virtualized parts whose "L3" gathers at DRAM latency),
    // no panel width can actually be held resident, so narrowing buys
    // nothing — it only multiplies the per-panel costs: extra merge
    // traversals and, in the pipelined chain, one full re-stream of
    // the downstream rank-update accumulator per panel. The width is
    // then chosen as wide as the advertised capacity allows, which
    // both bounds the panel buffers on enormous graphs and minimizes
    // the panel count everywhere else.
    const int64_t budget = llc > kMaxResidencyBytes
                               ? llc
                               : std::min(llc, kMaxResidencyBytes) / 2;
    if (operand_bytes <= budget)
        return dim;
    int64_t width = budget / (static_cast<int64_t>(n_rows) *
                              static_cast<int64_t>(elem_bytes));
    width = width / 16 * 16;
    width = std::clamp<int64_t>(width, 32, 256);
    if (width >= dim)
        return dim;
    return static_cast<index_t>(width);
}

index_t
fused_tile_width(index_t n_rows, index_t dim, index_t elem_bytes)
{
    const LocalityEnv &env = locality_env();
    switch (env.tile_policy) {
    case TilePolicy::kDisabled:
        return dim;
    case TilePolicy::kExplicit:
        return std::min(env.tile_d, dim);
    case TilePolicy::kAuto:
        break;
    }
    return auto_fused_tile_d(n_rows, dim, elem_bytes);
}

SpmmLocality
default_fused_locality(index_t n_rows, index_t dim, index_t elem_bytes)
{
    const LocalityEnv &env = locality_env();
    SpmmLocality loc;
    loc.tile_d = fused_tile_width(n_rows, dim, elem_bytes);
    loc.auto_width = env.tile_policy == TilePolicy::kAuto;
    // The fused gather reads panel-width rows, so the lookahead is
    // derived from the effective panel width, not the full dimension.
    const index_t effective = loc.tiled(dim) ? loc.tile_d : dim;
    loc.prefetch = env.prefetch_auto
                       ? auto_prefetch_distance(effective, elem_bytes)
                       : env.prefetch;
    return loc;
}

SpmmLocality
default_spmm_locality(index_t n_cols, index_t dim, index_t elem_bytes)
{
    const LocalityEnv &env = locality_env();
    SpmmLocality loc;
    switch (env.tile_policy) {
    case TilePolicy::kDisabled:
        loc.tile_d = 0;
        break;
    case TilePolicy::kExplicit:
        loc.tile_d = std::min(env.tile_d, dim);
        break;
    case TilePolicy::kAuto:
        loc.tile_d = auto_tile_d(n_cols, dim, elem_bytes);
        break;
    }
    loc.prefetch = env.prefetch_auto
                       ? auto_prefetch_distance(dim, elem_bytes)
                       : env.prefetch;
    MetricsRegistry &metrics = MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.gauge_set("locality.tile_d",
                          static_cast<double>(loc.tiled(dim) ? loc.tile_d
                                                             : dim));
        metrics.gauge_set("locality.prefetch_distance",
                          static_cast<double>(loc.prefetch));
        metrics.gauge_set("locality.l2_bytes",
                          static_cast<double>(detected_l2_bytes()));
        metrics.gauge_set("locality.llc_bytes",
                          static_cast<double>(detected_llc_bytes()));
    }
    return loc;
}

} // namespace mps
