/**
 * @file
 * Process-wide reuse of merge-path schedules.
 *
 * Building a MergePathSchedule costs one O(log) diagonal search per
 * thread — cheap, but a serving system pays it on every SpMM of every
 * layer of every request against the *same* adjacency matrix. The cache
 * keys schedules on (graph fingerprint, thread count, merge-path cost)
 * so each combination is built exactly once and shared read-only across
 * layers, epochs and concurrent requests (a schedule is immutable after
 * construction, so sharing needs no further synchronization).
 *
 * Dynamic graphs: when a DeltaCsr compaction swaps the base matrix,
 * repair_for_update() migrates every entry of the old fingerprint to
 * the new one through repair_schedule() — O(threads · log nnz) per
 * entry instead of a rebuild — bumping the entry's plan version and
 * refreshing its write census only over the dirty thread range
 * (censuses are cached in fixed-size thread chunks, and only chunks
 * intersecting the repair's dirty range are recomputed). Since plan
 * versioning under churn multiplies entries, the cache holds at most
 * MPS_SCHEDULE_CACHE_MAX schedules (default 256) and evicts the least
 * recently used entry past that, counting schedule_cache.evictions.
 *
 * Consumers: the serve subsystem (one cache per Server, or an external
 * one shared across a benchmark sweep), GcnModel / GcnTrainer (via
 * ScheduleCache::global()), and MergePathSpmm::set_schedule_cache().
 */
#ifndef MPS_CORE_SCHEDULE_CACHE_H
#define MPS_CORE_SCHEDULE_CACHE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "mps/core/schedule.h"
#include "mps/sparse/csr_matrix.h"

namespace mps {

class HybridSchedule;

/**
 * Cheap structural fingerprint of a CSR matrix: mixes shape, nnz and a
 * bounded sample of row offsets / column indices. Two matrices with the
 * same fingerprint are treated as the same graph for schedule reuse;
 * schedules only depend on (row_ptr, nnz), so a rare collision between
 * same-shape matrices still yields a *valid* schedule, merely one built
 * for the colliding twin.
 */
uint64_t csr_fingerprint(const CsrMatrix &a);

/** Entry cap from MPS_SCHEDULE_CACHE_MAX (default 256, min 1). */
size_t default_schedule_cache_max();

/** Keyed store of immutable merge-path schedules. Thread-safe. */
class ScheduleCache
{
  public:
    ScheduleCache() = default;

    ScheduleCache(const ScheduleCache &) = delete;
    ScheduleCache &operator=(const ScheduleCache &) = delete;

    /** Process-wide cache (never destroyed; safe during shutdown). */
    static ScheduleCache &global();

    /**
     * Schedule for @p a at an explicit thread count; built on first use
     * (key cost = the items_per_thread the build derives).
     */
    std::shared_ptr<const MergePathSchedule>
    get_or_build(const CsrMatrix &a, index_t num_threads);

    /**
     * Schedule for @p a from a target merge-path cost, applying the
     * same small-graph minimum-thread rule as
     * MergePathSchedule::build_with_cost(). The key includes both the
     * requested cost and the thread count it resolves to.
     */
    std::shared_ptr<const MergePathSchedule>
    get_or_build_with_cost(const CsrMatrix &a, index_t cost,
                           index_t min_threads = 0);

    /**
     * Write census of the schedule get_or_build_with_cost(a, cost,
     * min_threads) resolves to, cached in thread chunks. A later
     * repair_for_update() refreshes only the chunks intersecting the
     * repair's dirty thread range.
     */
    ScheduleCensus census_with_cost(const CsrMatrix &a, index_t cost,
                                    index_t min_threads = 0);

    /**
     * Migrate every schedule cached for @p old_a to @p new_a (rows
     * unchanged, row_ptr identical before @p first_dirty_row — the
     * contract of DeltaCsr::compact()). Each entry is repaired via
     * repair_schedule(), its plan version bumped, any cached census
     * refreshed over the dirty thread range only, and the entry
     * re-keyed the way a future lookup on @p new_a computes the key.
     * A repaired by-cost entry keeps its old thread count even if
     * threads_for_cost on the new matrix would differ slightly — the
     * schedule remains a valid partition for @p new_a, which is the
     * only contract lookups rely on. @return entries migrated.
     */
    size_t repair_for_update(const CsrMatrix &old_a,
                             const CsrMatrix &new_a,
                             index_t first_dirty_row);

    /**
     * Plan version of the cached entry a get_or_build_with_cost(a,
     * cost, min_threads) lookup would hit: 1 on first build, +1 per
     * repair_for_update migration. 0 when the entry is not cached.
     */
    uint64_t version_with_cost(const CsrMatrix &a, index_t cost,
                               index_t min_threads = 0) const;

    /**
     * Two-phase hybrid schedule (dense bands + merge-path tail, see
     * mps/core/hybrid.h) for @p a at merge-path cost @p cost, built on
     * first use with the env-resolved classification params and shared
     * read-only afterwards. Hybrid entries live beside the merge-path
     * ones: same fingerprint keying, same hit/miss counters, same LRU
     * cap (the total across both kinds is bounded), and
     * repair_for_update() migrates them through
     * repair_hybrid_schedule().
     */
    std::shared_ptr<const HybridSchedule>
    get_or_build_hybrid(const CsrMatrix &a, index_t cost,
                        index_t min_threads = 0);

    /**
     * Plan version of the cached hybrid entry a get_or_build_hybrid(a,
     * cost, min_threads) lookup would hit: 1 on first build, +1 per
     * repair_for_update migration. 0 when not cached.
     */
    uint64_t hybrid_version_with_cost(const CsrMatrix &a, index_t cost,
                                      index_t min_threads = 0) const;

    /** Number of distinct (graph, cost, min_threads) hybrid entries. */
    size_t hybrid_size() const;

    /** Number of distinct (graph, threads, cost) entries held. */
    size_t size() const;

    /** Cache hits / misses since construction (or the last clear()). */
    int64_t hits() const;
    int64_t misses() const;

    /** Entries evicted by the LRU cap since construction / clear(). */
    int64_t evictions() const;

    /** LRU capacity (MPS_SCHEDULE_CACHE_MAX unless overridden). */
    size_t max_entries() const { return max_entries_; }
    void set_max_entries(size_t cap);

    /** Drop every entry and zero the hit/miss/eviction counters. */
    void clear();

  private:
    using Key = std::tuple<uint64_t, index_t, index_t>;

    struct Entry
    {
        std::shared_ptr<const MergePathSchedule> schedule;
        /** Creation style, so repair can re-key as a lookup would. */
        bool by_cost = false;
        index_t cost = 0; ///< requested cost (by_cost) else derived
        index_t min_threads = 0;
        uint64_t version = 1;
        uint64_t last_used = 0; ///< LRU tick
        /**
         * Cached write census in chunks of kCensusChunk threads; empty
         * until census_with_cost() asks. Chunk i covers threads
         * [i * kCensusChunk, min((i+1) * kCensusChunk, T)).
         */
        std::vector<ScheduleCensusPart> census_chunks;
    };

    struct HybridEntry
    {
        std::shared_ptr<const HybridSchedule> schedule;
        index_t cost = 0;
        index_t min_threads = 0;
        uint64_t version = 1;
        uint64_t last_used = 0; ///< LRU tick (shared with Entry)
    };

    static constexpr index_t kCensusChunk = 64;

    std::shared_ptr<const MergePathSchedule>
    lookup(const CsrMatrix &a, const Key &key, index_t num_threads,
           bool by_cost, index_t cost, index_t min_threads);

    Entry *find_locked(const Key &key);
    void evict_to_cap_locked();
    void fill_census_locked(Entry &e, const CsrMatrix &a);
    static ScheduleCensus fold_census(const Entry &e);

    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_;
    std::map<Key, HybridEntry> hybrids_;
    size_t max_entries_ = default_schedule_cache_max();
    uint64_t lru_tick_ = 0;
    int64_t hits_ = 0;
    int64_t misses_ = 0;
    int64_t evictions_ = 0;
};

} // namespace mps

#endif // MPS_CORE_SCHEDULE_CACHE_H
