#include "mps/core/schedule_cache.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "mps/core/hybrid.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"

namespace mps {

namespace {

/** splitmix64 finalizer — good avalanche for cheap hash mixing. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Threads that build_with_cost() would use for (a, cost, min_threads). */
index_t
threads_for_cost(const CsrMatrix &a, index_t cost, index_t min_threads)
{
    int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();
    int64_t threads = (total + cost - 1) / cost;
    if (threads < 1)
        threads = 1;
    if (min_threads > 0 && threads < min_threads)
        threads = min_threads;
    return static_cast<index_t>(threads);
}

/** Cost that get_or_build() derives for an explicit thread count. */
index_t
cost_for_threads(const CsrMatrix &a, index_t num_threads)
{
    int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();
    index_t cost = static_cast<index_t>(
        (total + num_threads - 1) / std::max<index_t>(num_threads, 1));
    return cost < 1 ? 1 : cost;
}

} // namespace

uint64_t
csr_fingerprint(const CsrMatrix &a)
{
    uint64_t h = mix64(static_cast<uint64_t>(a.rows()));
    h ^= mix64(static_cast<uint64_t>(a.cols()) + 0x51ed2701);
    h ^= mix64(static_cast<uint64_t>(a.nnz()) + 0xa5a5a5a5);
    // Sample up to 64 evenly spaced entries of each structural array so
    // the fingerprint stays O(1) on huge graphs yet separates matrices
    // that agree on shape but not structure.
    const auto sample = [&h](const std::vector<index_t> &xs) {
        const size_t n = xs.size();
        if (n == 0)
            return;
        const size_t step = std::max<size_t>(1, n / 64);
        for (size_t i = 0; i < n; i += step)
            h = mix64(h ^ (static_cast<uint64_t>(xs[i]) + i));
    };
    sample(a.row_ptr());
    sample(a.col_idx());
    return h;
}

size_t
default_schedule_cache_max()
{
    const char *env = std::getenv("MPS_SCHEDULE_CACHE_MAX");
    if (env != nullptr && *env != '\0') {
        char *end = nullptr;
        long cap = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && cap >= 1)
            return static_cast<size_t>(cap);
        warn(detail::format_parts(
            "ignoring invalid MPS_SCHEDULE_CACHE_MAX=", env));
    }
    return 256;
}

ScheduleCache &
ScheduleCache::global()
{
    static ScheduleCache *cache = new ScheduleCache();
    return *cache;
}

ScheduleCache::Entry *
ScheduleCache::find_locked(const Key &key)
{
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

void
ScheduleCache::evict_to_cap_locked()
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    // Merge-path and hybrid entries share one LRU budget: the cap
    // bounds the TOTAL number of schedules held, and the globally
    // least-recently-used entry goes first regardless of kind.
    while (entries_.size() + hybrids_.size() > max_entries_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (victim == entries_.end() ||
                it->second.last_used < victim->second.last_used)
                victim = it;
        }
        auto hybrid_victim = hybrids_.begin();
        for (auto it = hybrids_.begin(); it != hybrids_.end(); ++it) {
            if (hybrid_victim == hybrids_.end() ||
                it->second.last_used < hybrid_victim->second.last_used)
                hybrid_victim = it;
        }
        if (hybrid_victim != hybrids_.end() &&
            (victim == entries_.end() ||
             hybrid_victim->second.last_used < victim->second.last_used))
            hybrids_.erase(hybrid_victim);
        else
            entries_.erase(victim);
        ++evictions_;
        if (metrics.enabled())
            metrics.counter_add("schedule_cache.evictions");
    }
}

std::shared_ptr<const MergePathSchedule>
ScheduleCache::lookup(const CsrMatrix &a, const Key &key,
                      index_t num_threads, bool by_cost, index_t cost,
                      index_t min_threads)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry *e = find_locked(key)) {
        e->last_used = ++lru_tick_;
        ++hits_;
        if (metrics.enabled())
            metrics.counter_add("schedule.cache.hits");
        return e->schedule;
    }
    // Build under the lock: construction is cheap relative to the SpMM
    // it schedules, and serializing first-miss builds guarantees the
    // "one build per key" invariant the metrics assert.
    Entry e;
    e.schedule = std::make_shared<const MergePathSchedule>(
        MergePathSchedule::build(a, num_threads));
    e.by_cost = by_cost;
    e.cost = cost;
    e.min_threads = min_threads;
    e.last_used = ++lru_tick_;
    auto sched = e.schedule;
    entries_.emplace(key, std::move(e));
    evict_to_cap_locked();
    ++misses_;
    if (metrics.enabled()) {
        metrics.counter_add("schedule.cache.misses");
        metrics.gauge_set("schedule.cache.size",
                          static_cast<double>(entries_.size()));
    }
    return sched;
}

std::shared_ptr<const MergePathSchedule>
ScheduleCache::get_or_build(const CsrMatrix &a, index_t num_threads)
{
    MPS_CHECK(num_threads >= 1, "need at least one thread");
    index_t cost = cost_for_threads(a, num_threads);
    return lookup(a, Key{csr_fingerprint(a), num_threads, cost},
                  num_threads, /*by_cost=*/false, cost,
                  /*min_threads=*/0);
}

std::shared_ptr<const MergePathSchedule>
ScheduleCache::get_or_build_with_cost(const CsrMatrix &a, index_t cost,
                                      index_t min_threads)
{
    MPS_CHECK(cost >= 1, "merge-path cost must be >= 1");
    index_t threads = threads_for_cost(a, cost, min_threads);
    return lookup(a, Key{csr_fingerprint(a), threads, cost}, threads,
                  /*by_cost=*/true, cost, min_threads);
}

void
ScheduleCache::fill_census_locked(Entry &e, const CsrMatrix &a)
{
    if (!e.census_chunks.empty())
        return;
    const index_t threads = e.schedule->num_threads();
    const index_t chunks = (threads + kCensusChunk - 1) / kCensusChunk;
    e.census_chunks.reserve(static_cast<size_t>(chunks));
    for (index_t i = 0; i < chunks; ++i) {
        e.census_chunks.push_back(e.schedule->census_part(
            a, i * kCensusChunk,
            std::min<index_t>((i + 1) * kCensusChunk, threads)));
    }
}

ScheduleCensus
ScheduleCache::fold_census(const Entry &e)
{
    MPS_CHECK(!e.census_chunks.empty(), "census not filled");
    ScheduleCensusPart acc = e.census_chunks.front();
    for (size_t i = 1; i < e.census_chunks.size(); ++i)
        acc = acc.merged(e.census_chunks[i]);
    return acc.counts;
}

ScheduleCensus
ScheduleCache::census_with_cost(const CsrMatrix &a, index_t cost,
                                index_t min_threads)
{
    // Resolve (and build if needed) outside the census fill so the
    // lookup bookkeeping stays in one place.
    get_or_build_with_cost(a, cost, min_threads);
    index_t threads = threads_for_cost(a, cost, min_threads);
    const Key key{csr_fingerprint(a), threads, cost};
    std::lock_guard<std::mutex> lock(mutex_);
    Entry *e = find_locked(key);
    MPS_CHECK(e != nullptr, "schedule vanished between lookup and census");
    fill_census_locked(*e, a);
    return fold_census(*e);
}

uint64_t
ScheduleCache::version_with_cost(const CsrMatrix &a, index_t cost,
                                 index_t min_threads) const
{
    index_t threads = threads_for_cost(a, cost, min_threads);
    const Key key{csr_fingerprint(a), threads, cost};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    return it == entries_.end() ? 0 : it->second.version;
}

std::shared_ptr<const HybridSchedule>
ScheduleCache::get_or_build_hybrid(const CsrMatrix &a, index_t cost,
                                   index_t min_threads)
{
    MPS_CHECK(cost >= 1, "merge-path cost must be >= 1");
    MetricsRegistry &metrics = MetricsRegistry::global();
    const Key key{csr_fingerprint(a), cost, min_threads};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = hybrids_.find(key);
    if (it != hybrids_.end()) {
        it->second.last_used = ++lru_tick_;
        ++hits_;
        if (metrics.enabled())
            metrics.counter_add("schedule.cache.hits");
        return it->second.schedule;
    }
    // Built under the lock like the merge-path entries: classification
    // is one structural pass, and serializing first-miss builds keeps
    // the one-build-per-key invariant.
    HybridEntry e;
    e.schedule = std::make_shared<const HybridSchedule>(
        HybridSchedule::build(a, cost, min_threads));
    e.cost = cost;
    e.min_threads = min_threads;
    e.last_used = ++lru_tick_;
    auto sched = e.schedule;
    hybrids_.emplace(key, std::move(e));
    evict_to_cap_locked();
    ++misses_;
    if (metrics.enabled()) {
        metrics.counter_add("schedule.cache.misses");
        metrics.gauge_set("schedule.cache.hybrid_size",
                          static_cast<double>(hybrids_.size()));
    }
    return sched;
}

uint64_t
ScheduleCache::hybrid_version_with_cost(const CsrMatrix &a, index_t cost,
                                        index_t min_threads) const
{
    const Key key{csr_fingerprint(a), cost, min_threads};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = hybrids_.find(key);
    return it == hybrids_.end() ? 0 : it->second.version;
}

size_t
ScheduleCache::hybrid_size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hybrids_.size();
}

size_t
ScheduleCache::repair_for_update(const CsrMatrix &old_a,
                                 const CsrMatrix &new_a,
                                 index_t first_dirty_row)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    const uint64_t old_fp = csr_fingerprint(old_a);
    const uint64_t new_fp = csr_fingerprint(new_a);

    std::lock_guard<std::mutex> lock(mutex_);
    // Collect first: re-keying mutates the map we'd be iterating.
    std::vector<std::pair<Key, Entry>> migrated;
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (std::get<0>(it->first) == old_fp) {
            migrated.emplace_back(it->first, std::move(it->second));
            it = entries_.erase(it);
        } else {
            ++it;
        }
    }

    for (auto &[old_key, e] : migrated) {
        ScheduleRepair r = repair_schedule(*e.schedule, old_a, new_a,
                                           first_dirty_row);
        const index_t threads = r.schedule.num_threads();
        // Refresh any cached census over the dirty thread range only;
        // chunks fully inside the clean prefix are carried over (the
        // kept boundaries AND their resolution against new_a are
        // unchanged there).
        if (!e.census_chunks.empty()) {
            const index_t chunks =
                (threads + kCensusChunk - 1) / kCensusChunk;
            std::vector<ScheduleCensusPart> fresh(
                static_cast<size_t>(chunks));
            for (index_t i = 0; i < chunks; ++i) {
                const index_t lo = i * kCensusChunk;
                const index_t hi =
                    std::min<index_t>(lo + kCensusChunk, threads);
                if (!r.rebuilt && hi <= r.dirty_begin &&
                    static_cast<size_t>(i) < e.census_chunks.size())
                    fresh[static_cast<size_t>(i)] =
                        e.census_chunks[static_cast<size_t>(i)];
                else
                    fresh[static_cast<size_t>(i)] =
                        r.schedule.census_part(new_a, lo, hi);
            }
            e.census_chunks = std::move(fresh);
        }
        e.schedule = std::make_shared<const MergePathSchedule>(
            std::move(r.schedule));
        ++e.version;
        e.last_used = ++lru_tick_;
        // Re-key the way a FUTURE lookup on new_a computes the key. A
        // by-cost entry whose threads_for_cost drifted keeps its
        // repaired (old-thread-count) schedule — still a valid
        // partition of new_a, merely not the count a fresh build would
        // pick; the next compaction or eviction converges it.
        Key new_key =
            e.by_cost
                ? Key{new_fp,
                      threads_for_cost(new_a, e.cost, e.min_threads),
                      e.cost}
                : Key{new_fp, std::get<1>(old_key),
                      cost_for_threads(new_a, std::get<1>(old_key))};
        entries_.insert_or_assign(new_key, std::move(e));
    }

    // Hybrid entries migrate the same way, through the hybrid repair
    // (partition reclassified with the entry's own params, tail
    // schedule repaired from the first dirty tail row). Their key is
    // (fingerprint, cost, min_threads), so only the fingerprint moves.
    std::vector<std::pair<Key, HybridEntry>> hybrid_migrated;
    for (auto it = hybrids_.begin(); it != hybrids_.end();) {
        if (std::get<0>(it->first) == old_fp) {
            hybrid_migrated.emplace_back(it->first,
                                         std::move(it->second));
            it = hybrids_.erase(it);
        } else {
            ++it;
        }
    }
    for (auto &[old_key, e] : hybrid_migrated) {
        e.schedule = std::make_shared<const HybridSchedule>(
            repair_hybrid_schedule(*e.schedule, old_a, new_a,
                                   first_dirty_row));
        ++e.version;
        e.last_used = ++lru_tick_;
        hybrids_.insert_or_assign(
            Key{new_fp, std::get<1>(old_key), std::get<2>(old_key)},
            std::move(e));
    }

    evict_to_cap_locked();
    if (metrics.enabled()) {
        metrics.gauge_set("schedule.cache.size",
                          static_cast<double>(entries_.size()));
        if (!hybrid_migrated.empty())
            metrics.gauge_set("schedule.cache.hybrid_size",
                              static_cast<double>(hybrids_.size()));
    }
    return migrated.size() + hybrid_migrated.size();
}

size_t
ScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

int64_t
ScheduleCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

int64_t
ScheduleCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

int64_t
ScheduleCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

void
ScheduleCache::set_max_entries(size_t cap)
{
    MPS_CHECK(cap >= 1, "schedule cache cap must be >= 1");
    std::lock_guard<std::mutex> lock(mutex_);
    max_entries_ = cap;
    evict_to_cap_locked();
}

void
ScheduleCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hybrids_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

} // namespace mps
