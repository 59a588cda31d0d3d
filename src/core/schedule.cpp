#include "mps/core/schedule.h"

#include <algorithm>

#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/timer.h"
#include "mps/util/trace.h"

namespace mps {

MergePathSchedule
MergePathSchedule::build(const CsrMatrix &a, index_t num_threads)
{
    MPS_CHECK(num_threads >= 1, "need at least one thread");
    // Schedule construction is the cost Figure 8 charges to online
    // execution; surface it as a timing distribution + span.
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool instrumented = metrics.enabled();
    ScopedSpan span("schedule.build", "schedule");
    Timer timer;
    int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();

    MergePathSchedule sched;
    sched.items_per_thread_ =
        (total + num_threads - 1) / std::max<int64_t>(num_threads, 1);
    if (sched.items_per_thread_ == 0)
        sched.items_per_thread_ = 1;

    // One search per thread boundary; adjacent threads share coordinates
    // so the schedule is a partition by construction.
    const index_t *row_ends =
        a.rows() > 0 ? a.row_ptr().data() + 1 : nullptr;
    std::vector<MergeCoordinate> bounds(
        static_cast<size_t>(num_threads) + 1);
    for (index_t t = 0; t <= num_threads; ++t) {
        int64_t diagonal =
            std::min<int64_t>(static_cast<int64_t>(t) *
                                  sched.items_per_thread_,
                              total);
        bounds[static_cast<size_t>(t)] =
            merge_path_search(diagonal, row_ends, a.rows(), a.nnz());
    }
    sched.work_.resize(static_cast<size_t>(num_threads));
    for (index_t t = 0; t < num_threads; ++t) {
        sched.work_[static_cast<size_t>(t)] = {
            bounds[static_cast<size_t>(t)],
            bounds[static_cast<size_t>(t) + 1]};
    }
    if (instrumented) {
        metrics.counter_add("schedule.builds");
        metrics.timer_record_ms("schedule.build_ms", timer.elapsed_ms());
    }
    return sched;
}

MergePathSchedule
MergePathSchedule::build_with_cost(const CsrMatrix &a, index_t cost,
                                   index_t min_threads)
{
    MPS_CHECK(cost >= 1, "merge-path cost must be >= 1");
    int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();
    int64_t threads = (total + cost - 1) / cost;
    if (threads < 1)
        threads = 1;
    // Small-graph rule (Sec. III-C): guarantee a minimum amount of
    // parallelism by lowering the effective cost.
    if (min_threads > 0 && threads < min_threads)
        threads = min_threads;
    return build(a, static_cast<index_t>(threads));
}

MergePathSchedule
MergePathSchedule::from_parts(std::vector<ThreadWork> work,
                              int64_t items_per_thread)
{
    MPS_CHECK(!work.empty(), "schedule needs at least one thread");
    MPS_CHECK(items_per_thread >= 1, "items_per_thread must be >= 1");
    MergePathSchedule sched;
    sched.work_ = std::move(work);
    sched.items_per_thread_ = items_per_thread;
    return sched;
}

ResolvedWork
MergePathSchedule::resolve(index_t t, const CsrMatrix &a) const
{
    const ThreadWork &w = work_[static_cast<size_t>(t)];
    const auto &rp = a.row_ptr();
    ResolvedWork r;
    if (w.empty())
        return r;

    const index_t sx = w.start.row, sy = w.start.nz;
    const index_t ex = w.end.row, ey = w.end.nz;

    if (sx == ex) {
        // Only one row touched and no row boundary consumed: the whole
        // contribution is nnz [sy, ey) of row sx. It needs an atomic
        // commit unless this thread owns the entire row.
        r.head_row = sx;
        r.head_begin = sy;
        r.head_end = ey;
        r.head_atomic = sy > rp[sx] || ey < rp[static_cast<size_t>(sx) + 1];
        return r;
    }

    // Head: the remainder of row sx (partial when the thread starts
    // mid-row; the preceding thread supplied the missing prefix).
    if (sy > rp[sx]) {
        if (sy < rp[static_cast<size_t>(sx) + 1]) {
            r.head_row = sx;
            r.head_begin = sy;
            r.head_end = rp[static_cast<size_t>(sx) + 1];
            r.head_atomic = true;
        }
        r.first_complete_row = sx + 1;
    } else {
        r.first_complete_row = sx;
    }
    r.last_complete_row = ex;

    // Tail: the prefix [rp[ex], ey) of row ex. If ey lands exactly on the
    // row's end, this thread computed the whole row alone (the next
    // thread's share starts with the row-boundary item), so the row is
    // promoted to a plain complete row.
    if (ex < a.rows() && ey > rp[ex]) {
        if (ey < rp[static_cast<size_t>(ex) + 1]) {
            r.tail_row = ex;
            r.tail_begin = rp[ex];
            r.tail_end = ey;
            r.tail_atomic = true;
        } else {
            r.last_complete_row = ex + 1;
        }
    }
    return r;
}

SplitRowList
MergePathSchedule::split_row_list(const CsrMatrix &a,
                                  const index_t *row_map) const
{
    SplitRowList list;
    for (index_t t = 0; t < num_threads(); ++t) {
        // A later part of a split row is always a head that starts
        // past the row's first non-zero; tails start at it.
        const ResolvedWork w = resolve(t, a);
        if (!w.has_head() || w.head_begin == a.row_begin(w.head_row))
            continue;
        const index_t row =
            row_map != nullptr ? row_map[w.head_row] : w.head_row;
        if (list.rows.empty() || list.rows.back() != row) {
            if (!list.rows.empty())
                list.offsets.push_back(
                    static_cast<index_t>(list.slots.size()));
            list.rows.push_back(row);
        }
        list.slots.push_back(t);
    }
    if (!list.rows.empty())
        list.offsets.push_back(static_cast<index_t>(list.slots.size()));
    return list;
}

ScheduleCensusPart
ScheduleCensusPart::merged(const ScheduleCensusPart &right) const
{
    ScheduleCensusPart m;
    m.counts.empty_threads = counts.empty_threads +
                             right.counts.empty_threads;
    m.counts.atomic_commits = counts.atomic_commits +
                              right.counts.atomic_commits;
    m.counts.plain_row_writes = counts.plain_row_writes +
                                right.counts.plain_row_writes;
    m.counts.atomic_nnz = counts.atomic_nnz + right.counts.atomic_nnz;
    m.counts.plain_nnz = counts.plain_nnz + right.counts.plain_nnz;
    m.counts.max_nnz_per_thread = std::max(
        counts.max_nnz_per_thread, right.counts.max_nnz_per_thread);
    m.counts.max_items_per_thread = std::max(
        counts.max_items_per_thread, right.counts.max_items_per_thread);
    // Atomic rows are non-decreasing in thread order, so the only row
    // both sides can count is the seam row shared by the last thread of
    // the left range and the first of the right.
    const int64_t seam = (last_atomic_row >= 0 &&
                          last_atomic_row == right.first_atomic_row)
                             ? 1
                             : 0;
    m.counts.split_rows =
        counts.split_rows + right.counts.split_rows - seam;
    m.first_atomic_row =
        first_atomic_row >= 0 ? first_atomic_row : right.first_atomic_row;
    m.last_atomic_row =
        right.last_atomic_row >= 0 ? right.last_atomic_row
                                   : last_atomic_row;
    return m;
}

ScheduleCensusPart
MergePathSchedule::census_part(const CsrMatrix &a, index_t t_begin,
                               index_t t_end) const
{
    MPS_CHECK(t_begin >= 0 && t_end <= num_threads() && t_begin <= t_end,
              "bad census thread range [", t_begin, ", ", t_end, ")");
    ScheduleCensusPart part;
    ScheduleCensus &c = part.counts;
    const auto &rp = a.row_ptr();

    const auto count_atomic_row = [&part, &c](index_t row) {
        if (part.first_atomic_row < 0)
            part.first_atomic_row = row;
        // Non-decreasing in thread order: a new distinct row whenever
        // it differs from the previous one.
        if (row != part.last_atomic_row)
            ++c.split_rows;
        part.last_atomic_row = row;
    };

    for (index_t t = t_begin; t < t_end; ++t) {
        const ThreadWork &w = work_[static_cast<size_t>(t)];
        if (w.empty()) {
            ++c.empty_threads;
            continue;
        }
        int64_t nnz_t = w.end.nz - w.start.nz;
        int64_t items_t = (w.end.row - w.start.row) + nnz_t;
        c.max_nnz_per_thread = std::max(c.max_nnz_per_thread, nnz_t);
        c.max_items_per_thread = std::max(c.max_items_per_thread, items_t);

        ResolvedWork r = resolve(t, a);
        if (r.has_head()) {
            int64_t len = r.head_end - r.head_begin;
            if (r.head_atomic) {
                ++c.atomic_commits;
                c.atomic_nnz += len;
                count_atomic_row(r.head_row);
            } else {
                ++c.plain_row_writes;
                c.plain_nnz += len;
            }
        }
        if (r.last_complete_row > r.first_complete_row) {
            c.plain_row_writes +=
                r.last_complete_row - r.first_complete_row;
            c.plain_nnz += rp[r.last_complete_row] -
                           rp[r.first_complete_row];
        }
        if (r.has_tail()) {
            ++c.atomic_commits;
            c.atomic_nnz += r.tail_end - r.tail_begin;
            count_atomic_row(r.tail_row);
        }
    }
    return part;
}

ScheduleCensus
MergePathSchedule::census(const CsrMatrix &a) const
{
    return census_part(a, 0, num_threads()).counts;
}

void
MergePathSchedule::validate(const CsrMatrix &a) const
{
    MPS_CHECK(!work_.empty(), "schedule has no threads");
    int64_t total = static_cast<int64_t>(a.rows()) + a.nnz();

    MPS_CHECK(work_.front().start.row == 0 && work_.front().start.nz == 0,
              "schedule must start at the origin");
    MPS_CHECK(work_.back().end.row == a.rows() &&
                  work_.back().end.nz == a.nnz(),
              "schedule must end at (rows, nnz)");

    int64_t covered = 0;
    for (size_t t = 0; t < work_.size(); ++t) {
        const ThreadWork &w = work_[t];
        MPS_CHECK(w.end.row >= w.start.row && w.end.nz >= w.start.nz,
                  "thread ", t, " has a backwards range");
        int64_t items = (w.end.row - w.start.row) +
                        (w.end.nz - w.start.nz);
        MPS_CHECK(items <= items_per_thread_, "thread ", t,
                  " exceeds the merge-path cost: ", items, " > ",
                  items_per_thread_);
        if (t + 1 < work_.size()) {
            MPS_CHECK(w.end == work_[t + 1].start,
                      "thread ranges must be contiguous at thread ", t);
        }
        covered += items;
    }
    MPS_CHECK(covered == total, "schedule covers ", covered,
              " merge items, expected ", total);

    // Every nnz range must lie inside its row per the CSR row pointers.
    const auto &rp = a.row_ptr();
    for (size_t t = 0; t < work_.size(); ++t) {
        const ThreadWork &w = work_[t];
        if (w.empty())
            continue;
        MPS_CHECK(w.start.row <= a.rows() && w.end.row <= a.rows(),
                  "thread ", t, " row out of range");
        if (w.start.row < a.rows()) {
            MPS_CHECK(w.start.nz >= rp[w.start.row] &&
                          w.start.nz <=
                              rp[static_cast<size_t>(w.start.row) + 1],
                      "thread ", t, " start nz not within start row");
        }
        if (w.end.row < a.rows()) {
            MPS_CHECK(w.end.nz >= rp[w.end.row] &&
                          w.end.nz <=
                              rp[static_cast<size_t>(w.end.row) + 1],
                      "thread ", t, " end nz not within end row");
        }
    }
}

ScheduleRepair
repair_schedule(const MergePathSchedule &old_sched, const CsrMatrix &old_a,
                const CsrMatrix &new_a, index_t first_dirty_row)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    const bool instrumented = metrics.enabled();
    Timer timer;

    const index_t num_threads = old_sched.num_threads();
    const int64_t total_new =
        static_cast<int64_t>(new_a.rows()) + new_a.nnz();
    MPS_CHECK(new_a.rows() == old_a.rows(),
              "repair requires an unchanged row count");
    MPS_CHECK(first_dirty_row >= 0 && first_dirty_row <= new_a.rows(),
              "first_dirty_row out of range: ", first_dirty_row);

    const auto full_rebuild = [&]() {
        ScheduleRepair r;
        r.schedule = MergePathSchedule::build(new_a, num_threads);
        r.dirty_begin = 0;
        r.dirty_end = num_threads;
        r.rebuilt = true;
        if (instrumented) {
            metrics.counter_add("schedule.repair_rebuilds");
            metrics.counter_add(
                "schedule.repair_ns",
                static_cast<int64_t>(timer.elapsed_ns()));
        }
        return r;
    };

    if (first_dirty_row >= new_a.rows() && new_a.nnz() == old_a.nnz()) {
        // Value-only delta: the schedule depends on structure alone.
        ScheduleRepair r;
        r.schedule = old_sched;
        r.dirty_begin = r.dirty_end = num_threads;
        if (instrumented)
            metrics.counter_add("schedule.repairs");
        return r;
    }
    if (first_dirty_row == 0 || num_threads <= 1)
        return full_rebuild();

    // Diagonals <= p cross the merge path inside the structurally
    // unchanged prefix (the search predicate is identical below row
    // first_dirty_row and false at it in both matrices), so every old
    // boundary at such a diagonal is still on the new path.
    const int64_t p =
        static_cast<int64_t>(first_dirty_row) +
        old_a.row_ptr()[first_dirty_row];

    const auto &old_work = old_sched.work();
    std::vector<MergeCoordinate> bounds(
        static_cast<size_t>(num_threads) + 1);
    bounds[0] = old_work[0].start;
    index_t kept = 0; // largest boundary index kept verbatim
    for (index_t t = 1; t < num_threads; ++t) {
        const MergeCoordinate &b = old_work[static_cast<size_t>(t)].start;
        if (static_cast<int64_t>(b.row) + b.nz > p)
            break;
        bounds[static_cast<size_t>(t)] = b;
        kept = t;
    }

    // Re-place the remaining boundaries evenly over the dirty suffix;
    // each search is windowed to rows >= the last kept boundary's row.
    const int64_t kept_diag =
        static_cast<int64_t>(bounds[static_cast<size_t>(kept)].row) +
        bounds[static_cast<size_t>(kept)].nz;
    const index_t remaining = num_threads - kept;
    int64_t suffix_cost =
        (total_new - kept_diag + remaining - 1) / remaining;
    if (suffix_cost < 1)
        suffix_cost = 1;
    const index_t *row_ends =
        new_a.rows() > 0 ? new_a.row_ptr().data() + 1 : nullptr;
    for (index_t j = 1; j < remaining; ++j) {
        const int64_t diagonal =
            std::min(kept_diag + j * suffix_cost, total_new);
        bounds[static_cast<size_t>(kept + j)] = merge_path_search_window(
            diagonal, row_ends, new_a.rows(), new_a.nnz(),
            bounds[static_cast<size_t>(kept)].row, new_a.rows());
    }
    bounds[static_cast<size_t>(num_threads)] = {new_a.rows(),
                                                new_a.nnz()};

    int64_t items_per_thread = 1;
    for (index_t t = 0; t < num_threads; ++t) {
        const int64_t d0 =
            static_cast<int64_t>(bounds[static_cast<size_t>(t)].row) +
            bounds[static_cast<size_t>(t)].nz;
        const int64_t d1 =
            static_cast<int64_t>(bounds[static_cast<size_t>(t) + 1].row) +
            bounds[static_cast<size_t>(t) + 1].nz;
        items_per_thread = std::max(items_per_thread, d1 - d0);
    }
    // Balance guard: the kept prefix pins old spacing, so a delta that
    // grows the suffix a lot can overload suffix threads. Rebuilding
    // restores even spacing.
    const int64_t balanced =
        (total_new + num_threads - 1) / num_threads;
    if (items_per_thread > 2 * balanced)
        return full_rebuild();

    std::vector<ThreadWork> work(static_cast<size_t>(num_threads));
    for (index_t t = 0; t < num_threads; ++t) {
        work[static_cast<size_t>(t)] = {
            bounds[static_cast<size_t>(t)],
            bounds[static_cast<size_t>(t) + 1]};
    }
    ScheduleRepair r;
    r.schedule =
        MergePathSchedule::from_parts(std::move(work), items_per_thread);
    r.dirty_begin = kept;
    r.dirty_end = num_threads;
    if (instrumented) {
        metrics.counter_add("schedule.repairs");
        metrics.counter_add("schedule.repair_ns",
                            static_cast<int64_t>(timer.elapsed_ns()));
    }
    return r;
}

} // namespace mps
