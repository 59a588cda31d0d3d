#include "mps/util/histogram.h"

#include <algorithm>
#include <cmath>

namespace mps {

int
HistogramLayout::bucket_index(double value)
{
    if (!(value > 0.0))
        return 0; // zero, negative and NaN all land in the floor bucket
    int exp = 0;
    // frexp: value = frac * 2^exp with frac in [0.5, 1), so the octave
    // [2^o, 2^(o+1)) containing value has o = exp - 1.
    const double frac = std::frexp(value, &exp);
    const int octave = exp - 1;
    if (octave < kMinExponent)
        return 1;
    if (octave > kMaxExponent)
        return kNumBuckets - 1;
    // Linear position within the octave: frac*2 is value/2^o in [1, 2).
    int sub = static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets);
    sub = std::min(sub, kSubBuckets - 1);
    return 1 + (octave - kMinExponent) * kSubBuckets + sub;
}

double
HistogramLayout::bucket_upper(int index)
{
    if (index <= 0)
        return 0.0;
    const int linear = index - 1;
    const int octave = kMinExponent + linear / kSubBuckets;
    const int sub = linear % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                      octave);
}

double
HistogramLayout::bucket_value(int index)
{
    if (index <= 0)
        return 0.0;
    const int linear = index - 1;
    const int octave = kMinExponent + linear / kSubBuckets;
    const int sub = linear % kSubBuckets;
    return std::ldexp(1.0 + (static_cast<double>(sub) + 0.5) /
                                kSubBuckets,
                      octave);
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count <= 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested sample (1-based, nearest-rank method).
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(
               std::ceil(q * static_cast<double>(count))));
    int64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += static_cast<int64_t>(buckets[i]);
        if (seen >= rank) {
            const double v =
                HistogramLayout::bucket_value(static_cast<int>(i));
            // The exact extremes are tracked; use them to keep
            // single-sample and tail quantiles within the data range.
            return std::clamp(v, min, max);
        }
    }
    return max;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count <= 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
    if (buckets.size() < other.buckets.size())
        buckets.resize(other.buckets.size(), 0);
    for (size_t i = 0; i < other.buckets.size(); ++i)
        buckets[i] += other.buckets[i];
}

LogHistogram::LogHistogram()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

void
LogHistogram::record(double value)
{
    buckets_[HistogramLayout::bucket_index(value)].fetch_add(
        1, std::memory_order_relaxed);
    const int64_t n = count_.fetch_add(1, std::memory_order_relaxed);
    // sum/min/max are CAS loops so concurrent writers never lose an
    // update; uncontended (the registry's per-thread shards) they are
    // a single relaxed exchange.
    double s = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(s, s + value,
                                       std::memory_order_relaxed)) {
    }
    if (n == 0) {
        min_.store(value, std::memory_order_relaxed);
        max_.store(value, std::memory_order_relaxed);
        return;
    }
    double lo = min_.load(std::memory_order_relaxed);
    while (value < lo && !min_.compare_exchange_weak(
                             lo, value, std::memory_order_relaxed)) {
    }
    double hi = max_.load(std::memory_order_relaxed);
    while (value > hi && !max_.compare_exchange_weak(
                             hi, value, std::memory_order_relaxed)) {
    }
}

HistogramSnapshot
LogHistogram::snapshot() const
{
    HistogramSnapshot snap;
    merge_into(snap);
    return snap;
}

void
LogHistogram::merge_into(HistogramSnapshot &into) const
{
    HistogramSnapshot mine;
    mine.count = count_.load(std::memory_order_relaxed);
    if (mine.count <= 0)
        return;
    mine.sum = sum_.load(std::memory_order_relaxed);
    mine.min = min_.load(std::memory_order_relaxed);
    mine.max = max_.load(std::memory_order_relaxed);
    mine.buckets.resize(HistogramLayout::kNumBuckets, 0);
    int64_t in_buckets = 0;
    for (int i = 0; i < HistogramLayout::kNumBuckets; ++i) {
        mine.buckets[static_cast<size_t>(i)] =
            buckets_[i].load(std::memory_order_relaxed);
        in_buckets +=
            static_cast<int64_t>(mine.buckets[static_cast<size_t>(i)]);
    }
    // A record() racing this snapshot can land in a bucket after
    // count_ was read. Exporters emit cumulative buckets against the
    // count (the +Inf bucket), so take it from the buckets read.
    mine.count = in_buckets;
    into.merge(mine);
}

void
LogHistogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

} // namespace mps
