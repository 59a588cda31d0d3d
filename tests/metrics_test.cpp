/** Tests for the mps/util observability subsystem (metrics + trace). */
#include <atomic>
#include <cctype>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mps/util/json.h"
#include "mps/util/metrics.h"
#include "mps/util/trace.h"

namespace mps {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator. Checks well-formedness only;
// enough to assert our exporters emit documents a real parser would load.

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : text_(text) {}

    bool valid()
    {
        skip_ws();
        if (!value())
            return false;
        skip_ws();
        return pos_ == text_.size();
    }

  private:
    bool value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            if (!string())
                return false;
            skip_ws();
            if (peek() != ':')
                return false;
            ++pos_;
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            if (!value())
                return false;
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control character
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                char esc = text_[pos_];
                if (esc == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(esc) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriter, EscapesAndNesting)
{
    JsonWriter w;
    w.begin_object();
    w.key("plain").value("hello");
    w.key("quote\"back\\slash").value(std::string("tab\there\n"));
    w.key("nums").begin_array();
    w.value(int64_t{-3}).value(2.5).value(true).null();
    w.end_array();
    w.end_object();
    std::string text = w.str();
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_NE(text.find("\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(text.find("\\t"), std::string::npos);
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    JsonWriter w;
    w.begin_array().value(1.0 / 0.0).end_array();
    EXPECT_EQ(w.str(), "[null]");
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CountersGaugesTimers)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter_add("events", 3);
    reg.counter_add("events");
    reg.gauge_set("ratio", 0.25);
    reg.gauge_set("ratio", 0.5); // last write wins
    reg.timer_record_ms("lap", 2.0);
    reg.timer_record_ms("lap", 4.0);

    EXPECT_EQ(reg.counter_value("events"), 4);
    EXPECT_DOUBLE_EQ(reg.gauge_value("ratio"), 0.5);
    MetricSnapshot lap = reg.timer_value("lap");
    EXPECT_EQ(lap.count, 2);
    EXPECT_DOUBLE_EQ(lap.sum, 6.0);
    EXPECT_DOUBLE_EQ(lap.min, 2.0);
    EXPECT_DOUBLE_EQ(lap.max, 4.0);
    EXPECT_DOUBLE_EQ(lap.mean(), 3.0);
}

TEST(Metrics, DisabledMutatorsAreNoOps)
{
    MetricsRegistry reg;
    ASSERT_FALSE(reg.enabled());
    reg.counter_add("events", 7);
    reg.gauge_set("ratio", 1.0);
    reg.timer_record_ms("lap", 1.0);
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Metrics, ConcurrentCountersMergeExactly)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    constexpr int kThreads = 8;
    constexpr int kIncrements = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < kIncrements; ++i) {
                reg.counter_add("shared");
                reg.timer_record_ms("work", 0.5);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(reg.counter_value("shared"),
              int64_t{kThreads} * kIncrements);
    MetricSnapshot work = reg.timer_value("work");
    EXPECT_EQ(work.count, int64_t{kThreads} * kIncrements);
    EXPECT_DOUBLE_EQ(work.min, 0.5);
    EXPECT_DOUBLE_EQ(work.max, 0.5);
}

TEST(Metrics, ResetZeroesButKeepsCells)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter_add("events", 5);
    reg.gauge_set("ratio", 0.9);
    reg.timer_record_ms("lap", 3.0);
    reg.reset();
    EXPECT_EQ(reg.counter_value("events"), 0);
    EXPECT_DOUBLE_EQ(reg.gauge_value("ratio"), 0.0);
    EXPECT_EQ(reg.timer_value("lap").count, 0);
    // Cells survive a reset: writes after it still land.
    reg.counter_add("events", 2);
    EXPECT_EQ(reg.counter_value("events"), 2);
}

TEST(Metrics, KindsAreSortedAndExportersWellFormed)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter_add("z.counter", 1);
    reg.gauge_set("a.gauge", 2.0);
    reg.timer_record_ms("m.timer", 1.5);

    std::vector<MetricSnapshot> snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a.gauge");
    EXPECT_EQ(snap[1].name, "m.timer");
    EXPECT_EQ(snap[2].name, "z.counter");

    std::string json = reg.to_json();
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);

    std::string csv = reg.to_csv();
    EXPECT_NE(csv.find("name,kind,count,sum,min,max,mean"),
              std::string::npos);
    EXPECT_NE(csv.find("z.counter,counter,1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceSession / ScopedSpan

TEST(Trace, SpanNestingAndOrdering)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        ScopedSpan outer("outer", "test");
        {
            ScopedSpan inner("inner", "test");
        }
    }
    session.stop();

    std::vector<TraceEvent> events = session.events();
    ASSERT_EQ(events.size(), 2u);
    // Sorted by start time: outer opens first...
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].name, "inner");
    // ...and fully contains inner.
    EXPECT_LE(events[0].ts_us, events[1].ts_us);
    EXPECT_GE(events[0].ts_us + events[0].dur_us,
              events[1].ts_us + events[1].dur_us);
    session.clear();
}

TEST(Trace, InactiveSessionRecordsNothing)
{
    TraceSession &session = TraceSession::global();
    session.clear();
    ASSERT_FALSE(session.active());
    {
        ScopedSpan span("ignored", "test");
    }
    EXPECT_EQ(session.event_count(), 0u);
}

TEST(Trace, ChromeJsonIsWellFormed)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        ScopedSpan span("weird \"name\"\n", "cat");
    }
    std::thread worker([] { ScopedSpan span("worker-side", "cat"); });
    worker.join();
    session.stop();

    std::string json = session.to_chrome_json();
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("worker-side"), std::string::npos);
    session.clear();
}

TEST(Trace, ClearDropsEvents)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        ScopedSpan span("ephemeral", "test");
    }
    session.stop();
    ASSERT_GT(session.event_count(), 0u);
    session.clear();
    EXPECT_EQ(session.event_count(), 0u);
}

// ---------------------------------------------------------------------------
// MetricTimer

TEST(Metrics, MetricTimerRecordsScope)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    {
        MetricTimer t("scope_ms", reg);
    }
    EXPECT_EQ(reg.timer_value("scope_ms").count, 1);
}

// ---------------------------------------------------------------------------
// HistogramLayout / LogHistogram

TEST(Histogram, LayoutIndexIsMonotoneAndSelfConsistent)
{
    // Zero and negatives land in the dedicated bucket 0.
    EXPECT_EQ(HistogramLayout::bucket_index(0.0), 0);
    EXPECT_EQ(HistogramLayout::bucket_index(-3.5), 0);

    int prev = 0;
    for (double v = 1e-7; v < 1e7; v *= 1.03) {
        const int idx = HistogramLayout::bucket_index(v);
        EXPECT_GE(idx, prev) << "index not monotone at " << v;
        EXPECT_LT(idx, HistogramLayout::kNumBuckets);
        prev = idx;
        // The value must fall inside its bucket's bounds.
        EXPECT_LE(v, HistogramLayout::bucket_upper(idx));
        if (idx > 1) {
            EXPECT_GT(v, HistogramLayout::bucket_upper(idx - 1));
        }
    }

    // Extremes clamp into the edge buckets instead of overflowing.
    EXPECT_EQ(HistogramLayout::bucket_index(1e300),
              HistogramLayout::kNumBuckets - 1);
    EXPECT_EQ(HistogramLayout::bucket_index(1e-300), 1);
}

TEST(Histogram, BucketValueBoundsRelativeError)
{
    // The midpoint representative is within 1/64 of any sample in the
    // bucket — the documented ~2% bound (skip the clamped edges).
    for (double v = 1e-5; v < 1e5; v *= 1.017) {
        const int idx = HistogramLayout::bucket_index(v);
        if (idx <= 1 || idx >= HistogramLayout::kNumBuckets - 1)
            continue;
        const double rep = HistogramLayout::bucket_value(idx);
        EXPECT_NEAR(rep, v, v / 32.0)
            << "representative too far from " << v;
    }
}

TEST(Histogram, MomentsAndSingleSampleQuantiles)
{
    LogHistogram h;
    h.record(7.25);
    HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 1);
    EXPECT_DOUBLE_EQ(s.sum, 7.25);
    EXPECT_DOUBLE_EQ(s.min, 7.25);
    EXPECT_DOUBLE_EQ(s.max, 7.25);
    // Quantiles clamp into [min, max]: one sample reports exactly.
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.25);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.25);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.25);
}

TEST(Histogram, QuantilesWithinBucketError)
{
    LogHistogram h;
    // Uniform 1..1000: true quantile q is ~ 1000q.
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, 1000);
    for (double q : {0.10, 0.50, 0.90, 0.99}) {
        const double expect = 1000.0 * q;
        EXPECT_NEAR(s.quantile(q), expect, expect * 0.04 + 1.0)
            << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(Histogram, SnapshotMergeMatchesCombinedRecording)
{
    LogHistogram a, b, combined;
    for (int i = 1; i <= 100; ++i) {
        a.record(i);
        combined.record(i);
    }
    for (int i = 500; i <= 600; ++i) {
        b.record(i);
        combined.record(i);
    }
    HistogramSnapshot merged = a.snapshot();
    b.merge_into(merged);
    HistogramSnapshot direct = combined.snapshot();
    EXPECT_EQ(merged.count, direct.count);
    EXPECT_DOUBLE_EQ(merged.sum, direct.sum);
    EXPECT_DOUBLE_EQ(merged.min, direct.min);
    EXPECT_DOUBLE_EQ(merged.max, direct.max);
    EXPECT_DOUBLE_EQ(merged.quantile(0.5), direct.quantile(0.5));
}

// A snapshot racing record() must stay self-consistent: the count is
// what the /metrics exporter emits as the +Inf bucket, so it may never
// fall below the sum of the finite buckets read in the same snapshot.
TEST(Histogram, SnapshotCountMatchesBucketsWhileRecording)
{
    LogHistogram h;
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i)
            h.record(static_cast<double>(i % 1000) + 0.5);
    });
    int mismatches = 0;
    for (int i = 0; i < 20000; ++i) {
        const HistogramSnapshot snap = h.snapshot();
        uint64_t in_buckets = 0;
        for (uint64_t b : snap.buckets)
            in_buckets += b;
        if (static_cast<uint64_t>(snap.count) != in_buckets)
            ++mismatches;
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    EXPECT_EQ(mismatches, 0);
}

// ---------------------------------------------------------------------------
// kHistogram in the registry

TEST(Metrics, HistogramKindRecordsAndExports)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    for (int i = 1; i <= 100; ++i)
        reg.histogram_record("lat_ms", static_cast<double>(i));

    MetricSnapshot snap = reg.histogram_value("lat_ms");
    EXPECT_EQ(snap.kind, MetricKind::kHistogram);
    EXPECT_EQ(snap.count, 100);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 100.0);
    EXPECT_NEAR(snap.p50, 50.0, 3.0);
    EXPECT_NEAR(snap.p99, 99.0, 4.0);
    EXPECT_GE(snap.p999, snap.p99);
    EXPECT_FALSE(snap.buckets.empty());

    std::string json = reg.to_json();
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);

    std::string csv = reg.to_csv();
    EXPECT_NE(csv.find("name,kind,count,sum,min,max,mean,p50,p90,p99"),
              std::string::npos);
    EXPECT_NE(csv.find("lat_ms,histogram,100"), std::string::npos);
}

TEST(Metrics, HistogramResetZeroes)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.histogram_record("lat_ms", 5.0);
    reg.reset();
    EXPECT_EQ(reg.histogram_value("lat_ms").count, 0);
    reg.histogram_record("lat_ms", 2.0);
    EXPECT_EQ(reg.histogram_value("lat_ms").count, 1);
}

TEST(Metrics, ConcurrentHistogramsMergeExactly)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    constexpr int kThreads = 8;
    constexpr int kSamples = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, t] {
            // Distinct per-thread ranges so min/max are known.
            for (int i = 0; i < kSamples; ++i)
                reg.histogram_record(
                    "shared_hist",
                    1.0 + t * 100.0 + (i % 100));
        });
    }
    for (auto &th : threads)
        th.join();

    HistogramSnapshot s = reg.histogram_snapshot("shared_hist");
    EXPECT_EQ(s.count, int64_t{kThreads} * kSamples);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 1.0 + (kThreads - 1) * 100.0 + 99.0);
    // Merged quantiles stay within the documented bucket error: the
    // true median of the union is ~ kThreads*100/2.
    const double p50 = s.quantile(0.5);
    EXPECT_NEAR(p50, kThreads * 100.0 / 2.0, kThreads * 100.0 * 0.05);
}

// ---------------------------------------------------------------------------
// Flow events

TEST(Trace, FlowEventsExportConnectedArrows)
{
    TraceSession &session = TraceSession::global();
    session.start();
    {
        ScopedSpan producer("producer", "flowtest");
        session.record_flow("req", "flowtest", 's', 42);
    }
    std::thread consumer([&session] {
        ScopedSpan span("consumer", "flowtest");
        session.record_flow("req", "flowtest", 't', 42);
        session.record_flow("req", "flowtest", 'f', 42);
    });
    consumer.join();
    session.stop();

    int starts = 0, steps = 0, finishes = 0;
    for (const TraceEvent &ev : session.events()) {
        if (ev.name != "req")
            continue;
        EXPECT_EQ(ev.flow_id, 42u);
        if (ev.phase == 's')
            ++starts;
        else if (ev.phase == 't')
            ++steps;
        else if (ev.phase == 'f')
            ++finishes;
    }
    EXPECT_EQ(starts, 1);
    EXPECT_EQ(steps, 1);
    EXPECT_EQ(finishes, 1);

    std::string json = session.to_chrome_json();
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":42"), std::string::npos);
    session.clear();
}

TEST(Trace, FlowRecordingIsInactiveNoOp)
{
    TraceSession &session = TraceSession::global();
    session.clear();
    ASSERT_FALSE(session.active());
    session.record_flow("req", "flowtest", 's', 7);
    EXPECT_EQ(session.event_count(), 0u);
}

} // namespace
} // namespace mps
