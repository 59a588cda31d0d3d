/** Tests for the util module: stats, RNG, CLI, tables. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "mps/util/cli.h"
#include "mps/util/rng.h"
#include "mps/util/stats.h"
#include "mps/util/table.h"
#include "mps/util/timer.h"

namespace mps {
namespace {

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    // Geomean of reciprocals is the reciprocal of the geomean.
    double g = geomean({1.5, 2.5, 0.4});
    double gr = geomean({1 / 1.5, 1 / 2.5, 1 / 0.4});
    EXPECT_NEAR(g * gr, 1.0, 1e-12);
}

TEST(Stats, StddevAndCv)
{
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0,
                1e-12);
    EXPECT_DOUBLE_EQ(coefficient_of_variation({3.0, 3.0, 3.0}), 0.0);
    EXPECT_GT(coefficient_of_variation({1.0, 100.0}), 0.9);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs{9.0, 1.0, 5.0, 3.0, 7.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 9.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile({42.0}, 73.0), 42.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks)
{
    // rank = p/100 * (n-1); p=10 over 5 samples -> rank 0.4, so the
    // result interpolates 40% of the way from 1 to 3.
    std::vector<double> xs{1.0, 3.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 10.0), 1.8);
    EXPECT_DOUBLE_EQ(percentile(xs, 90.0), 8.2);
    // Two samples: p50 is their midpoint.
    EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 50.0), 15.0);
    EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 75.0), 17.5);
}

TEST(Stats, PercentileWithTies)
{
    // Ties must not confuse rank selection; every percentile between
    // tied ranks is the tied value.
    std::vector<double> xs{4.0, 4.0, 4.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 99.0), 4.0);
    std::vector<double> ys{1.0, 2.0, 2.0, 2.0, 9.0};
    EXPECT_DOUBLE_EQ(percentile(ys, 50.0), 2.0);
    EXPECT_DOUBLE_EQ(percentile(ys, 25.0), 2.0);
}

TEST(Stats, SummarizePercentilesKnownInputs)
{
    // 1..101 in scrambled order: p-th percentile is exactly p + 1.
    std::vector<double> xs;
    for (int i = 101; i >= 1; --i)
        xs.push_back(static_cast<double>(i));
    PercentileSummary s = summarize_percentiles(xs);
    EXPECT_EQ(s.count, 101);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 101.0);
    EXPECT_DOUBLE_EQ(s.mean, 51.0);
    EXPECT_DOUBLE_EQ(s.p50, 51.0);
    EXPECT_DOUBLE_EQ(s.p95, 96.0);
    EXPECT_DOUBLE_EQ(s.p99, 100.0);
}

TEST(Stats, SummarizePercentilesSingleSampleAndEmpty)
{
    PercentileSummary one = summarize_percentiles({7.5});
    EXPECT_EQ(one.count, 1);
    EXPECT_DOUBLE_EQ(one.mean, 7.5);
    EXPECT_DOUBLE_EQ(one.min, 7.5);
    EXPECT_DOUBLE_EQ(one.max, 7.5);
    EXPECT_DOUBLE_EQ(one.p50, 7.5);
    EXPECT_DOUBLE_EQ(one.p95, 7.5);
    EXPECT_DOUBLE_EQ(one.p99, 7.5);

    PercentileSummary none = summarize_percentiles({});
    EXPECT_EQ(none.count, 0);
    EXPECT_DOUBLE_EQ(none.mean, 0.0);
    EXPECT_DOUBLE_EQ(none.p50, 0.0);
    EXPECT_DOUBLE_EQ(none.p99, 0.0);
}

TEST(Stats, Log2Histogram)
{
    Log2Histogram h;
    h.add(0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(1024);
    EXPECT_EQ(h.zero_count(), 1u);
    EXPECT_EQ(h.bin_count(0), 1u); // [1,1]
    EXPECT_EQ(h.bin_count(1), 2u); // [2,3]
    EXPECT_EQ(h.bin_count(10), 1u);
    EXPECT_EQ(h.max_bin(), 10);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_FALSE(h.to_string().empty());
}

TEST(Rng, DeterministicAcrossInstances)
{
    Pcg32 a(123, 7), b(123, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, StreamsDiffer)
{
    Pcg32 a(123, 1), b(123, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next_u32() == b.next_u32();
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform)
{
    Pcg32 rng(99);
    std::vector<int> counts(10, 0);
    const int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
        uint32_t v = rng.next_below(10);
        ASSERT_LT(v, 10u);
        ++counts[v];
    }
    for (int c : counts) {
        EXPECT_GT(c, kDraws / 10 * 0.9);
        EXPECT_LT(c, kDraws / 10 * 1.1);
    }
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Pcg32 rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.next_double();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitmixAdvancesState)
{
    uint64_t s = 42;
    uint64_t a = splitmix64(s);
    uint64_t b = splitmix64(s);
    EXPECT_NE(a, b);
}

TEST(Cli, ParsesAllTypes)
{
    FlagParser p("test");
    p.add_int("count", 3, "a count");
    p.add_double("ratio", 0.5, "a ratio");
    p.add_string("name", "x", "a name");
    p.add_bool("verbose", false, "a switch");
    const char *argv[] = {"prog",           "--count=7", "--ratio", "2.25",
                          "--name=hello",   "--verbose", "positional"};
    p.parse(7, const_cast<char **>(argv));
    EXPECT_EQ(p.get_int("count"), 7);
    EXPECT_DOUBLE_EQ(p.get_double("ratio"), 2.25);
    EXPECT_EQ(p.get_string("name"), "hello");
    EXPECT_TRUE(p.get_bool("verbose"));
    ASSERT_EQ(p.positional().size(), 1u);
    EXPECT_EQ(p.positional()[0], "positional");
}

TEST(Cli, DefaultsSurviveParse)
{
    FlagParser p("test");
    p.add_int("count", 3, "a count");
    const char *argv[] = {"prog"};
    p.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(p.get_int("count"), 3);
}

TEST(Cli, UsageMentionsFlags)
{
    FlagParser p("my tool");
    p.add_int("alpha", 1, "alpha help");
    std::string u = p.usage("prog");
    EXPECT_NE(u.find("--alpha"), std::string::npos);
    EXPECT_NE(u.find("alpha help"), std::string::npos);
    EXPECT_NE(u.find("my tool"), std::string::npos);
}

TEST(Table, TextRenderingAligns)
{
    Table t({"graph", "speedup"});
    t.new_row();
    t.add("Cora");
    t.add(1.8512, 2);
    t.new_row();
    t.add("a-much-longer-name");
    t.add_int(7);
    std::string text = t.to_text();
    EXPECT_NE(text.find("graph"), std::string::npos);
    EXPECT_NE(text.find("1.85"), std::string::npos);
    EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvEscapesSpecials)
{
    Table t({"name", "note"});
    t.new_row();
    t.add("a,b");
    t.add("say \"hi\"");
    std::string csv = t.to_csv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Timer, MeasuresForwardTime)
{
    Timer timer;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + std::sqrt(static_cast<double>(i));
    EXPECT_GE(timer.elapsed_seconds(), 0.0);
    EXPECT_GE(timer.elapsed_us(), 0.0);
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(format_double(1.23456, 2), "1.23");
    EXPECT_EQ(format_double(2.0, 0), "2");
}

} // namespace
} // namespace mps
