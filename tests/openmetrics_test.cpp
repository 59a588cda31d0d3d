/**
 * Tests for the OpenMetrics exposition module: golden output format,
 * name/label escaping, inline-label registry names, the parser, the
 * strict validator, quantile reconstruction from bucket series, and
 * the GCN plan gauges and the epilogue batch counters reaching the
 * exposition.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "mps/core/fusion.h"
#include "mps/core/locality.h"
#include "mps/core/microkernel.h"
#include "mps/core/schedule.h"
#include "mps/gcn/gemm.h"
#include "mps/gcn/model.h"
#include "mps/sparse/generate.h"
#include "mps/util/metrics.h"
#include "mps/util/openmetrics.h"
#include "mps/util/rng.h"
#include "mps/util/work_steal_pool.h"

namespace mps {
namespace {

TEST(OpenMetricsName, SanitizesOutsideCharset)
{
    EXPECT_EQ(openmetrics_name("serve.request.latency_ms"),
              "serve_request_latency_ms");
    EXPECT_EQ(openmetrics_name("pool.worker.busy-seconds"),
              "pool_worker_busy_seconds");
    EXPECT_EQ(openmetrics_name("a:b_c9"), "a:b_c9"); // already legal
    EXPECT_EQ(openmetrics_name("9lives"), "_9lives"); // no leading digit
}

TEST(OpenMetricsName, LabelEscape)
{
    EXPECT_EQ(openmetrics_label_escape("plain"), "plain");
    EXPECT_EQ(openmetrics_label_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(openmetrics_label_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(openmetrics_label_escape("a\nb"), "a\\nb");
}

TEST(OpenMetrics, GoldenFormatForEveryKind)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.counter_add("events", 4);
    reg.gauge_set("queue.depth", 7.0);
    reg.timer_record_ms("lap_ms", 2.0);
    reg.timer_record_ms("lap_ms", 4.0);
    reg.histogram_record("lat_ms", 1.0);
    reg.histogram_record("lat_ms", 100.0);

    const std::string text = to_openmetrics(reg);

    // HELP/TYPE headers precede every family.
    EXPECT_NE(text.find("# TYPE events counter"), std::string::npos);
    EXPECT_NE(text.find("# HELP events "), std::string::npos);
    EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lap_ms summary"), std::string::npos);
    EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);

    // Counter gets _total; timer gets _count/_sum; histogram gets
    // cumulative _bucket plus the mandatory +Inf and _sum/_count.
    EXPECT_NE(text.find("events_total 4"), std::string::npos);
    EXPECT_NE(text.find("queue_depth 7"), std::string::npos);
    EXPECT_NE(text.find("lap_ms_count 2"), std::string::npos);
    EXPECT_NE(text.find("lap_ms_sum 6"), std::string::npos);
    EXPECT_NE(text.find("lat_ms_bucket{le=\""), std::string::npos);
    EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("lat_ms_sum 101"), std::string::npos);
    EXPECT_NE(text.find("lat_ms_count 2"), std::string::npos);

    // Terminated by # EOF, and the strict validator accepts it.
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
    std::string error;
    EXPECT_TRUE(validate_openmetrics(text, &error)) << error;
}

TEST(OpenMetrics, InlineLabelsSplitIntoFamilyAndLabels)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.gauge_set("pool.worker.busy_seconds{worker=\"3\"}", 1.5);
    reg.gauge_set("pool.worker.busy_seconds{worker=\"11\"}", 2.5);

    const std::string text = to_openmetrics(reg);
    std::string error;
    ASSERT_TRUE(validate_openmetrics(text, &error)) << error;

    OpenMetricsText doc = parse_openmetrics(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    const OpenMetricsSample *w3 =
        doc.find("pool_worker_busy_seconds", {{"worker", "3"}});
    ASSERT_NE(w3, nullptr);
    EXPECT_DOUBLE_EQ(w3->value, 1.5);
    const OpenMetricsSample *w11 =
        doc.find("pool_worker_busy_seconds", {{"worker", "11"}});
    ASSERT_NE(w11, nullptr);
    EXPECT_DOUBLE_EQ(w11->value, 2.5);
    // One shared family, declared once.
    EXPECT_EQ(doc.types["pool_worker_busy_seconds"], "gauge");
}

/**
 * GcnModel explains its plan on /metrics: each layer's association
 * order and sparse width, whether its XW product runs on the AMX
 * tiles, and the panel width and lookahead of its fused sweeps, as
 * gauges set when it prepares a graph; microkernel.amx shows whether
 * the host granted the tiles. An f32 model and an aggregate-first
 * layer 0 never use them; a bf16 32-32-8 model's layer 0 does wherever
 * the host grants them.
 */
TEST(OpenMetrics, GcnPlanGaugesAppear)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);
    WorkStealPool pool(2);
    CsrMatrix a = erdos_renyi_graph(150, 900, 3);
    a.normalize_gcn();
    DenseMatrix x(a.rows(), 16);
    Pcg32 rng(4);
    x.fill_random(rng);
    GcnModel model = GcnModel::two_layer(16, 64, 8, 5);
    model.infer(a, x, pool);
    const std::string text = to_openmetrics(metrics);
    metrics.set_enabled(false);
    metrics.reset();
    // Each f32 layer's lookahead, at the width it sweeps: layer 0
    // aggregates first at 16 columns, layer 1 combines first at 8.
    const auto prefetch = [&a](index_t width) {
        return static_cast<double>(
            default_fused_locality(a.cols(), width,
                                   storage_elem_bytes(StorageMode::kF32))
                .prefetch);
    };
    const double lanes =
        microkernel_default_path() == MicrokernelPath::kSimd
            ? static_cast<double>(microkernel_vector_width())
            : 1.0;

    std::string error;
    ASSERT_TRUE(validate_openmetrics(text, &error)) << error;
    OpenMetricsText doc = parse_openmetrics(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    struct Gauge
    {
        const char *name;
        double value;
    };
    const double amx = amx_tiles_granted() ? 1.0 : 0.0;
    std::vector<Gauge> want = {{"gcn_layer0_aggregate_first", 1.0},
                               {"gcn_layer0_sparse_width", 16.0},
                               {"gcn_layer0_gemm_amx", 0.0},
                               {"gcn_layer0_rank_amx", 0.0},
                               {"gcn_layer1_aggregate_first", 0.0},
                               {"gcn_layer1_sparse_width", 8.0},
                               {"gcn_layer1_gemm_amx", 0.0},
                               {"gcn_layer1_rank_amx", 0.0},
                               {"microkernel_vector_width", lanes},
                               {"microkernel_amx", amx}};
    // MPS_FUSE=0 runs no fused plan, so no layer publishes its panel
    // width or lookahead.
    if (fusion_enabled()) {
        want.push_back({"gcn_layer0_tile_d", 16.0});
        want.push_back({"gcn_layer0_prefetch_distance", prefetch(16)});
        want.push_back({"gcn_layer1_tile_d", 8.0});
        want.push_back({"gcn_layer1_prefetch_distance", prefetch(8)});
    } else {
        EXPECT_EQ(doc.find("gcn_layer0_tile_d", {}), nullptr);
    }
    const auto expect_gauges = [](OpenMetricsText &parsed,
                                  const std::vector<Gauge> &gauges) {
        for (const auto &w : gauges) {
            const OpenMetricsSample *sample = parsed.find(w.name, {});
            ASSERT_NE(sample, nullptr) << w.name;
            EXPECT_DOUBLE_EQ(sample->value, w.value) << w.name;
            EXPECT_EQ(parsed.types[w.name], "gauge") << w.name;
        }
    };
    expect_gauges(doc, want);

    metrics.reset();
    metrics.set_enabled(true);
    DenseMatrix x32(a.rows(), 32);
    x32.fill_random(rng);
    GcnModel bf16 = GcnModel::two_layer(32, 32, 8, 5);
    bf16.set_precision(StorageMode::kBf16);
    bf16.infer(a, x32, pool);
    const std::string bf16_text = to_openmetrics(metrics);
    metrics.set_enabled(false);
    metrics.reset();
    OpenMetricsText bf16_doc = parse_openmetrics(bf16_text, &error);
    ASSERT_TRUE(error.empty()) << error;
    // The gauge tells whether layer 1's operand came from the tile
    // rank update, which the handoff's storage shows.
    const bool rank_amx = fusion_enabled() && !bf16.handoff(0).has_f32();
    std::vector<Gauge> bf16_want = {
        {"gcn_layer0_aggregate_first", 0.0},
        {"gcn_layer0_gemm_amx", amx_gemm_enabled() ? 1.0 : 0.0},
        {"gcn_layer0_rank_amx", rank_amx ? 1.0 : 0.0},
        {"gcn_layer1_gemm_amx", 0.0},
        {"gcn_layer1_rank_amx", 0.0},
        {"microkernel_amx", amx}};
    // Layer 0 streams its 32 columns in panels of the width its bf16
    // plan resolves: one panel unless MPS_TILE_D narrows it.
    if (fusion_enabled())
        bf16_want.push_back(
            {"gcn_layer0_tile_d",
             static_cast<double>(fused_tile_width(
                 a.cols(), 32, storage_elem_bytes(StorageMode::kBf16)))});
    expect_gauges(bf16_doc, bf16_want);
}

/**
 * The batched commit epilogue's fill reaches /metrics: every row of an
 * aggregate-first sweep is counted once in fusion.epilogue_rows, and
 * fusion.epilogue_calls counts the batches that carried them, at most
 * kEpilogueBatchRows rows each.
 */
TEST(OpenMetrics, EpilogueBatchCountersAppear)
{
    MetricsRegistry &metrics = MetricsRegistry::global();
    metrics.reset();
    metrics.set_enabled(true);
    WorkStealPool pool(2);
    CsrMatrix a = erdos_renyi_graph(150, 900, 3);
    a.normalize_gcn();
    DenseMatrix x(a.rows(), 16), w(16, 24);
    Pcg32 rng(4);
    x.fill_random(rng);
    w.fill_random(rng);
    const MergePathSchedule sched = MergePathSchedule::build(a, 64);
    FusedLayerPlan plan(a, 16, borrow_schedule(sched), SpmmLocality{});
    DenseMatrix h(a.rows(), 24);
    const CombineEpilogue combine =
        make_combine_epilogue(Activation::kRelu, w, h, nullptr);
    plan.run_streaming(slice_panel_source(x), {}, pool,
                       &CombineEpilogue::apply, &combine);
    const std::string text = to_openmetrics(metrics);
    metrics.set_enabled(false);
    metrics.reset();

    std::string error;
    ASSERT_TRUE(validate_openmetrics(text, &error)) << error;
    OpenMetricsText doc = parse_openmetrics(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    const OpenMetricsSample *rows =
        doc.find("fusion_epilogue_rows_total", {});
    const OpenMetricsSample *calls =
        doc.find("fusion_epilogue_calls_total", {});
    ASSERT_NE(rows, nullptr);
    ASSERT_NE(calls, nullptr);
    EXPECT_EQ(doc.types["fusion_epilogue_rows"], "counter");
    EXPECT_EQ(doc.types["fusion_epilogue_calls"], "counter");
    EXPECT_DOUBLE_EQ(rows->value, static_cast<double>(a.rows()));
    EXPECT_GE(calls->value * kEpilogueBatchRows, rows->value);
    EXPECT_LT(calls->value, rows->value); // rows did share calls
}

TEST(OpenMetrics, LabelValuesRoundTripThroughEscaping)
{
    MetricsRegistry reg;
    reg.set_enabled(true);
    reg.gauge_set("g{tenant=\"a\\b\"}", 1.0);

    const std::string text = to_openmetrics(reg);
    // The backslash must be escaped on the wire...
    EXPECT_NE(text.find("tenant=\"a\\\\b\""), std::string::npos) << text;
    std::string error;
    ASSERT_TRUE(validate_openmetrics(text, &error)) << text << error;
    // ...and unescaped back by the parser.
    OpenMetricsText doc = parse_openmetrics(text, &error);
    const OpenMetricsSample *s = doc.find("g");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->labels.at("tenant"), "a\\b");
}

TEST(OpenMetrics, ParserHandlesTimestampsAndSpecialValues)
{
    const std::string text = "# TYPE x gauge\n"
                             "x 1.5 1700000000\n"
                             "y +Inf\n"
                             "z NaN\n"
                             "# EOF\n";
    std::string error;
    OpenMetricsText doc = parse_openmetrics(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_EQ(doc.samples.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.samples[0].value, 1.5);
    EXPECT_TRUE(std::isinf(doc.samples[1].value));
    EXPECT_TRUE(std::isnan(doc.samples[2].value));
}

TEST(OpenMetrics, ValidatorRejectsMalformedDocuments)
{
    std::string error;
    // Missing # EOF.
    EXPECT_FALSE(validate_openmetrics("x 1\n", &error));
    EXPECT_NE(error.find("EOF"), std::string::npos);
    // Garbage sample line.
    EXPECT_FALSE(validate_openmetrics("{oops} 1\n# EOF\n", &error));
    // Unterminated label block.
    EXPECT_FALSE(validate_openmetrics("x{a=\"b\" 1\n# EOF\n", &error));
    // Missing value.
    EXPECT_FALSE(validate_openmetrics("x\n# EOF\n", &error));
    // Content after the terminator.
    EXPECT_FALSE(validate_openmetrics("# EOF\nx 1\n", &error));
}

TEST(OpenMetrics, ValidatorRejectsNonCumulativeBuckets)
{
    const std::string bad = "h_bucket{le=\"1\"} 5\n"
                            "h_bucket{le=\"2\"} 3\n"
                            "h_bucket{le=\"+Inf\"} 5\n"
                            "# EOF\n";
    std::string error;
    EXPECT_FALSE(validate_openmetrics(bad, &error));
    EXPECT_NE(error.find("non-cumulative"), std::string::npos);

    const std::string good = "h_bucket{le=\"1\"} 3\n"
                             "h_bucket{le=\"2\"} 5\n"
                             "h_bucket{le=\"+Inf\"} 5\n"
                             "# EOF\n";
    EXPECT_TRUE(validate_openmetrics(good, &error)) << error;
}

TEST(OpenMetrics, HistogramQuantileReconstruction)
{
    // Round-trip: record a known distribution, export, parse, and ask
    // the parsed document for quantiles.
    MetricsRegistry reg;
    reg.set_enabled(true);
    for (int i = 1; i <= 1000; ++i)
        reg.histogram_record("lat_ms", static_cast<double>(i));

    std::string error;
    OpenMetricsText doc = parse_openmetrics(to_openmetrics(reg), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_DOUBLE_EQ(doc.value_or("lat_ms_count"), 1000.0);
    for (double q : {0.50, 0.90, 0.99}) {
        const double expect = 1000.0 * q;
        EXPECT_NEAR(doc.histogram_quantile("lat_ms", q), expect,
                    expect * 0.05 + 1.0)
            << "q=" << q;
    }
    // Absent family reports 0, not garbage.
    EXPECT_DOUBLE_EQ(doc.histogram_quantile("nope", 0.5), 0.0);
}

} // namespace
} // namespace mps
