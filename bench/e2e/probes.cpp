/**
 * @file
 * Per-layer probes of the traced run. Each probe is the benchmark's own
 * call into one module's public function, wrapped in a ScopedSpan; the
 * reported numbers are span medians read back from the TraceSession.
 * Calls too short for one span to time (pool dispatch, cache lookup,
 * plan construction) run in batches of kBatch under one span.
 */
#include <algorithm>
#include <memory>
#include <string>

#include "e2e.h"
#include "mps/core/fusion.h"
#include "mps/core/policy.h"
#include "mps/core/precision.h"
#include "mps/core/schedule.h"
#include "mps/core/schedule_cache.h"
#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/kernels/registry.h"
#include "mps/util/timer.h"
#include "mps/util/work_steal_pool.h"

namespace mps::e2e {

namespace {

constexpr int kBatch = 100;
constexpr uint64_t kDeltaStream = 7;

std::string
layer_span(const char *stage, size_t l)
{
    return std::string(stage) + ".l" + std::to_string(l + 1);
}

/** Run @p fn until @p seconds pass (at least min_reps, at most max_reps). */
template <class Fn>
void
repeat_for(double seconds, int min_reps, int max_reps, const Fn &fn)
{
    Timer timer;
    for (int r = 0; r < max_reps; ++r) {
        if (r >= min_reps && timer.elapsed_seconds() >= seconds)
            break;
        fn();
    }
}

} // namespace

void
run_layer_probes(const ModelInputs &in, const Reference &ref, index_t batch,
                 unsigned pool_threads, double budget_s, uint64_t seed,
                 WorkStealPool &pool, Record &rec)
{
    const CsrMatrix &a = in.graph;
    const index_t n = a.rows();
    const std::vector<GcnLayer> &layers = in.layers;
    const size_t nl = layers.size();
    const double tol = rel_err_tolerance(in.precision);

    // Kernels as GcnModel builds them, sharing one warm schedule cache.
    ScheduleCache cache;
    std::vector<std::unique_ptr<SpmmKernel>> kernels;
    for (const GcnLayer &layer : layers) {
        kernels.push_back(make_spmm_kernel("mergepath"));
        kernels.back()->set_schedule_cache(&cache);
        kernels.back()->prepare(a, layer.out_features());
    }

    // --- Unfused replay: GcnLayer::forward's classic branch. Buffers are
    // allocated once, outside the replay span, so the span's time is
    // the calls' time.
    std::vector<DenseMatrix> xw, out;
    for (const GcnLayer &layer : layers) {
        xw.emplace_back(n, layer.out_features());
        out.emplace_back(n, layer.out_features());
    }
    repeat_for(0.35 * budget_s, 3, 50, [&] {
        {
            ScopedSpan replay("bench.replay", "bench");
            const DenseMatrix *cur = &in.features;
            for (size_t l = 0; l < nl; ++l) {
                {
                    ScopedSpan s(layer_span("replay.gemm", l), "bench");
                    dense_gemm(*cur, layers[l].weights(), xw[l], pool);
                }
                if (in.precision != StorageMode::kF32) {
                    ScopedSpan s(layer_span("replay.quantize", l), "bench");
                    quantize_dense(xw[l], in.precision, &pool);
                }
                {
                    ScopedSpan s(layer_span("replay.spmm", l), "bench");
                    kernels[l]->run(a, xw[l], out[l], pool);
                }
                {
                    ScopedSpan s(layer_span("replay.activation", l), "bench");
                    apply_activation(out[l], layers[l].activation());
                }
                cur = &out[l];
            }
        }
        ++rec.attempted;
        if (!(rel_err(out.back(), ref) <= tol))
            ++rec.failed;
    });
    if (in.precision == StorageMode::kF32) {
        // Off this workload's path: what switching to bf16 would add.
        repeat_for(0.0, 3, 3, [&] {
            for (size_t l = 0; l < nl; ++l) {
                {
                    ScopedSpan s(layer_span("probe.quantize", l), "bench");
                    quantize_dense(xw[l], StorageMode::kBf16, &pool);
                }
                quantize_dense(xw[l], StorageMode::kF32);
            }
        });
    }

    // --- Fused forward, issued exactly as GcnModel::fused_infer does.
    std::vector<FusedLayerPlan *> plans;
    for (size_t l = 0; l < nl; ++l) {
        plans.push_back(kernels[l]->fused_plan(a, layers[l].out_features()));
        plans.back()->set_precision(in.precision);
    }
    repeat_for(0.35 * budget_s, 3, 50, [&] {
        DenseMatrix result;
        {
            ScopedSpan fused("bench.fused", "bench");
            DenseMatrix xw_cur;
            for (size_t l = 0; l < nl; ++l) {
                ScopedSpan s(layer_span("fused", l), "bench");
                const PanelSourceFn src =
                    l == 0 ? gemm_panel_source(in.features,
                                               layers[0].weights(), pool,
                                               plans[0]->gemm_scratch())
                           : slice_panel_source(xw_cur);
                if (l + 1 < nl) {
                    DenseMatrix xw_next(n, layers[l + 1].out_features());
                    xw_next.fill(0.0f);
                    RankUpdateEpilogue rank = make_rank_update_epilogue(
                        layers[l].activation(), layers[l + 1].weights(),
                        xw_next, plans[l]->locality().row_scatter);
                    plans[l]->run_streaming(
                        src,
                        [&rank](index_t col0, index_t width,
                                const DenseMatrix &) {
                            rank.w_row0 = col0 + width;
                        },
                        pool, &RankUpdateEpilogue::apply, &rank);
                    xw_cur = std::move(xw_next);
                } else {
                    result = DenseMatrix(n, layers[l].out_features());
                    plans[l]->run(src, result, pool,
                                  activation_epilogue(layers[l].activation()));
                }
            }
        }
        ++rec.attempted;
        if (!(rel_err(result, ref) <= tol))
            ++rec.failed;
    });

    int64_t split_rows = 0, atomic_commits = 0, writes = 0;
    for (size_t l = 0; l < nl; ++l) {
        const index_t dim = layers[l].out_features();
        split_rows += static_cast<int64_t>(plans[l]->shared_rows().size());
        const ScheduleCensus census = cache.census_with_cost(
            a, default_merge_path_cost(dim), 1024);
        atomic_commits += census.atomic_commits;
        writes += census.atomic_commits + census.plain_row_writes;
    }

    // --- Cold schedule work a set-up pays.
    repeat_for(0.05 * budget_s, 3, 20, [&] {
        ScopedSpan s("probe.schedule_build", "bench");
        for (const GcnLayer &layer : layers)
            MergePathSchedule::build_with_cost(
                a, default_merge_path_cost(layer.out_features()), 1024);
    });
    repeat_for(0.05 * budget_s, 3, 20, [&] {
        ScheduleCache fresh;
        std::vector<std::unique_ptr<SpmmKernel>> cold;
        for (size_t l = 0; l < nl; ++l) {
            cold.push_back(make_spmm_kernel("mergepath"));
            cold.back()->set_schedule_cache(&fresh);
        }
        ScopedSpan s("probe.prepare", "bench");
        for (size_t l = 0; l < nl; ++l)
            cold[l]->prepare(a, layers[l].out_features());
    });
    // The serve executor's per-batch schedule work runs at the batch
    // width k * hidden.
    const index_t width = batch * layers[0].out_features();
    const index_t cost = default_merge_path_cost(width);
    repeat_for(0.05 * budget_s, 3, 20, [&] {
        ScheduleCache fresh;
        ScopedSpan s("probe.hybrid_build", "bench");
        fresh.get_or_build_hybrid(a, cost, 0);
    });
    cache.get_or_build_hybrid(a, cost, 0);
    const auto sched = cache.get_or_build_with_cost(a, cost, 0);
    repeat_for(0.0, 5, 5, [&] {
        ScopedSpan s("probe.cache_lookup", "bench");
        for (int i = 0; i < kBatch; ++i) {
            cache.get_or_build_hybrid(a, cost, 0);
            cache.get_or_build_with_cost(a, cost, 0);
        }
    });
    const SpmmLocality loc = default_fused_locality(
        a.cols(), width, storage_elem_bytes(in.precision));
    repeat_for(0.0, 5, 5, [&] {
        ScopedSpan s("probe.plan_build", "bench");
        for (int i = 0; i < kBatch; ++i)
            FusedLayerPlan plan(a, width, sched, loc);
    });
    {
        WorkStealPool dispatch_pool(pool_threads);
        repeat_for(0.0, 5, 5, [&] {
            ScopedSpan s("probe.pool_dispatch", "bench");
            for (int i = 0; i < kBatch; ++i)
                dispatch_pool.parallel_for(64, [](uint64_t) {});
        });
    }

    // --- Dynamic-graph layers on a replica: hot-tail deltas land in the
    // overlay, the correction pass runs at the batch width, compaction
    // swaps the base, and the schedule is repaired across it.
    {
        DeltaCsr replica(a);
        Pcg32 rng(derive_seed(seed, kDeltaStream));
        const index_t hot_begin = n - std::max<index_t>(1, n / 10);
        MergePathSchedule base_sched =
            MergePathSchedule::build_with_cost(a, cost, 0);
        DenseMatrix b(n, width), c(n, width);
        b.fill_random(rng);
        const SpmmLocality dloc = default_spmm_locality(n, width);
        repeat_for(0.1 * budget_s, 3, 10, [&] {
            for (int u = 0; u < 32; ++u) {
                const GraphDelta delta =
                    hot_tail_delta(rng, n, a.cols(), hot_begin, 256);
                ScopedSpan s("probe.delta_apply", "bench");
                replica.apply(delta);
            }
            {
                ScopedSpan s("probe.delta_correction", "bench");
                delta_correction_pass(replica, b, c, pool, dloc);
            }
            DeltaCsr::CompactResult cr;
            {
                ScopedSpan s("probe.delta_compact", "bench");
                cr = replica.compact();
            }
            ScheduleRepair rep = [&] {
                ScopedSpan s("probe.schedule_repair", "bench");
                return repair_schedule(base_sched, *cr.old_base,
                                       *cr.new_base, cr.first_dirty_row);
            }();
            base_sched = std::move(rep.schedule);
        });
    }

    // --- Read the spans back.
    const std::vector<TraceEvent> ev = TraceSession::global().events();
    int64_t replays = 0, fused_runs = 0;
    const double replay_ms = span_median_ms(ev, "bench.replay", &replays);
    const double fused_ms = span_median_ms(ev, "bench.fused", &fused_runs);
    double gemm_ms = 0.0, spmm_ms = 0.0, act_ms = 0.0, quant_ms = 0.0;
    double flops = 0.0, bytes = 0.0, covered = 0.0;
    const double elem = storage_elem_bytes(in.precision);
    const double nnz = static_cast<double>(a.nnz());
    for (size_t l = 0; l < nl; ++l) {
        const double f = layers[l].in_features();
        const double h = layers[l].out_features();
        const double g = span_median_ms(ev, layer_span("replay.gemm", l));
        const double sp = span_median_ms(ev, layer_span("replay.spmm", l));
        rec.add("gcn.gemm_ms" + layer_span("", l), g, "ms", replays);
        rec.add("core.spmm_ms" + layer_span("", l), sp, "ms", replays);
        rec.add("gcn.fused_ms" + layer_span("", l),
                span_median_ms(ev, layer_span("fused", l)), "ms", fused_runs);
        gemm_ms += g;
        spmm_ms += sp;
        act_ms += span_median_ms(ev, layer_span("replay.activation", l));
        quant_ms += span_median_ms(
            ev, layer_span(in.precision == StorageMode::kF32
                               ? "probe.quantize"
                               : "replay.quantize",
                           l));
        flops += 2.0 * n * f * h;
        // Computed, not counted: CSR + gathered B rows + C write.
        bytes += (n + 1) * 4.0 + nnz * 8.0 + nnz * h * elem + n * h * 4.0;
        for (const char *stage : {"replay.gemm", "replay.quantize",
                                  "replay.spmm", "replay.activation"})
            covered += span_total_ms(ev, layer_span(stage, l));
    }
    rec.add("gcn.gemm_gflops", flops / (gemm_ms * 1e6), "GFLOP/s", replays);
    rec.add("gcn.activation_ms", act_ms, "ms", replays);
    rec.add("gcn.replay_ms", replay_ms, "ms", replays);
    rec.add("gcn.fusion_saving_ms", replay_ms - fused_ms, "ms", replays);
    rec.add("core.spmm_gbps_computed", bytes / (spmm_ms * 1e6), "GB/s",
            replays);
    rec.add("core.split_rows", static_cast<double>(split_rows), "count");
    rec.add("core.atomic_commit_frac",
            writes == 0 ? 0.0 : static_cast<double>(atomic_commits) / writes,
            "ratio");
    rec.add("core.quantize_ms", quant_ms, "ms",
            in.precision == StorageMode::kF32 ? 3 : replays);
    rec.add("bench.replay_coverage",
            covered / span_total_ms(ev, "bench.replay"), "ratio", replays);

    // Median span time per call; batched spans time kBatch calls each.
    const auto add_span = [&](const std::string &name, const char *span,
                              bool us, int calls_per_span) {
        int64_t spans = 0;
        const double ms = span_median_ms(ev, span, &spans);
        rec.add(name, (us ? 1e3 : 1.0) * ms / calls_per_span,
                us ? "us" : "ms", spans * calls_per_span);
    };
    add_span("core.schedule_build_ms", "probe.schedule_build", false, 1);
    add_span("kernels.prepare_ms", "probe.prepare", false, 1);
    add_span("core.hybrid_build_ms", "probe.hybrid_build", false, 1);
    add_span("core.cache_lookup_us", "probe.cache_lookup", true, kBatch);
    add_span("core.plan_build_us", "probe.plan_build", true, kBatch);
    add_span("util.pool_dispatch_us", "probe.pool_dispatch", true, kBatch);
    add_span("sparse.delta_apply_us", "probe.delta_apply", true, 1);
    add_span("sparse.delta_compact_ms", "probe.delta_compact", false, 1);
    add_span("core.schedule_repair_us", "probe.schedule_repair", true, 1);
    add_span("core.delta_correction_ms", "probe.delta_correction", false, 1);
}

} // namespace mps::e2e
