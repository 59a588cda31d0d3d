/**
 * @file
 * Operator-fusion study: the panel-streaming fused pipeline
 * (mps/core/fusion.h) against the classic unfused
 * GEMM -> materialize XW -> SpMM -> activation execution, on a 2-layer
 * GCN (f=32 -> hidden=128 ReLU -> classes=32) over a power-law graph
 * whose n x d temporaries exceed the caches.
 *
 * Both paths are timed exactly as they ship: the unfused side
 * replays GcnLayer::forward / GcnModel::infer's classic loop —
 * allocating and zero-filling each n x d temporary per call, the
 * materialization tax MPS_FUSE=0 actually pays — and the fused side
 * replays the plan construction, panel buffers and streaming chain of
 * GcnModel::fused_infer. Three timed comparisons, best-of-reps each:
 *
 *  - layer 1 (d = hidden): unfused alloc-XW + dense_gemm +
 *    locality-tuned SpMM + apply_activation vs one
 *    FusedLayerPlan::run() with the ReLU folded into the commit sweep;
 *  - layer 2 (d = classes): same shape study on the narrow layer;
 *  - end-to-end: the full unfused 2-layer forward vs the streaming
 *    pipeline (layer 1's output panels rank-update layer 2's
 *    combination while cache-resident — neither XW1, H1 nor the full
 *    XW2 write/read round trip is paid).
 *
 * Alongside wall time a DRAM-traffic proxy is reported: the bytes the
 * n x d temporaries stream through memory in each path, counting one
 * compulsory trip per produce/consume of a matrix that cannot be
 * cache-resident and zero for panels that are (panel residency is what
 * auto_fused_tile_d guarantees). CSR, features and weights are
 * identical in both paths and excluded. The model is a proxy, not a
 * counter measurement — it bounds what fusion can save and the wall
 * clock shows what it does save.
 *
 * Before timing, the streaming pipeline is bit-compared against the
 * unfused forward on a 1-thread schedule (plain commits, 16-aligned
 * panels) and the verdict is the process exit code.
 *
 * Usage: fusion [--smoke] [nodes] [nnz] [max_degree] [threads] [reps]
 *        (defaults: 500000, 5000000, 50000, hw threads, 3;
 *         --smoke: 3000, 24000, 256, hw threads, 1 — the TSan gate)
 */
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "mps/core/fusion.h"
#include "mps/core/locality.h"
#include "mps/core/schedule.h"
#include "mps/core/spmm.h"
#include "mps/gcn/activation.h"
#include "mps/gcn/gemm.h"
#include "mps/sparse/generate.h"
#include "mps/util/json.h"
#include "mps/util/rng.h"
#include "mps/util/timer.h"
#include "mps/util/work_steal_pool.h"

namespace {

using namespace mps;

/** The bench runs f32 panels throughout. */
constexpr index_t kF32Bytes = storage_elem_bytes(StorageMode::kF32);

template <class Fn>
double
best_of_reps(int reps, const Fn &run)
{
    run(); // warm the pool, the pages and the panel buffers
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        Timer timer;
        run();
        best = std::min(best, timer.elapsed_seconds());
    }
    return best;
}

bool
bit_identical(const DenseMatrix &x, const DenseMatrix &y)
{
    for (index_t r = 0; r < x.rows(); ++r) {
        for (index_t d = 0; d < x.cols(); ++d) {
            if (x(r, d) != y(r, d))
                return false;
        }
    }
    return true;
}

double
to_gb(double bytes)
{
    return bytes / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int arg0 = 1;
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
        smoke = true;
        ++arg0;
    }
    const index_t nodes = argc > arg0
        ? static_cast<index_t>(std::atol(argv[arg0]))
        : (smoke ? 3000 : 500000);
    const index_t nnz = argc > arg0 + 1
        ? static_cast<index_t>(std::atol(argv[arg0 + 1]))
        : (smoke ? 24000 : 5000000);
    const index_t max_degree = argc > arg0 + 2
        ? static_cast<index_t>(std::atol(argv[arg0 + 2]))
        : (smoke ? 256 : 50000);
    const unsigned threads = argc > arg0 + 3
        ? static_cast<unsigned>(std::atoi(argv[arg0 + 3]))
        : std::max(1u, std::thread::hardware_concurrency());
    const int reps =
        argc > arg0 + 4 ? std::atoi(argv[arg0 + 4]) : (smoke ? 1 : 3);

    // f small so the feature GEMM does not drown the SpMM under flops
    // (real GCN hidden layers are the wide-d regime the paper studies);
    // hidden = 128 is the acceptance dimension.
    const index_t f = 32, hidden = 128, classes = 32;

    PowerLawParams params;
    params.nodes = nodes;
    params.target_nnz = nnz;
    params.max_degree = max_degree;
    params.seed = 20;
    CsrMatrix a = power_law_graph(params);
    a.normalize_gcn();
    const index_t n = a.rows();

    Pcg32 rng(7);
    DenseMatrix x(n, f), w1(f, hidden), w2(hidden, classes);
    x.fill_random(rng);
    w1.fill_random(rng);
    w2.fill_random(rng);

    WorkStealPool pool(threads);
    MergePathSchedule sched = MergePathSchedule::build(
        a, static_cast<index_t>(threads) * 16);

    // Unfused baseline localities: exactly what the pre-fusion layer
    // resolves for each dimension.
    SpmmLocality loc_h, loc_c;
    loc_h.tile_d = auto_tile_d(a.cols(), hidden);
    loc_h.prefetch = auto_prefetch_distance(hidden);
    loc_c.tile_d = auto_tile_d(a.cols(), classes);
    loc_c.prefetch = auto_prefetch_distance(classes);

    // Fused plans: one schedule shared by both layers, panel width from
    // the fused auto-tuner.
    auto shared = borrow_schedule(sched);
    FusedLayerPlan plan1(
        a, hidden, shared,
        default_fused_locality(a.cols(), hidden, kF32Bytes));
    FusedLayerPlan plan2(
        a, classes, shared,
        default_fused_locality(a.cols(), classes, kF32Bytes));

    // ---- Bit-identity gate: streaming pipeline vs unfused forward on
    // a 1-thread schedule (plain commits, 16-aligned panel offsets).
    bool gate = true;
    {
        MergePathSchedule sched1 = MergePathSchedule::build(a, 1);
        auto shared1 = borrow_schedule(sched1);

        DenseMatrix xw1(n, hidden), h1(n, hidden), hw2(n, classes),
            want(n, classes);
        dense_gemm(x, w1, xw1, pool);
        mergepath_spmm_parallel(a, xw1, h1, sched1, pool);
        apply_activation(h1, Activation::kRelu);
        dense_gemm(h1, w2, hw2, pool);
        mergepath_spmm_parallel(a, hw2, want, sched1, pool);

        // Pin a narrow width for the gate: it must prove identity
        // ACROSS panel seams even when the tuner would run one panel.
        SpmmLocality gloc =
            default_fused_locality(a.cols(), hidden, kF32Bytes);
        gloc.tile_d = std::min<index_t>(32, hidden);
        gloc.auto_width = false;
        FusedLayerPlan g1(a, hidden, shared1, gloc);
        FusedLayerPlan g2(
            a, classes, shared1,
            default_fused_locality(a.cols(), classes, kF32Bytes));
        DenseMatrix hw2f(n, classes), got(n, classes);
        RankUpdateEpilogue rank =
            make_rank_update_epilogue(Activation::kRelu, w2, hw2f);
        g1.run_streaming(
            gemm_panel_source(x, w1, pool),
            [&rank](index_t col0, index_t width) {
                rank.w_row0 = col0 + width;
            },
            pool, &RankUpdateEpilogue::apply, &rank);
        g2.run(slice_panel_source(hw2f), got, pool);
        gate = bit_identical(got, want);
    }

    // ---- Timed runs (shared schedule, multi-thread). Temporaries are
    // allocated INSIDE the lambdas, exactly where the shipped call
    // paths allocate them: the unfused layer news up its XW per call
    // (GcnLayer::forward) and the classic model loop news up each
    // layer output; the fused side news up its per-inference output
    // and rank-update accumulator (GcnModel::fused_infer). The plans
    // themselves — with their panel buffers and GEMM scratch — sit
    // OUTSIDE the lambdas because the kernel caches its fused plan
    // across forwards (MergePathSpmm::fused_plan): the steady-state
    // call only pays the panel work, not the plan's buffers.
    DenseMatrix h1(n, hidden); // layer-2 study input (both variants)

    const double l1_unfused_s = best_of_reps(reps, [&] {
        DenseMatrix xw(n, hidden), out(n, hidden);
        dense_gemm(x, w1, xw, pool);
        mergepath_spmm_parallel(a, xw, out, sched, pool, loc_h);
        apply_activation(out, Activation::kRelu);
        h1 = std::move(out);
    });
    const double l1_fused_s = best_of_reps(reps, [&] {
        DenseMatrix out(n, hidden);
        plan1.run(gemm_panel_source(x, w1, pool, plan1.gemm_scratch()),
                  out, pool, activation_epilogue(Activation::kRelu));
    });

    const double l2_unfused_s = best_of_reps(reps, [&] {
        DenseMatrix xw(n, classes), out(n, classes);
        dense_gemm(h1, w2, xw, pool);
        mergepath_spmm_parallel(a, xw, out, sched, pool, loc_c);
    });
    const double l2_fused_s = best_of_reps(reps, [&] {
        DenseMatrix out(n, classes);
        plan2.run(gemm_panel_source(h1, w2, pool, plan2.gemm_scratch()),
                  out, pool);
    });

    const double e2e_unfused_s = best_of_reps(reps, [&] {
        DenseMatrix current = x;
        {
            DenseMatrix xw(n, hidden), next(n, hidden);
            dense_gemm(current, w1, xw, pool);
            mergepath_spmm_parallel(a, xw, next, sched, pool, loc_h);
            apply_activation(next, Activation::kRelu);
            current = std::move(next);
        }
        DenseMatrix xw(n, classes), next(n, classes);
        dense_gemm(current, w2, xw, pool);
        mergepath_spmm_parallel(a, xw, next, sched, pool, loc_c);
    });
    const double e2e_fused_s = best_of_reps(reps, [&] {
        DenseMatrix hw2(n, classes);
        RankUpdateEpilogue rank =
            make_rank_update_epilogue(Activation::kRelu, w2, hw2);
        plan1.run_streaming(
            gemm_panel_source(x, w1, pool, plan1.gemm_scratch()),
            [&rank](index_t col0, index_t width) {
                rank.w_row0 = col0 + width;
            },
            pool, &RankUpdateEpilogue::apply, &rank);
        DenseMatrix result(n, classes);
        plan2.run(slice_panel_source(hw2), result, pool);
    });

    // ---- DRAM-traffic proxy over the n x d temporaries (bytes).
    // Unfused layer d: XW costs a zero-init, the GEMM write and the
    // SpMM re-read (3 trips); C costs its zero-init, the commit write
    // and an activation read+write when present. Fused run(): when the
    // auto width stays narrow the source panel is produced and
    // consumed in cache (0 trips) and only C's zero + commit remain;
    // when run_tile() widened to full width (LLC-resident regime) the
    // full-width source buffer streams like XW minus the activation
    // pass. Streaming e2e: layer 1's XW and H1 never materialize at
    // all; layer 2 builds XW2 by rank updates, the first layer-1 panel
    // writing hw2 and every later one reading and writing it, then
    // pays the sweep read and the logits zero + write.
    const double bpe = sizeof(value_t);
    const double nf = static_cast<double>(n) * f * bpe;
    const double nh = static_cast<double>(n) * hidden * bpe;
    const double nc = static_cast<double>(n) * classes * bpe;
    const index_t panels1 =
        (hidden + plan1.tile() - 1) / plan1.tile();

    const double l1_unfused_b = 3 * nh + 4 * nh; // xw; C + act
    const double l1_fused_b =
        (plan1.run_tile() >= hidden ? 3 * nh : 0.0) + 2 * nh;
    const double l2_unfused_b = 3 * nc + 2 * nc;
    const double l2_fused_b =
        (plan2.run_tile() >= classes ? 3 * nc : 0.0) + 2 * nc;
    const double e2e_unfused_b = 2 * nf /* current = x copy */ +
                                 3 * nh /* xw1 */ +
                                 5 * nh /* h1 + act + L2 gemm read */ +
                                 3 * nc /* xw2 */ + 2 * nc /* logits */;
    // Streaming source panels only drop out of the traffic when the
    // tuner kept them narrow enough to be cache-resident; in the
    // flat-LLC regime (tile == hidden) the source panel streams like
    // the XW it replaces — the pipeline's remaining saving is H1
    // (never built) and XW2's GEMM round trip. The streamed sweep has
    // no output panel at all: each finished row goes from registers
    // into the executor's 48-row staging tile and the rank update
    // (RankUpdateEpilogue) consumes it there.
    const double e2e_panels_b =
        plan1.tile() < hidden
            ? 0.0
            : 2 * nh /* scratch: GEMM write + sweep read */;
    const double e2e_fused_b = e2e_panels_b +
                               (2.0 * panels1 - 1.0) * nc /* hw2 */ +
                               nc /* sweep read */ +
                               2 * nc /* logits zero + write */;

    JsonWriter w;
    w.begin_object();
    w.key("bench").value("fusion");
    w.key("smoke").value(smoke);
    w.key("nodes").value(static_cast<int64_t>(n));
    w.key("nnz").value(static_cast<int64_t>(a.nnz()));
    w.key("max_degree").value(static_cast<int64_t>(max_degree));
    w.key("threads").value(static_cast<int64_t>(threads));
    w.key("reps").value(static_cast<int64_t>(reps));
    w.key("f").value(static_cast<int64_t>(f));
    w.key("hidden").value(static_cast<int64_t>(hidden));
    w.key("classes").value(static_cast<int64_t>(classes));
    w.key("fused_tile_hidden").value(static_cast<int64_t>(plan1.tile()));
    w.key("fused_run_tile_hidden")
        .value(static_cast<int64_t>(plan1.run_tile()));
    w.key("fused_tile_classes").value(static_cast<int64_t>(plan2.tile()));
    w.key("l2_bytes").value(detected_l2_bytes());
    w.key("llc_bytes").value(detected_llc_bytes());
    w.key("traffic_model")
        .value("n x d temporary stream trips only; CSR/X/W excluded; "
               "cache-resident panels count zero");

    w.key("layers").begin_array();
    w.begin_object();
    w.key("layer").value(static_cast<int64_t>(1));
    w.key("dim").value(static_cast<int64_t>(hidden));
    w.key("unfused_ms").value(l1_unfused_s * 1e3);
    w.key("fused_ms").value(l1_fused_s * 1e3);
    w.key("speedup").value(l1_unfused_s / l1_fused_s);
    w.key("unfused_traffic_gb").value(to_gb(l1_unfused_b));
    w.key("fused_traffic_gb").value(to_gb(l1_fused_b));
    w.key("traffic_saved_gb").value(to_gb(l1_unfused_b - l1_fused_b));
    w.end_object();
    w.begin_object();
    w.key("layer").value(static_cast<int64_t>(2));
    w.key("dim").value(static_cast<int64_t>(classes));
    w.key("unfused_ms").value(l2_unfused_s * 1e3);
    w.key("fused_ms").value(l2_fused_s * 1e3);
    w.key("speedup").value(l2_unfused_s / l2_fused_s);
    w.key("unfused_traffic_gb").value(to_gb(l2_unfused_b));
    w.key("fused_traffic_gb").value(to_gb(l2_fused_b));
    w.key("traffic_saved_gb").value(to_gb(l2_unfused_b - l2_fused_b));
    w.end_object();
    w.end_array();

    w.key("end_to_end").begin_object();
    w.key("unfused_ms").value(e2e_unfused_s * 1e3);
    w.key("fused_ms").value(e2e_fused_s * 1e3);
    w.key("speedup").value(e2e_unfused_s / e2e_fused_s);
    w.key("unfused_traffic_gb").value(to_gb(e2e_unfused_b));
    w.key("fused_traffic_gb").value(to_gb(e2e_fused_b));
    w.key("traffic_saved_gb")
        .value(to_gb(e2e_unfused_b - e2e_fused_b));
    w.end_object();

    w.key("bit_identical").value(gate);
    w.end_object();
    std::cout << w.str() << "\n";
    return gate ? 0 : 1;
}
