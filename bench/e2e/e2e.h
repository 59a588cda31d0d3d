/**
 * @file
 * Shared pieces of the end-to-end benchmark of record (mps_e2e).
 *
 * One process runs one workload, untraced (end-to-end metrics) or
 * traced (per-layer metrics), and prints one JSON record. Everything
 * the program under test receives is generated here: graph and model
 * fixed per workload, features, arrivals and edge deltas from --seed.
 * The benchmark checks every output it times against an fp64-accumulated
 * reference it computes outside the timed region.
 */
#ifndef MPS_BENCH_E2E_H
#define MPS_BENCH_E2E_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mps/gcn/layer.h"
#include "mps/sparse/csr_matrix.h"
#include "mps/sparse/delta_csr.h"
#include "mps/sparse/dense_matrix.h"
#include "mps/sparse/quant.h"
#include "mps/util/rng.h"
#include "mps/util/trace.h"

namespace mps {
class WorkStealPool;
}

namespace mps::e2e {

/** Command-line options of one workload run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured phases; set-up and inputs come on top. */
    double seconds = 10.0;
    bool traced = false;
    /**
     * Only the cold set-up: build the inputs, time the set-up and check
     * its first result, then exit. bench/e2e/run.py runs a few of these
     * beside each measuring process so setup_s is a median of fresh
     * processes.
     */
    bool setup_only = false;
    /** Toy sizes and short phases (the ctest smoke target). */
    bool smoke = false;
    /** Chrome trace destination of a traced run ("" = none). */
    std::string trace_out;
};

/** One reported number with its unit and the samples behind it. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    int64_t samples = 1;
};

/** What one workload run reports. */
struct Record
{
    std::map<std::string, Metric> metrics;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Reasons the run must not be compared (empty = valid). */
    std::vector<std::string> invalid;

    void add(const std::string &name, double value, const std::string &unit,
             int64_t n = 1)
    {
        metrics[name] = Metric{value, unit, n};
    }
};

/** Independent sub-seed @p stream of the run seed. */
uint64_t derive_seed(uint64_t seed, uint64_t stream);

/** Linear-interpolated quantile q in [0, 1]; 0 for an empty input. */
double quantile(std::vector<double> xs, double q);

/** fp64-accumulated output of a two-layer GCN on one input. */
struct Reference
{
    index_t rows = 0;
    index_t cols = 0;
    std::vector<double> out; ///< rows x cols, row-major
    double max_abs = 0.0;    ///< max |out|, the rel_err denominator
};

/**
 * act2(A * (act1(A * X * W1) * W2)) accumulated in fp64 over the f32
 * inputs, parallel over rows on @p pool. Never materializes the n x
 * hidden intermediate: each row's hidden vector is formed and projected
 * on the fly, so memory stays O(n * classes).
 */
Reference reference_forward(const CsrMatrix &a, const DenseMatrix &x,
                            const std::vector<GcnLayer> &layers,
                            WorkStealPool &pool);

/**
 * max |out - ref| / max |ref|. A shape mismatch or a non-finite output
 * returns infinity, which every tolerance rejects.
 */
double rel_err(const DenseMatrix &out, const Reference &ref);

/** Largest rel_err an output at @p precision may show and still pass. */
double rel_err_tolerance(StorageMode precision);

/** Fixed inputs of a GCN model on a graph (what a user hands over). */
struct ModelInputs
{
    CsrMatrix graph;
    DenseMatrix features; ///< n x f_in
    std::vector<GcnLayer> layers;
    StorageMode precision = StorageMode::kF32;
};

/** Peak resident set (VmHWM) in MiB; -1 when /proc is unavailable. */
double peak_rss_mb();

/** Reset VmHWM to the current RSS; false when the kernel refuses. */
bool reset_peak_rss();

/** Median duration (ms) and count of the trace spans named @p name. */
double span_median_ms(const std::vector<TraceEvent> &events,
                      const std::string &name, int64_t *count = nullptr);

/** Total duration (ms) of the trace spans named @p name. */
double span_total_ms(const std::vector<TraceEvent> &events,
                     const std::string &name);

/**
 * Per-layer probes shared by every workload, run inside an active
 * TraceSession: each wraps the benchmark's own call into one module's
 * public function in a ScopedSpan and reports the span medians.
 *
 *  - the unfused replay of the model forward (GcnLayer::forward's
 *    classic branch: dense_gemm -> quantize_dense -> SpmmKernel::run ->
 *    apply_activation), output checked against @p ref;
 *  - the fused forward as GcnModel::fused_infer issues it;
 *  - cold schedule build / kernel prepare / hybrid build, warm cache
 *    lookup and FusedLayerPlan construction at width @p batch * hidden;
 *  - an empty parallel_for on a pool of @p pool_threads workers;
 *  - DeltaCsr apply / compact, repair_schedule and the correction pass
 *    on a replica of the graph.
 *
 * @p budget_s bounds the probe loops.
 */
void run_layer_probes(const ModelInputs &in, const Reference &ref,
                      index_t batch, unsigned pool_threads, double budget_s,
                      uint64_t seed, WorkStealPool &pool, Record &rec);

/**
 * @p edges upserts with rows drawn from the hot tail [hot_begin, rows)
 * and uniform columns: the temporal-graph churn of bench/churn.cpp,
 * where new edges concentrate on the most recently added nodes.
 */
GraphDelta hot_tail_delta(Pcg32 &rng, index_t rows, index_t cols,
                          index_t hot_begin, int edges);

/** gcn-powerlaw-f32 / gcn-amazon-bf16. */
void run_gcn_workload(const Options &opt, Record &rec);

/** serve-cora / serve-pubmed-churn. */
void run_serve_workload(const Options &opt, Record &rec);

} // namespace mps::e2e

#endif // MPS_BENCH_E2E_H
