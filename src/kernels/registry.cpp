#include "mps/kernels/registry.h"

#include "mps/core/spmm.h"
#include "mps/kernels/adaptive.h"
#include "mps/kernels/column_split.h"
#include "mps/kernels/hybrid_kernel.h"
#include "mps/kernels/mergepath_kernel.h"
#include "mps/kernels/mergepath_serial.h"
#include "mps/kernels/nnz_split.h"
#include "mps/kernels/row_split.h"
#include "mps/util/log.h"
#include "mps/util/metrics.h"
#include "mps/util/trace.h"

namespace mps {

namespace {

/** Sequential gold kernel exposed through the registry. */
class ReferenceSpmmKernel final : public SpmmKernel
{
  public:
    std::string name() const override { return "reference"; }

    void
    prepare(const CsrMatrix &a, index_t dim) override
    {
        (void)a;
        (void)dim;
    }

    void
    run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
        WorkStealPool &pool) const override
    {
        (void)pool;
        reference_spmm(a, b, c);
    }
};

/**
 * Observability decorator: spans + timing metrics around prepare()/run()
 * of any kernel. Metric/span names are precomputed so the per-call cost
 * while disabled is a couple of relaxed atomic loads.
 */
class InstrumentedSpmmKernel final : public SpmmKernel
{
  public:
    explicit InstrumentedSpmmKernel(std::unique_ptr<SpmmKernel> inner)
        : inner_(std::move(inner)),
          prepare_span_("prepare:" + inner_->name()),
          run_span_("run:" + inner_->name()),
          prepare_metric_("kernel." + inner_->name() + ".prepare_ms"),
          run_metric_("kernel." + inner_->name() + ".run_ms"),
          exec_hist_("kernel." + inner_->name() + ".exec_ms"),
          runs_counter_("kernel." + inner_->name() + ".runs")
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    set_schedule_cache(ScheduleCache *cache) override
    {
        inner_->set_schedule_cache(cache);
    }

    void
    prepare(const CsrMatrix &a, index_t dim) override
    {
        ScopedSpan span(prepare_span_, "kernel");
        MetricTimer timer(prepare_metric_);
        inner_->prepare(a, dim);
    }

    void
    run(const CsrMatrix &a, const DenseMatrix &b, DenseMatrix &c,
        WorkStealPool &pool) const override
    {
        ScopedSpan span(run_span_, "kernel");
        MetricsRegistry &metrics = MetricsRegistry::global();
        if (!metrics.enabled()) {
            inner_->run(a, b, c, pool);
            return;
        }
        metrics.counter_add(runs_counter_);
        Timer wall;
        inner_->run(a, b, c, pool);
        record_wall_ms(metrics, wall.elapsed_ms());
    }

    FusedLayerPlan *
    fused_plan(const CsrMatrix &a, index_t dim) const override
    {
        // The fused executor records its own kernel.fused.exec_ms
        // histogram; the decorator only needs to forward.
        return inner_->fused_plan(a, dim);
    }

  private:
    /**
     * One clock read feeds both the run_ms timer (mean/min/max summary)
     * and the exec_ms histogram (quantiles). Reading the clock twice
     * would let the two metrics disagree about the same call.
     */
    void
    record_wall_ms(MetricsRegistry &metrics, double ms) const
    {
        metrics.timer_record_ms(run_metric_, ms);
        metrics.histogram_record(exec_hist_, ms);
    }

    std::unique_ptr<SpmmKernel> inner_;
    std::string prepare_span_;
    std::string run_span_;
    std::string prepare_metric_;
    std::string run_metric_;
    std::string exec_hist_;
    std::string runs_counter_;
};

} // namespace

std::vector<std::string>
spmm_kernel_names()
{
    return {"mergepath",        "hybrid",     "gnnadvisor",
            "row_split",        "column_split", "adaptive",
            "mergepath_serial", "reference"};
}

std::unique_ptr<SpmmKernel>
instrument_spmm_kernel(std::unique_ptr<SpmmKernel> inner)
{
    MPS_CHECK(inner != nullptr, "cannot instrument a null kernel");
    return std::make_unique<InstrumentedSpmmKernel>(std::move(inner));
}

std::unique_ptr<SpmmKernel>
make_spmm_kernel(const std::string &name, bool instrument)
{
    std::unique_ptr<SpmmKernel> kernel;
    if (name == "mergepath")
        kernel = std::make_unique<MergePathSpmm>();
    else if (name == "hybrid")
        kernel = std::make_unique<HybridSpmm>();
    else if (name == "gnnadvisor")
        kernel = std::make_unique<NnzSplitSpmm>();
    else if (name == "row_split")
        kernel = std::make_unique<RowSplitSpmm>();
    else if (name == "column_split")
        kernel = std::make_unique<ColumnSplitSpmm>();
    else if (name == "adaptive")
        kernel = std::make_unique<AdaptiveSpmm>();
    else if (name == "mergepath_serial")
        kernel = std::make_unique<MergePathSerialFixupSpmm>();
    else if (name == "reference")
        kernel = std::make_unique<ReferenceSpmmKernel>();
    if (kernel == nullptr) {
        std::string known;
        for (const auto &k : spmm_kernel_names())
            known += " " + k;
        fatal("unknown SpMM kernel '" + name + "'; known kernels:" +
              known);
    }
    if (instrument)
        kernel = instrument_spmm_kernel(std::move(kernel));
    return kernel;
}

} // namespace mps
