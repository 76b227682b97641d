/**
 * @file
 * trainer-products-gcn: core::Trainer::train_epoch on the full Products
 * replica with real numerics: GCN, fanouts [5, 10, 15], the dataset's
 * batch size, Adam, compute width 2 and gather width 1, with the
 * feature cache, storage tier and profiling off. The traced replay runs
 * the same epochs from the public calls Trainer is built from and must
 * reproduce every iteration loss bit for bit.
 */
#include <cmath>

#include "bench.h"
#include "compute/loss.h"
#include "core/trainer.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using namespace fastgl;

constexpr int kComputeThreads = 2;
constexpr int kGatherThreads = 1;

core::TrainerOptions
trainer_options(uint64_t seed, int compute_threads)
{
    core::TrainerOptions opts;
    opts.fanouts = {5, 10, 15};
    opts.model.type = compute::ModelType::kGcn;
    opts.use_adam = true;
    opts.compute_threads = compute_threads;
    opts.gather_threads = kGatherThreads;
    opts.seed = seed;
    return opts;
}

/** Per-layer counters summed over the traced replays. */
struct LayerCounts
{
    SampleCounts sample;
    int64_t gather_rows = 0;
    uint64_t gather_bytes = 0;
};

/**
 * Trainer::train_epoch rebuilt from public calls: BatchSplitter,
 * NeighborSampler, ComputeCostModel, GatherEngine, GnnModel on a
 * KernelEngine, softmax_cross_entropy and Adam. Covers the options
 * this workload sets (no cache, storage, dropout or profiling).
 */
class TrainerReplay
{
  public:
    TrainerReplay(const graph::Dataset &ds, const core::Trainer &trainer)
        : ds_(ds), opts_(trainer.options()),
          engine_(opts_.compute_threads), model_(opts_.model),
          optimizer_(opts_.learning_rate),
          splitter_(ds.train_nodes,
                    opts_.batch_size > 0 ? opts_.batch_size
                                         : ds.batch_size,
                    opts_.seed),
          sampler_(ds.graph, sampler_options(opts_)),
          gather_(opts_.gather_threads),
          cost_(sim::rtx3090(), compute::ComputePlan::kMemoryAware)
    {
        FASTGL_CHECK(opts_.use_adam && opts_.feature_cache_ratio <= 0.0 &&
                         opts_.input_dropout <= 0.0f &&
                         opts_.max_batches == 0 && !opts_.profile &&
                         opts_.storage.storage == store::StorageKind::kNone,
                     "the replay covers this workload's options only");
        model_.set_engine(&engine_);
    }

    std::vector<double>
    train_epoch(Tracer &tracer, SubgraphOracle *oracle, Report &report,
                LayerCounts &layers)
    {
        splitter_.shuffle_epoch();
        std::vector<double> losses;
        for (int64_t b = 0; b < splitter_.num_batches(); ++b) {
            const auto seeds = splitter_.batch(b);
            const sample::SampledSubgraph sg =
                tracer.span("sample", [&] { return sampler_.sample(seeds); });
            if (oracle) {
                const std::string error = tracer.span(
                    "oracle", [&] { return oracle->check(sg, seeds); });
                report.check(error.empty(), "oracle: " + error);
            }
            tracer.span("compute.cost_model", [&] {
                return cost_.training_step(opts_.model, sg).total();
            });
            // Release before gathering, as Trainer does, so the pool
            // hands the same arena back.
            panel_.release();
            panel_ = tracer.span("match.gather", [&] {
                return gather_.gather(ds_.features, sg.nodes);
            });
            const compute::Tensor x = compute::Tensor::view(
                panel_.data(), panel_.rows(), panel_.dim());
            const compute::Tensor logits = tracer.span(
                "compute.forward", [&] { return model_.forward(sg, x); });
            std::vector<int> labels(static_cast<size_t>(sg.num_seeds));
            for (int64_t i = 0; i < sg.num_seeds; ++i)
                labels[size_t(i)] = ds_.features.label(sg.nodes[size_t(i)]);
            const compute::LossResult loss = tracer.span("compute.loss", [&] {
                return compute::softmax_cross_entropy(logits, labels);
            });
            tracer.span("compute.backward", [&] {
                model_.zero_grad();
                model_.backward(sg, loss.grad_logits);
            });
            tracer.span("compute.optimizer",
                        [&] { optimizer_.step(model_.parameters()); });
            losses.push_back(loss.loss);
            layers.sample.add(sg);
            layers.gather_rows += panel_.rows();
            layers.gather_bytes += panel_.bytes();
        }
        return losses;
    }

  private:
    static sample::NeighborSamplerOptions
    sampler_options(const core::TrainerOptions &opts)
    {
        sample::NeighborSamplerOptions nopts;
        nopts.fanouts = opts.fanouts;
        nopts.seed = opts.seed + 1;
        return nopts;
    }

    const graph::Dataset &ds_;
    core::TrainerOptions opts_;
    compute::KernelEngine engine_;
    compute::GnnModel model_;
    compute::Adam optimizer_;
    sample::BatchSplitter splitter_;
    sample::NeighborSampler sampler_;
    match::GatherEngine gather_;
    match::FeaturePanel panel_;
    compute::ComputeCostModel cost_;
};

uint64_t
digest_of(const core::TrainEpochStats &s)
{
    Digest d;
    for (double loss : s.iteration_losses)
        d.add(loss);
    d.add(s.mean_loss);
    d.add(s.mean_accuracy);
    d.add(s.modelled_epoch_seconds);
    return d.value();
}

class TrainerWorkload : public Workload
{
  public:
    explicit TrainerWorkload(const Args &args) : args_(args) {}

    SetupTimes
    setup(Report &report) override
    {
        SetupTimes t;
        Clock::time_point start = Clock::now();
        load_dataset();
        t.replica = seconds_since(start);

        start = Clock::now();
        trainer_ = std::make_unique<core::Trainer>(
            *dataset_,
            trainer_options(input_seed(args_.seed, 2), kComputeThreads));
        t.build = seconds_since(start);

        start = Clock::now();
        const core::TrainEpochStats warm = trainer_->train_epoch();
        t.warmup = seconds_since(start);
        warmup_digest_ = digest_of(warm);
        batches_ = static_cast<int64_t>(warm.iteration_losses.size());
        report.check(epoch_ok(warm), "warm-up epoch output check");
        epoch_losses_ = {warm.iteration_losses};
        return t;
    }

    uint64_t warmup_digest() const override { return warmup_digest_; }

    UnitResult
    run_unit(Report &) override
    {
        UnitResult u;
        const Clock::time_point start = Clock::now();
        const core::TrainEpochStats s = trainer_->train_epoch();
        u.wall = seconds_since(start);
        u.modelled = s.modelled_epoch_seconds;
        u.failed = epoch_ok(s) ? 0 : 1;
        epoch_losses_.push_back(s.iteration_losses);
        measured_ += s.measured_compute;
        return u;
    }

    UnitResult
    run_traced_unit(Tracer &tracer, Report &report,
                    UnitResult &untraced) override
    {
        untraced = run_unit(report);
        if (!replay_) {
            replay_ = std::make_unique<TrainerReplay>(*dataset_, *trainer_);
            oracle_ = std::make_unique<SubgraphOracle>(
                dataset_->graph, trainer_->options().fanouts);
        }
        // The model carries state across epochs, so the replay runs
        // (untraced) every epoch the trainer ran before this one.
        Tracer off(false);
        LayerCounts unused;
        while (replayed_ + 1 < epoch_losses_.size())
            report.check(replay_->train_epoch(off, nullptr, report, unused) ==
                             epoch_losses_[replayed_++],
                         "replayed losses differ from Trainer::train_epoch");
        const double oracle_before = oracle_->seconds();
        UnitResult u;
        tracer.begin("unit");
        const Clock::time_point start = Clock::now();
        const std::vector<double> losses =
            replay_->train_epoch(tracer, oracle_.get(), report, layers_);
        u.wall = seconds_since(start) - (oracle_->seconds() - oracle_before);
        tracer.end();
        report.check(losses == epoch_losses_[replayed_++],
                     "traced losses differ from Trainer::train_epoch");
        return u;
    }

    bool
    width_one_matches(Report &) override
    {
        trainer_.reset();
        core::Trainer serial(*dataset_,
                             trainer_options(input_seed(args_.seed, 2), 1));
        return serial.train_epoch().iteration_losses ==
               epoch_losses_.front();
    }

    void
    layer_metrics(const Tracer &tracer, Report &report) override
    {
        const double unit = tracer.busy("unit") - tracer.busy("oracle");
        const auto frac = [&](const char *span) {
            return tracer.busy(span) / unit;
        };
        add_sample_metrics(tracer, layers_.sample, unit, report);
        report.add("match.gather_frac", frac("match.gather"), "ratio");
        report.add("match.gather_rows", double(layers_.gather_rows),
                   "count");
        report.add("match.gather_bytes", double(layers_.gather_bytes), "B");
        report.add("compute.forward_frac", frac("compute.forward"), "ratio");
        report.add("compute.backward_frac", frac("compute.backward"),
                   "ratio");
        report.add("compute.loss_frac", frac("compute.loss"), "ratio");
        report.add("compute.optimizer_frac", frac("compute.optimizer"),
                   "ratio");
        report.add("compute.cost_model_frac", frac("compute.cost_model"),
                   "ratio");
        // Kernel counters of the untraced epochs, from TrainEpochStats.
        report.add("compute.gemm_gflops", measured_.gemm_gflops(),
                   "GFLOP/s");
        report.add("compute.agg_bytes_per_edge",
                   measured_.agg_bytes_per_edge(), "B/edge");
        report.add("trace.oracle_subgraphs", double(oracle_->checked()),
                   "count");
    }

    void
    describe(Report &report) const override
    {
        report.note("entry_point", "core::Trainer::train_epoch");
        report.note("compute_threads", std::to_string(kComputeThreads));
        report.note("gather_threads", std::to_string(kGatherThreads));
        report.note("nodes", std::to_string(dataset_->graph.num_nodes()));
        report.note("batches_per_unit", std::to_string(batches_));
        report.note("gemm_gflops",
                    std::to_string(measured_.gemm_gflops()));
    }

  private:
    void
    load_dataset()
    {
        trainer_.reset();
        replay_.reset();
        oracle_.reset();
        graph::ReplicaOptions ropts;
        ropts.seed = input_seed(args_.seed, 1);
        dataset_ = std::make_unique<graph::Dataset>(
            graph::load_replica(graph::DatasetId::kProducts, ropts));
        measured_ = {};
        replayed_ = 0;
    }

    bool
    epoch_ok(const core::TrainEpochStats &s) const
    {
        bool ok = !s.iteration_losses.empty() &&
                  s.modelled_epoch_seconds > 0.0 &&
                  std::isfinite(s.mean_loss);
        if (batches_ > 0)
            ok = ok && static_cast<int64_t>(s.iteration_losses.size()) ==
                           batches_;
        for (double loss : s.iteration_losses)
            ok = ok && std::isfinite(loss) && loss > 0.0;
        return ok;
    }

    Args args_;
    std::unique_ptr<graph::Dataset> dataset_;
    std::unique_ptr<core::Trainer> trainer_;
    std::unique_ptr<TrainerReplay> replay_;
    std::unique_ptr<SubgraphOracle> oracle_;
    LayerCounts layers_;
    core::MeasuredCompute measured_;
    /** Losses of every epoch the trainer ran, warm-up first. */
    std::vector<std::vector<double>> epoch_losses_;
    /** Epochs the replay has run. */
    size_t replayed_ = 0;
    int64_t batches_ = 0;
    uint64_t warmup_digest_ = 0;
};

} // namespace

std::unique_ptr<Workload>
make_trainer_workload(const Args &args)
{
    return std::make_unique<TrainerWorkload>(args);
}

} // namespace perfbench
