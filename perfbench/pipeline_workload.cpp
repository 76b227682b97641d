/**
 * @file
 * pipeline-mag-fastgl: core::Pipeline::run_epoch on the MAG replica with
 * the FastGL preset (Fused-Map sampling, Match-Reorder, cache on top of
 * Match), 2 modelled GPUs, GCN, reorder window 16, features not
 * materialised. The traced replay re-runs an epoch from the public
 * pieces Pipeline itself is built from, with a span around each call.
 */
#include <algorithm>
#include <thread>

#include "bench.h"
#include "core/pipeline.h"
#include "match/reorder.h"
#include "sample/frequency_hashmap.h"
#include "util/logging.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace fastgl;

/** The EpochResult fields the replay reproduces. */
struct EpochCounts
{
    int64_t batches = 0;
    int64_t loaded = 0;
    int64_t reused = 0;
    int64_t cache_hits = 0;
    int64_t instances = 0;
    int64_t uniques = 0;
    double compute = 0.0; ///< Modelled compute seconds (cost model).

    static EpochCounts
    of(const core::EpochResult &r)
    {
        return {r.batches,           r.nodes_loaded,
                r.nodes_reused,      r.cache_hits,
                r.sampled_instances, r.unique_nodes,
                r.phases.compute};
    }

    bool operator==(const EpochCounts &) const = default;
};

/** Per-layer counters summed over the traced replays. */
struct LayerCounts
{
    SampleCounts sample;
    int64_t reused = 0;
    int64_t cache_hits = 0;
    int64_t loaded = 0;
};

/** Reorder pool width Pipeline uses (hardware concurrency, at most 8). */
size_t
reorder_width()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::min<size_t>(hw == 0 ? 2 : hw, 8);
}

/**
 * One epoch of Pipeline::run_epoch rebuilt from public calls:
 * BatchSplitter, util::derive_seed, NeighborSampler, NodeSet,
 * greedy_reorder_max_overlap, Matcher::plan, StaticFeatureCache and
 * ComputeCostModel. Covers the FastGL preset only (checked).
 */
class PipelineReplay
{
  public:
    /** @param width reorder pool width; 1 runs the reorder inline. */
    PipelineReplay(const graph::Dataset &ds, const core::Pipeline &pipe,
                   size_t width)
        : opts_(pipe.options()),
          splitter_(ds.train_nodes,
                    opts_.batch_size > 0 ? opts_.batch_size
                                         : ds.batch_size,
                    opts_.seed),
          sampler_(ds.graph, sampler_options(opts_)),
          cost_(pipe.gpu(), opts_.fw.compute_plan, opts_.l1_hit,
                opts_.l2_hit),
          trainers_(pipe.total_trainers())
    {
        FASTGL_CHECK(opts_.fw.io == core::IoStrategy::kMatchReorder &&
                         opts_.fw.cache_on_top_of_match &&
                         opts_.fw.cache_policy ==
                             match::CachePolicy::kPresample &&
                         !opts_.fw.pipelined_sampling &&
                         !opts_.use_random_walk && opts_.max_batches == 0,
                     "the replay covers the FastGL preset only");
        if (width > 1)
            pool_ = std::make_unique<util::ThreadPool>(width);
        if (pipe.cache_capacity_rows() > 0) {
            // GNNLab presample ranking over epoch-0 streams of the
            // unshuffled splitter, as Pipeline builds it.
            const int64_t presample =
                std::min<int64_t>(4, splitter_.num_batches());
            sample::FrequencyHashmap freq(
                static_cast<size_t>(presample * splitter_.batch_size()));
            for (int64_t b = 0; b < presample; ++b)
                freq.add_stream(
                    sampler_.sample(splitter_.batch(b), batch_seed(0, b))
                        .nodes);
            cache_.emplace(ds.graph.num_nodes(),
                           match::presample_ranking(
                               freq.uniques(), freq.counts(),
                               ds.graph.num_nodes()),
                           pipe.cache_capacity_rows());
        }
    }

    int epoch() const { return epoch_; }

    /** Advance past an epoch without running it (epochs only share
     *  the shuffle state and the epoch counter). */
    void
    skip_epoch()
    {
        splitter_.shuffle_epoch();
        ++epoch_;
    }

    EpochCounts
    run_epoch(Tracer &tracer, SubgraphOracle *oracle, Report &report,
              LayerCounts &layers)
    {
        skip_epoch();
        EpochCounts counts;
        counts.batches = splitter_.num_batches();
        const auto window =
            static_cast<size_t>(std::max(1, opts_.reorder_window));
        std::vector<std::vector<double>> compute(
            static_cast<size_t>(trainers_));
        for (int g = 0; g < trainers_; ++g) {
            std::vector<int64_t> batches;
            for (int64_t b = g; b < counts.batches; b += trainers_)
                batches.push_back(b);
            match::Matcher matcher;
            for (size_t w = 0; w < batches.size(); w += window) {
                const size_t end = std::min(batches.size(), w + window);
                std::vector<sample::SampledSubgraph> subgraphs;
                for (size_t i = w; i < end; ++i) {
                    const auto seeds = splitter_.batch(batches[i]);
                    subgraphs.push_back(tracer.span("sample", [&] {
                        return sampler_.sample(
                            seeds, batch_seed(epoch_, batches[i]));
                    }));
                    if (oracle) {
                        const std::string error = tracer.span(
                            "oracle", [&] {
                                return oracle->check(subgraphs.back(),
                                                     seeds);
                            });
                        report.check(error.empty(), "oracle: " + error);
                    }
                }
                for (size_t i : window_order(tracer, matcher, subgraphs)) {
                    const sample::SampledSubgraph &sg = subgraphs[i];
                    const match::NodeSet set = tracer.span(
                        "match.nodeset",
                        [&] { return match::NodeSet(sg.nodes); });
                    const match::TransferPlan plan = tracer.span(
                        "match.plan", [&] { return matcher.plan(set); });
                    const int64_t cached =
                        tracer.span("match.cache", [&] {
                            int64_t hits = 0;
                            if (cache_)
                                for (graph::NodeId u : plan.load_nodes)
                                    hits += cache_->contains(u);
                            return hits;
                        });
                    counts.reused += plan.overlap_nodes;
                    counts.cache_hits += cached;
                    counts.loaded += plan.load_count() - cached;
                    counts.instances += sg.instances;
                    counts.uniques += sg.num_nodes();
                    layers.sample.add(sg);
                    compute[size_t(g)].push_back(
                        tracer.span("compute.cost_model", [&] {
                            return cost_.training_step(opts_.model, sg)
                                .total();
                        }));
                }
            }
        }
        // Sum in Pipeline's aggregation order (iteration-major) so the
        // floating-point total is bit-identical.
        size_t iters = 0;
        for (const auto &list : compute)
            iters = std::max(iters, list.size());
        for (size_t it = 0; it < iters; ++it)
            for (const auto &list : compute)
                if (it < list.size())
                    counts.compute += list[it];
        layers.reused += counts.reused;
        layers.cache_hits += counts.cache_hits;
        layers.loaded += counts.loaded;
        return counts;
    }

  private:
    static sample::NeighborSamplerOptions
    sampler_options(const core::PipelineOptions &opts)
    {
        sample::NeighborSamplerOptions nopts;
        nopts.fanouts = opts.fanouts;
        nopts.seed = opts.seed + 101;
        return nopts;
    }

    uint64_t
    batch_seed(int64_t epoch, int64_t index) const
    {
        return util::derive_seed(opts_.seed, static_cast<uint64_t>(epoch),
                                 static_cast<uint64_t>(index));
    }

    /** Reorder of one window, anchored at the resident batch. */
    std::vector<size_t>
    window_order(Tracer &tracer, const match::Matcher &matcher,
                 const std::vector<sample::SampledSubgraph> &subgraphs)
    {
        std::vector<size_t> order(subgraphs.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        if (opts_.reorder_window <= 1 || subgraphs.size() <= 1)
            return order;
        std::vector<match::NodeSet> sets;
        sets.reserve(subgraphs.size());
        for (const auto &sg : subgraphs)
            tracer.span("match.nodeset",
                        [&] { sets.emplace_back(sg.nodes); });
        const match::NodeSet *anchor =
            matcher.resident().size() > 0 ? &matcher.resident() : nullptr;
        // Pipeline hands windows of 8 or more sets to its pool.
        util::ThreadPool *pool = sets.size() >= 8 ? pool_.get() : nullptr;
        const match::ReorderResult rr = tracer.span("match.reorder", [&] {
            return match::greedy_reorder_max_overlap(anchor, sets, pool);
        });
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<size_t>(rr.order[i]);
        return order;
    }

    core::PipelineOptions opts_;
    sample::BatchSplitter splitter_;
    sample::NeighborSampler sampler_;
    compute::ComputeCostModel cost_;
    std::optional<match::StaticFeatureCache> cache_;
    std::unique_ptr<util::ThreadPool> pool_;
    int trainers_;
    int epoch_ = 0;
};

uint64_t
digest_of(const core::EpochResult &r)
{
    Digest d;
    for (double v : {r.phases.sample, r.phases.id_map, r.phases.io,
                     r.phases.compute, r.phases.allreduce, r.epoch_seconds})
        d.add(v);
    for (int64_t v : {r.batches, r.nodes_loaded, r.nodes_reused,
                      r.cache_hits, r.sampled_instances, r.unique_nodes})
        d.add(v);
    d.add(r.bytes_loaded);
    return d.value();
}

class PipelineWorkload : public Workload
{
  public:
    explicit PipelineWorkload(const Args &args) : args_(args) {}

    SetupTimes
    setup(Report &report) override
    {
        SetupTimes t;
        replay_.reset();
        oracle_.reset();
        pipeline_.reset();
        dataset_.reset();
        Clock::time_point start = Clock::now();
        graph::ReplicaOptions ropts;
        ropts.materialize_features = false;
        ropts.seed = input_seed(args_.seed, 1);
        dataset_ = std::make_unique<graph::Dataset>(
            graph::load_replica(graph::DatasetId::kMag, ropts));
        t.replica = seconds_since(start);

        start = Clock::now();
        core::PipelineOptions opts;
        opts.fw = core::framework_preset(core::Framework::kFastGL);
        opts.num_gpus = 2;
        opts.model.type = compute::ModelType::kGcn;
        opts.reorder_window = 16;
        opts.seed = input_seed(args_.seed, 2);
        pipeline_ = std::make_unique<core::Pipeline>(*dataset_, opts);
        t.build = seconds_since(start);

        start = Clock::now();
        const core::EpochResult warm = pipeline_->run_epoch();
        t.warmup = seconds_since(start);
        epochs_ = 1;
        warmup_digest_ = digest_of(warm);
        warmup_counts_ = EpochCounts::of(warm);
        report.check(epoch_ok(warm), "warm-up epoch output check");
        return t;
    }

    uint64_t warmup_digest() const override { return warmup_digest_; }

    UnitResult
    run_unit(Report &) override
    {
        UnitResult u;
        const Clock::time_point start = Clock::now();
        const core::EpochResult r = pipeline_->run_epoch();
        u.wall = seconds_since(start);
        ++epochs_;
        u.modelled = r.epoch_seconds;
        u.failed = epoch_ok(r) ? 0 : 1;
        last_counts_ = EpochCounts::of(r);
        return u;
    }

    UnitResult
    run_traced_unit(Tracer &tracer, Report &report,
                    UnitResult &untraced) override
    {
        untraced = run_unit(report);
        if (!replay_) {
            replay_ = std::make_unique<PipelineReplay>(
                *dataset_, *pipeline_, reorder_width());
            oracle_ = std::make_unique<SubgraphOracle>(
                dataset_->graph, pipeline_->options().fanouts);
        }
        while (replay_->epoch() < epochs_ - 1)
            replay_->skip_epoch();
        const double oracle_before = oracle_->seconds();
        UnitResult u;
        tracer.begin("unit");
        const Clock::time_point start = Clock::now();
        const EpochCounts counts =
            replay_->run_epoch(tracer, oracle_.get(), report, layers_);
        u.wall = seconds_since(start) - (oracle_->seconds() - oracle_before);
        tracer.end();
        report.check(counts == last_counts_,
                     "traced replay differs from Pipeline::run_epoch");
        return u;
    }

    bool
    width_one_matches(Report &report) override
    {
        // Pipeline's only host parallelism is its reorder pool, which
        // it sizes itself; the replay reruns the warm-up epoch with the
        // reorder inline and must reproduce it.
        Tracer off(false);
        LayerCounts unused;
        PipelineReplay serial(*dataset_, *pipeline_, 1);
        return serial.run_epoch(off, nullptr, report, unused) ==
               warmup_counts_;
    }

    void
    layer_metrics(const Tracer &tracer, Report &report) override
    {
        const double unit = tracer.busy("unit") - tracer.busy("oracle");
        const auto frac = [&](const char *span) {
            return tracer.busy(span) / unit;
        };
        add_sample_metrics(tracer, layers_.sample, unit, report);
        report.add("match.nodeset_frac", frac("match.nodeset"), "ratio");
        report.add("match.reorder_frac", frac("match.reorder"), "ratio");
        report.add("match.plan_frac", frac("match.plan"), "ratio");
        report.add("match.cache_frac", frac("match.cache"), "ratio");
        report.add("match.nodesets", double(tracer.calls("match.nodeset")),
                   "count");
        report.add("match.reused_rows", double(layers_.reused), "count");
        report.add("match.cache_hits", double(layers_.cache_hits), "count");
        report.add("match.loaded_rows", double(layers_.loaded), "count");
        report.add("match.reuse_frac",
                   double(layers_.reused) / double(layers_.sample.uniques),
                   "ratio");
        report.add("compute.cost_model_frac", frac("compute.cost_model"),
                   "ratio");
        report.add("trace.oracle_subgraphs", double(oracle_->checked()),
                   "count");
    }

    void
    describe(Report &report) const override
    {
        report.note("entry_point", "core::Pipeline::run_epoch");
        report.note("reorder_threads", std::to_string(reorder_width()));
        report.note("modelled_gpus", "2");
        report.note("nodes", std::to_string(dataset_->graph.num_nodes()));
        report.note("batches_per_unit",
                    std::to_string(warmup_counts_.batches));
    }

  private:
    /** Every unique row is loaded, reused by Match or a cache hit. */
    bool
    epoch_ok(const core::EpochResult &r) const
    {
        return r.batches == expected_batches() &&
               r.nodes_loaded + r.nodes_reused + r.cache_hits ==
                   r.unique_nodes &&
               r.epoch_seconds > 0.0;
    }

    /** Batches per epoch: the training nodes in dataset-sized batches. */
    int64_t
    expected_batches() const
    {
        const int64_t batch = dataset_->batch_size;
        return (int64_t(dataset_->train_nodes.size()) + batch - 1) / batch;
    }

    Args args_;
    std::unique_ptr<graph::Dataset> dataset_;
    std::unique_ptr<core::Pipeline> pipeline_;
    std::unique_ptr<PipelineReplay> replay_;
    std::unique_ptr<SubgraphOracle> oracle_;
    LayerCounts layers_;
    int epochs_ = 0;
    uint64_t warmup_digest_ = 0;
    EpochCounts warmup_counts_;
    EpochCounts last_counts_;
};

} // namespace

std::unique_ptr<Workload>
make_pipeline_workload(const Args &args)
{
    return std::make_unique<PipelineWorkload>(args);
}

} // namespace perfbench
