/**
 * @file
 * serve-products and serve-products-logits: serve::Server::serve over
 * the default open-loop constant-rate Poisson trace on Products (20k
 * rps, one target per request, batches of up to 32 closed after 2 ms,
 * max_pending 64, 20% feature cache, 2 sampler worker threads). The
 * logits variant also runs the real forward pass at compute width 1.
 *
 * Server::serve is one opaque call from outside, so its span is the
 * whole unit; the split inside it is read from the host fields that
 * ServingStats already exposes.
 */
#include "bench.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace fastgl;

constexpr int kWorkerThreads = 2;
constexpr int kComputeThreads = 1;

serve::ServerOptions
server_options(uint64_t seed, bool logits, int workers)
{
    serve::ServerOptions opts;
    opts.worker_threads = workers;
    opts.model.type = compute::ModelType::kGcn;
    opts.batcher.max_batch = 32;
    opts.batcher.max_wait = 2e-3;
    opts.admission.max_pending = 64;
    opts.feature_cache_ratio = 0.2;
    opts.compute_logits = logits;
    opts.compute_threads = kComputeThreads;
    opts.seed = seed;
    return opts;
}

uint64_t
digest_of(const serve::ServingStats &s)
{
    Digest d;
    d.add(s.fingerprint);
    d.add(s.makespan);
    for (int64_t v : {s.served, s.served_late, s.embedding_hits,
                      s.shed_queue, s.dropped_deadline, s.batches})
        d.add(v);
    return d.value();
}

class ServeWorkload : public Workload
{
  public:
    ServeWorkload(const Args &args, bool logits)
        : args_(args), logits_(logits),
          // Sized so one unit takes about a second of host time.
          requests_(logits ? 2048 : 16384)
    {
    }

    SetupTimes
    setup(Report &report) override
    {
        SetupTimes t;
        server_.reset();
        dataset_.reset();
        Clock::time_point start = Clock::now();
        graph::ReplicaOptions ropts;
        ropts.materialize_features = logits_;
        ropts.seed = input_seed(args_.seed, 1);
        dataset_ = std::make_unique<graph::Dataset>(
            graph::load_replica(graph::DatasetId::kProducts, ropts));
        t.replica = seconds_since(start);

        start = Clock::now();
        server_ = std::make_unique<serve::Server>(
            *dataset_, server_options(input_seed(args_.seed, 2), logits_,
                                      kWorkerThreads));
        serve::LoadGeneratorOptions lopts;
        lopts.rate_rps = 20000.0;
        lopts.trace = serve::ArrivalTrace::kConstant;
        lopts.num_requests = requests_;
        lopts.targets_per_request = 1;
        lopts.slo_deadline = 20e-3;
        lopts.seed = input_seed(args_.seed, 3);
        trace_ = serve::LoadGenerator(server_->popularity(), lopts).generate();
        t.build = seconds_since(start);

        start = Clock::now();
        const auto responses = server_->serve(trace_);
        t.warmup = seconds_since(start);
        warmup_digest_ = digest_of(server_->last_stats());
        report.tally(int64_t(trace_.size()),
                     failed_requests(responses, server_->last_stats()),
                     "warm-up serve output check");
        return t;
    }

    uint64_t warmup_digest() const override { return warmup_digest_; }

    UnitResult
    run_unit(Report &) override
    {
        UnitResult u;
        const Clock::time_point start = Clock::now();
        const auto responses = server_->serve(trace_);
        u.wall = seconds_since(start);
        const serve::ServingStats &st = server_->last_stats();
        u.modelled = st.makespan;
        u.items = int64_t(trace_.size());
        u.failed = failed_requests(responses, st);
        return u;
    }

    UnitResult
    run_traced_unit(Tracer &tracer, Report &report,
                    UnitResult &untraced) override
    {
        untraced = run_unit(report);
        UnitResult u;
        tracer.begin("unit");
        const Clock::time_point start = Clock::now();
        const auto responses =
            tracer.span("serve", [&] { return server_->serve(trace_); });
        u.wall = seconds_since(start);
        tracer.end();
        const serve::ServingStats &st = server_->last_stats();
        report.tally(int64_t(trace_.size()), failed_requests(responses, st),
                     "traced serve output check");
        sample_seconds_.merge(st.worker_sample_seconds);
        compute_seconds_ += st.compute_seconds;
        gflops_.push_back(st.compute_gflops);
        push_blocked_ += st.work_queue.push_blocked;
        pop_blocked_ += st.done_queue.pop_blocked;
        max_depth_ = std::max(max_depth_, st.done_queue.max_depth);
        requests_offered_ += st.offered;
        batches_ += st.batches;
        return u;
    }

    bool
    width_one_matches(Report &) override
    {
        server_.reset();
        serve::Server serial(
            *dataset_, server_options(input_seed(args_.seed, 2), logits_, 1));
        serial.serve(trace_);
        return digest_of(serial.last_stats()) == warmup_digest_;
    }

    void
    layer_metrics(const Tracer &tracer, Report &report) override
    {
        const double unit = tracer.busy("unit");
        const std::vector<double> &samples = sample_seconds_.samples();
        double busy = 0.0;
        for (double s : samples)
            busy += s;
        // Worker-thread seconds: with 2 workers this can exceed 1.
        report.add("sample.busy_frac", busy / unit, "ratio");
        report.add("sample.p50_us", percentile(samples, 50) * 1e6, "us");
        report.add("sample.p99_us", percentile(samples, 99) * 1e6, "us");
        report.add("sample.calls", double(samples.size()), "count");
        if (logits_) {
            // Host seconds of the per-request gather + forward passes.
            report.add("compute.forward_frac", compute_seconds_ / unit,
                       "ratio");
            report.add("compute.gemm_gflops", median(gflops_), "GFLOP/s");
        }
        report.add("serve.busy_frac", tracer.busy("serve") / unit, "ratio");
        report.add("serve.work_queue_push_blocked", double(push_blocked_),
                   "count");
        report.add("serve.done_queue_pop_blocked", double(pop_blocked_),
                   "count");
        report.add("serve.done_queue_max_depth", double(max_depth_),
                   "count");
        report.add("serve.requests", double(requests_offered_), "count");
        report.add("serve.batches", double(batches_), "count");
    }

    void
    describe(Report &report) const override
    {
        report.note("entry_point", "serve::Server::serve");
        report.note("worker_threads", std::to_string(kWorkerThreads));
        report.note("compute_threads",
                    logits_ ? std::to_string(kComputeThreads) : "0");
        report.note("requests_per_unit", std::to_string(requests_));
        report.note("nodes", std::to_string(dataset_->graph.num_nodes()));
    }

  private:
    /**
     * Requests that came back unprocessed or without predictions; all
     * of them when the run's digest differs from the warm-up unit's
     * (serve() starts every call from the same cache state, so every
     * call must reproduce it exactly).
     */
    int64_t
    failed_requests(const std::vector<serve::InferenceResponse> &responses,
                    const serve::ServingStats &st) const
    {
        if (responses.size() != trace_.size() || st.stopped_early ||
            digest_of(st) != warmup_digest_)
            return int64_t(trace_.size());
        int64_t bad = 0;
        for (size_t i = 0; i < responses.size(); ++i) {
            const serve::InferenceResponse &r = responses[i];
            bool ok = r.request_id == trace_[i].id &&
                      r.outcome != serve::Outcome::kUnprocessed;
            // Every request of a dispatched batch gets one prediction
            // per target when logits are on.
            if (logits_ && (r.outcome == serve::Outcome::kServed ||
                            r.outcome == serve::Outcome::kServedLate))
                ok = ok && r.predicted.size() == trace_[i].targets.size();
            bad += !ok;
        }
        return bad;
    }

    Args args_;
    bool logits_;
    int64_t requests_;
    std::unique_ptr<graph::Dataset> dataset_;
    std::unique_ptr<serve::Server> server_;
    std::vector<serve::InferenceRequest> trace_;
    uint64_t warmup_digest_ = 0;
    util::SampleStat sample_seconds_;
    double compute_seconds_ = 0.0;
    std::vector<double> gflops_;
    uint64_t push_blocked_ = 0;
    uint64_t pop_blocked_ = 0;
    size_t max_depth_ = 0;
    int64_t requests_offered_ = 0;
    int64_t batches_ = 0;
};

} // namespace

std::unique_ptr<Workload>
make_serve_workload(const Args &args, bool logits)
{
    return std::make_unique<ServeWorkload>(args, logits);
}

} // namespace perfbench
