/**
 * @file
 * Shared harness of the benchmark binary: the span tracer, the metric
 * report, and the interface each workload implements.
 *
 * Every number is taken from outside the library: spans wrap the
 * benchmark's own calls into public functions, and counters read fields
 * the library already exposes. Nothing under src/ is instrumented.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "sample/minibatch.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a over 64-bit words: the digest of one unit's modelled output. */
class Digest
{
  public:
    void
    add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ULL;
        }
    }
    void add(double value);
    void add(int64_t value) { add(static_cast<uint64_t>(value)); }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xCBF29CE484222325ULL;
};

/**
 * In-memory span recorder. When off, span() only runs the call. When
 * on, every span records its name, start, end and parent; busy time
 * per name and per-call durations are derived from the records, and
 * the whole list can be written as a Chrome trace at exit.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

    bool on() const { return on_; }

    /** Time @p fn as span @p name (a child of the open span). */
    template <typename Fn>
    decltype(auto)
    span(const char *name, Fn &&fn)
    {
        if (!on_)
            return fn();
        Scope scope(*this, name);
        return fn();
    }

    /** Open/close a parent span by hand (the traced unit). */
    void begin(const char *name);
    void end();

    /** Summed duration of every span named @p name. */
    double busy(const std::string &name) const;
    /** Number of spans named @p name. */
    int64_t calls(const std::string &name) const;
    /** Durations of every span named @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;
    /** Summed duration of spans whose parent is a span named @p parent. */
    double child_busy(const std::string &parent) const;

    /** Write the spans as a Chrome trace (chrome://tracing, Perfetto). */
    bool write_chrome_trace(const std::string &path) const;

  private:
    struct Record
    {
        const char *name;
        double start;
        double end;
        int parent; ///< Index of the enclosing span, -1 at top level.
    };

    struct Scope
    {
        Scope(Tracer &t, const char *name) : tracer(t) { t.begin(name); }
        ~Scope() { tracer.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Tracer &tracer;
    };

    bool on_;
    Clock::time_point epoch_;
    std::vector<Record> records_;
    std::vector<int> open_;
};

/** One named metric as printed in the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one benchmark invocation reports. */
struct Report
{
    int64_t attempted = 0;
    int64_t failed = 0;
    bool correct = true;
    std::vector<Metric> metrics;
    /** Free-form provenance pairs (thread widths, seeds, counts). */
    std::vector<std::pair<std::string, std::string>> config;

    void
    add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count @p items checked outputs, @p bad of which failed. */
    void tally(int64_t items, int64_t bad, const std::string &what);

    /** Count checked items; a false @p ok fails all of them. */
    void
    check(bool ok, const std::string &what, int64_t items = 1)
    {
        tally(items, ok ? 0 : items, what);
    }

    /** A structural failure that invalidates the whole run. */
    void invalid(const std::string &what);

    void
    note(const std::string &key, const std::string &value)
    {
        config.emplace_back(key, value);
    }
};

/** Wall seconds of the three set-up steps of one instance. */
struct SetupTimes
{
    double replica = 0.0; ///< Synthetic replica generation.
    double build = 0.0;   ///< Constructors and trace generation.
    double warmup = 0.0;  ///< The first (untimed) unit.
    double total() const { return replica + build + warmup; }
};

/** One executed unit: its wall time and modelled output. */
struct UnitResult
{
    double wall = 0.0;     ///< Host seconds of the unit.
    double modelled = 0.0; ///< Modelled seconds of the same unit.
    int64_t items = 1;     ///< Checked items (units, or requests).
    int64_t failed = 0;    ///< Items whose output check failed.
};

/** Command-line arguments of one invocation. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace output path (trace mode; empty = none). */
    std::string trace_out;
};

/**
 * A workload: one fresh instance per setup() call, driven through the
 * public entry point its users call. Implementations report every
 * output check through the Report they are given.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Replica + construction + warm-up unit of a fresh instance. */
    virtual SetupTimes setup(Report &report) = 0;
    /** Digest of the most recent setup()'s warm-up unit. */
    virtual uint64_t warmup_digest() const = 0;
    /** One untraced timed unit on the current instance. */
    virtual UnitResult run_unit(Report &report) = 0;
    /**
     * One traced unit. It runs the untraced unit first, then the traced
     * replay of the same unit, and checks that the two agree.
     * @p untraced receives the untraced unit.
     */
    virtual UnitResult run_traced_unit(Tracer &tracer, Report &report,
                                       UnitResult &untraced) = 0;
    /**
     * The check run: repeat the warm-up unit at thread width 1 and
     * compare its modelled outputs with the configured width's.
     */
    virtual bool width_one_matches(Report &report) = 0;
    /** Per-layer metrics after the traced units. */
    virtual void layer_metrics(const Tracer &tracer, Report &report) = 0;
    /** Thread widths and sizes, for provenance. */
    virtual void describe(Report &report) const = 0;
};

std::unique_ptr<Workload> make_pipeline_workload(const Args &args);
std::unique_ptr<Workload> make_trainer_workload(const Args &args);
std::unique_ptr<Workload> make_serve_workload(const Args &args,
                                              bool logits);

/**
 * DGL-style structural oracle for sampled subgraphs: every sampled edge
 * exists in the CSR graph (or is the target's self loop), every target
 * drew min(degree, fanout) neighbours, global IDs are unique, local IDs
 * are dense, and the seeds come first.
 */
class SubgraphOracle
{
  public:
    SubgraphOracle(const fastgl::graph::CsrGraph &graph,
                   std::vector<int> fanouts);

    /** Empty string when @p sg passes; else the first violation. */
    std::string check(const fastgl::sample::SampledSubgraph &sg,
                      std::span<const fastgl::graph::NodeId> seeds);

    int64_t checked() const { return checked_; }
    /** Host seconds spent checking (kept out of the traced units). */
    double seconds() const { return seconds_; }

  private:
    bool has_edge(fastgl::graph::NodeId target,
                  fastgl::graph::NodeId source) const;

    const fastgl::graph::CsrGraph &graph_;
    std::vector<int> fanouts_;
    bool sorted_rows_ = true;
    std::vector<uint32_t> stamp_;
    uint32_t epoch_ = 0;
    int64_t checked_ = 0;
    double seconds_ = 0.0;
};

/** Sampler work counters summed over the traced subgraphs. */
struct SampleCounts
{
    int64_t instances = 0;
    int64_t uniques = 0;
    int64_t edges_examined = 0;
    int64_t probes = 0;

    void
    add(const fastgl::sample::SampledSubgraph &sg)
    {
        instances += sg.instances;
        uniques += sg.num_nodes();
        edges_examined += sg.edges_examined;
        probes += sg.id_map.probes;
    }
};

/**
 * The sample.* metrics of a workload whose traced replay wraps every
 * NeighborSampler::sample call in a "sample" span; @p unit is the
 * traced units' wall time.
 */
void add_sample_metrics(const Tracer &tracer, const SampleCounts &counts,
                        double unit, Report &report);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);
/** Nearest-rank percentile @p p in [0, 100] of @p values. */
double percentile(std::vector<double> values, double p);
/** Peak resident set size of this process in MB. */
double peak_rss_mb();

/**
 * Derived seed of input stream @p stream for workload seed @p seed, so
 * the replica, the program and the request trace draw independent
 * streams from the one benchmark argument.
 */
uint64_t input_seed(uint64_t seed, uint64_t stream);

} // namespace perfbench
