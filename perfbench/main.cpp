/**
 * @file
 * Benchmark binary: runs one workload for a fixed time and prints its
 * metrics as one JSON object on the last line of standard output.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH]
 *
 * One invocation is: K fresh set-ups (the median is setup_s, and their
 * warm-up outputs must agree), timed units until S seconds have passed
 * (the median is run_s), then the check run at thread width 1. With
 * --trace 1 every timed unit is followed by its traced replay, and the
 * per-layer metrics replace the end-to-end ones.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "util/rng.h"

namespace perfbench {

void
Digest::add(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void
Tracer::begin(const char *name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    records_.push_back({name, seconds_since(epoch_), 0.0, parent});
    open_.push_back(static_cast<int>(records_.size()) - 1);
}

void
Tracer::end()
{
    records_[static_cast<size_t>(open_.back())].end = seconds_since(epoch_);
    open_.pop_back();
}

double
Tracer::busy(const std::string &name) const
{
    double total = 0.0;
    for (const Record &r : records_)
        if (name == r.name)
            total += r.end - r.start;
    return total;
}

int64_t
Tracer::calls(const std::string &name) const
{
    int64_t n = 0;
    for (const Record &r : records_)
        n += name == r.name;
    return n;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Record &r : records_)
        if (name == r.name)
            out.push_back(r.end - r.start);
    return out;
}

double
Tracer::child_busy(const std::string &parent) const
{
    double total = 0.0;
    for (const Record &r : records_)
        if (r.parent >= 0 &&
            parent == records_[static_cast<size_t>(r.parent)].name)
            total += r.end - r.start;
    return total;
}

bool
Tracer::write_chrome_trace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                      i ? "," : "", r.name, r.start * 1e6,
                      (r.end - r.start) * 1e6);
        out << line;
    }
    out << "]}\n";
    return bool(out);
}

void
Report::tally(int64_t items, int64_t bad, const std::string &what)
{
    attempted += items;
    if (bad > 0) {
        failed += bad;
        correct = false;
        std::fprintf(stderr, "perfbench: check failed (%lld of %lld): %s\n",
                     static_cast<long long>(bad),
                     static_cast<long long>(items), what.c_str());
    }
}

void
Report::invalid(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "perfbench: invalid run: %s\n", what.c_str());
}

void
add_sample_metrics(const Tracer &tracer, const SampleCounts &counts,
                   double unit, Report &report)
{
    const std::vector<double> calls = tracer.durations("sample");
    const auto instances = double(counts.instances);
    report.add("sample.busy_frac", tracer.busy("sample") / unit, "ratio");
    report.add("sample.p50_us", percentile(calls, 50) * 1e6, "us");
    report.add("sample.p99_us", percentile(calls, 99) * 1e6, "us");
    report.add("sample.calls", double(calls.size()), "count");
    report.add("sample.instances", instances, "count");
    report.add("sample.uniques", double(counts.uniques), "count");
    report.add("sample.edges_examined", double(counts.edges_examined),
               "count");
    report.add("sample.idmap_probes", double(counts.probes), "count");
    report.add("sample.unique_frac", double(counts.uniques) / instances,
               "ratio");
    report.add("sample.probes_per_instance", double(counts.probes) / instances,
               "ratio");
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
peak_rss_mb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

uint64_t
input_seed(uint64_t seed, uint64_t stream)
{
    return fastgl::util::derive_seed(seed, stream, 0);
}

namespace {

/** Fewest timed units per run, whatever --seconds says. */
constexpr int kMinUnits = 3;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/**
 * Every per-layer metric in print order, with its unit. A workload adds
 * the ones its layers exercise; the others read 0 (a layer the workload
 * never enters does no work there).
 */
constexpr std::pair<const char *, const char *> kLayerMetrics[] = {
    {"setup.replica_s", "s"},
    {"setup.build_s", "s"},
    {"setup.warmup_s", "s"},
    {"trace.unit_s", "s"},
    {"trace.untraced_unit_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.attributed_frac", "ratio"},
    {"trace.units", "count"},
    {"trace.oracle_subgraphs", "count"},
    {"sample.busy_frac", "ratio"},
    {"sample.p50_us", "us"},
    {"sample.p99_us", "us"},
    {"sample.calls", "count"},
    {"sample.instances", "count"},
    {"sample.uniques", "count"},
    {"sample.edges_examined", "count"},
    {"sample.idmap_probes", "count"},
    {"sample.unique_frac", "ratio"},
    {"sample.probes_per_instance", "ratio"},
    {"match.nodeset_frac", "ratio"},
    {"match.reorder_frac", "ratio"},
    {"match.plan_frac", "ratio"},
    {"match.cache_frac", "ratio"},
    {"match.gather_frac", "ratio"},
    {"match.nodesets", "count"},
    {"match.reused_rows", "count"},
    {"match.cache_hits", "count"},
    {"match.loaded_rows", "count"},
    {"match.gather_rows", "count"},
    {"match.gather_bytes", "B"},
    {"match.reuse_frac", "ratio"},
    {"compute.forward_frac", "ratio"},
    {"compute.backward_frac", "ratio"},
    {"compute.loss_frac", "ratio"},
    {"compute.optimizer_frac", "ratio"},
    {"compute.cost_model_frac", "ratio"},
    {"compute.gemm_gflops", "GFLOP/s"},
    {"compute.agg_bytes_per_edge", "B/edge"},
    {"serve.busy_frac", "ratio"},
    {"serve.work_queue_push_blocked", "count"},
    {"serve.done_queue_pop_blocked", "count"},
    {"serve.done_queue_max_depth", "count"},
    {"serve.requests", "count"},
    {"serve.batches", "count"},
};

/** Put the per-layer metrics in schema order, filling absent ones. */
void
order_layer_metrics(Report &report)
{
    std::vector<Metric> ordered;
    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = std::find_if(
            report.metrics.begin(), report.metrics.end(),
            [&](const Metric &m) { return m.name == name; });
        if (it == report.metrics.end()) {
            ordered.push_back({name, 0.0, unit});
            continue;
        }
        if (it->unit != unit)
            report.invalid(std::string("unit of ") + name);
        ordered.push_back(*it);
    }
    for (const Metric &m : report.metrics) {
        const bool known = std::any_of(
            std::begin(kLayerMetrics), std::end(kLayerMetrics),
            [&](const auto &entry) { return m.name == entry.first; });
        if (!known)
            report.invalid("metric outside the per-layer schema: " + m.name);
    }
    report.metrics = std::move(ordered);
}

bool
parse_args(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--trace-out")
            args.trace_out = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty();
}

std::unique_ptr<Workload>
make_workload(const Args &args)
{
    if (args.workload == "pipeline-mag-fastgl")
        return make_pipeline_workload(args);
    if (args.workload == "trainer-products-gcn")
        return make_trainer_workload(args);
    if (args.workload == "serve-products")
        return make_serve_workload(args, /*logits=*/false);
    if (args.workload == "serve-products-logits")
        return make_serve_workload(args, /*logits=*/true);
    return nullptr;
}

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
print_report(const Report &report)
{
    std::string config = "{";
    for (size_t i = 0; i < report.config.size(); ++i) {
        config += (i ? "," : "") + json_string(report.config[i].first) +
                  ":" + json_string(report.config[i].second);
    }
    std::printf("%s\n", (config + "}").c_str());

    std::string metrics = "{";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        char value[64];
        // Every digit of the measurement; JSON has no NaN or Inf.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        metrics += std::string(i ? "," : "") + json_string(m.name) +
                   ":{\"value\":" + value +
                   ",\"unit\":" + json_string(m.unit) + "}";
    }
    std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
                "\"metrics\":%s}}\n",
                report.correct ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed), metrics.c_str());
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--trace-out PATH]\n");
        return 2;
    }
    std::unique_ptr<Workload> workload = make_workload(args);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    Report report;
    Tracer tracer(args.trace);

    // Set-up, K times: each builds a fresh instance from the same seed,
    // so each warm-up unit must produce the same modelled outputs.
    std::vector<SetupTimes> setups;
    uint64_t first_digest = 0;
    for (int k = 0; k < kSetups; ++k) {
        setups.push_back(workload->setup(report));
        if (k == 0)
            first_digest = workload->warmup_digest();
        else
            report.check(workload->warmup_digest() == first_digest,
                         "warm-up outputs differ between two set-ups at "
                         "one seed");
    }

    // Timed units on the last instance; warm-up units are excluded.
    std::vector<double> walls, traced_walls, factors;
    const Clock::time_point start = Clock::now();
    while (walls.size() < size_t(kMinUnits) ||
           seconds_since(start) < args.seconds) {
        UnitResult unit;
        if (args.trace) {
            const UnitResult traced =
                workload->run_traced_unit(tracer, report, unit);
            traced_walls.push_back(traced.wall);
        } else {
            unit = workload->run_unit(report);
        }
        report.tally(unit.items, unit.failed, "unit output check");
        walls.push_back(unit.wall);
        factors.push_back(unit.modelled > 0.0 ? unit.wall / unit.modelled
                                              : 0.0);
    }

    // The check run, outside the timed units.
    report.check(workload->width_one_matches(report),
                 "width-1 outputs differ from the configured width's");

    workload->describe(report);
    report.note("seed", std::to_string(args.seed));
    report.note("timed_units", std::to_string(walls.size()));
    std::string unit_walls;
    for (double w : walls) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.4f", unit_walls.empty() ? "" : " ",
                      w);
        unit_walls += buf;
    }
    report.note("unit_walls_s", unit_walls);
    report.note("setups", std::to_string(setups.size()));

    auto setup_median = [&](double SetupTimes::*part) {
        std::vector<double> values;
        for (const SetupTimes &s : setups)
            values.push_back(s.*part);
        return median(values);
    };
    if (!args.trace) {
        std::vector<double> totals;
        for (const SetupTimes &s : setups)
            totals.push_back(s.total());
        report.add("setup_s", median(totals), "s");
        report.add("run_s", median(walls), "s");
        report.add("realtime_factor", median(factors), "ratio");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        const double traced = median(traced_walls);
        report.add("setup.replica_s", setup_median(&SetupTimes::replica),
                   "s");
        report.add("setup.build_s", setup_median(&SetupTimes::build), "s");
        report.add("setup.warmup_s", setup_median(&SetupTimes::warmup),
                   "s");
        report.add("trace.unit_s", traced, "s");
        report.add("trace.untraced_unit_s", median(walls), "s");
        report.add("trace.overhead_frac", traced / median(walls) - 1.0,
                   "ratio");
        report.add("trace.units", double(traced_walls.size()), "count");
        // Share of the traced units' wall that the layer spans cover;
        // oracle checks run inside the units but are not program time.
        const double oracle = tracer.busy("oracle");
        report.add("trace.attributed_frac",
                   (tracer.child_busy("unit") - oracle) /
                       (tracer.busy("unit") - oracle),
                   "ratio");
        workload->layer_metrics(tracer, report);
        order_layer_metrics(report);
        if (!args.trace_out.empty() &&
            !tracer.write_chrome_trace(args.trace_out))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.trace_out.c_str());
    }
    print_report(report);
    return 0;
}
