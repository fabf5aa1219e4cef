/**
 * @file
 * Benchmark driver: one workload per invocation.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--trace-file <path>]
 *
 * Workloads: paper-figures, kv-update, kv-read-spill, crash-sweep.
 * With --trace 0 the run measures the end-to-end metrics; with
 * --trace 1 it is the separate traced run that reports the per-layer
 * metrics and writes the spans as Chrome trace-event JSON. The last
 * stdout line is the result object
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * A failed correctness check prints the result with "correct": false
 * and exits 1; a usage error exits 2.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"
#include "sim_summary.hh"

namespace perfbench
{

void
RunResult::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
PassTimes::scaledSeconds(std::size_t groups) const
{
    double sum = 0;
    for (std::size_t g = 0; g < groups; ++g) {
        std::vector<double> scaled;
        for (std::size_t i = g; i < raw.size(); i += groups)
            scaled.push_back(raw[i] * scale[i]);
        sum += median(scaled);
    }
    return sum;
}

void
printTimes(const char *label, const PassTimes &times)
{
    std::printf("%s: n=%zu raw median=%.4f min=%.4f max=%.4f s, "
                "host-speed scale median=%.3f min=%.3f max=%.3f\n",
                label, times.raw.size(), median(times.raw),
                *std::min_element(times.raw.begin(), times.raw.end()),
                *std::max_element(times.raw.begin(), times.raw.end()),
                median(times.scale),
                *std::min_element(times.scale.begin(), times.scale.end()),
                *std::max_element(times.scale.begin(), times.scale.end()));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
addEndToEnd(RunResult &result, double setup_s, double ops_per_s,
            SimSummary sim, const slpmt::MatrixResult *fig8)
{
    const double rss_mb = peakRssMb();
    paperAccuracy(result, fig8, &sim);
    result.add("setup_s", setup_s, "s");
    result.add("ops_per_s", ops_per_s, "1/s");
    result.add("peak_rss_mb", rss_mb, "MB");
    result.add("sim_cycles_per_op", sim.cyclesPerOp, "cycles");
    result.add("pm_bytes_per_op", sim.pmBytesPerOp, "B");
    result.add("sim_p50_cycles", sim.p50, "cycles");
    result.add("sim_p99_cycles", sim.p99, "cycles");
    result.add("sim_p999_cycles", sim.p999, "cycles");
    result.add("sim_ops_per_gcycle", sim.opsPerGcycle, "1/Gcycle");
    result.add("paper_speedup_err", sim.speedupErr, "ratio");
    result.add("paper_traffic_err", sim.trafficErr, "ratio");
}

} // namespace perfbench

namespace
{

using perfbench::RunOptions;
using perfbench::RunResult;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench_driver --workload "
                 "<paper-figures|kv-update|kv-read-spill|crash-sweep> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n",
                 why);
    std::exit(2);
}

RunOptions
parse(int argc, char **argv)
{
    RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
            if (*end || !*value)
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, &end);
            if (*end || !*value || !(opt.seconds > 0) ||
                opt.seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                usage("--trace takes 0 or 1");
            opt.trace = value[0] == '1';
        } else if (flag == "--trace-file") {
            opt.tracePath = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

void
printResult(const RunResult &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const perfbench::Metric &m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opt = parse(argc, argv);
    RunResult result;
    if (opt.workload == "paper-figures")
        result = perfbench::runPaperFigures(opt);
    else if (opt.workload == "kv-update" || opt.workload == "kv-read-spill")
        result = perfbench::runKv(opt);
    else if (opt.workload == "crash-sweep")
        result = perfbench::runCrashSweepWorkload(opt);
    else
        usage(("unknown workload " + opt.workload).c_str());
    std::fflush(stderr);
    printResult(result);
    return result.correct ? 0 : 1;
}
