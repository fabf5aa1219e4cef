/**
 * @file
 * paper-figures workload: every registered figure except the CI
 * "sample" sweep (236 cells), on one worker, through the same
 * runCases() call `slpmt_bench --figure=all` makes. An op is one
 * committed simulated transaction. Insert-only, cache-resident and
 * logging-heavy: it loads the txn, logbuf and mem layers and takes
 * only cold cache misses.
 */

#include <cmath>
#include <cstdio>

#include "layers.hh"
#include "service/service.hh"
#include "sim/figures.hh"
#include "sim_summary.hh"
#include "trace.hh"
#include "workloads/factory.hh"

namespace perfbench
{

using namespace slpmt;

namespace
{

/** Section VI-D headline numbers of the paper (EXPERIMENTS.md). */
constexpr double paperSpeedupOverFg = 1.57;
constexpr double paperTrafficCut = 0.35;

struct FigureCases
{
    std::string name;
    std::vector<ExperimentCase> cases;
};

/** Every figure but "sample", each cell seeded from @p seed; with
 *  @p zero_ops the same cells with no operations (the set-up pass). */
std::vector<FigureCases>
benchFigures(std::uint64_t seed, bool zero_ops)
{
    std::vector<FigureCases> out;
    for (const FigureSpec &fig : figureRegistry()) {
        if (fig.name == "sample")
            continue;
        FigureCases f{fig.name, fig.cases()};
        for (ExperimentCase &c : f.cases) {
            c.cfg.ycsb.seed = seed;
            if (zero_ops)
                c.cfg.ycsb.numOps = 0;
        }
        out.push_back(std::move(f));
    }
    return out;
}

std::vector<ExperimentCase>
flatten(const std::vector<FigureCases> &figs)
{
    std::vector<ExperimentCase> all;
    for (const FigureCases &f : figs)
        all.insert(all.end(), f.cases.begin(), f.cases.end());
    return all;
}

bool
sameSimResults(const MatrixResult &a, const MatrixResult &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const ExperimentResult &x = a.results[i];
        const ExperimentResult &y = b.results[i];
        if (a.cases[i].key != b.cases[i].key || x.cycles != y.cycles ||
            x.pmWriteBytes != y.pmWriteBytes || x.commits != y.commits ||
            x.stats != y.stats)
            return false;
    }
    return true;
}

/** Simulated summary of the suite: cycles and PM bytes per committed
 *  transaction; request throughput of the service cells, and the
 *  latency of their mutating requests -- the committed transactions
 *  that are this workload's ops -- with the cells' histograms merged
 *  bucket by bucket. */
SimSummary
summarise(const MatrixResult &res, double *ops, double *cycles,
          StatsSnapshot *folded)
{
    SimSummary sim;
    double pm_bytes = 0;
    double svc_requests = 0;
    double svc_makespan = 0;
    StatsRegistry::HistogramData lat;
    lat.bounds = serviceLatencyBounds();
    lat.buckets.assign(lat.bounds.size() + 1, 0);
    lat.min = 0;
    lat.max = lat.bounds.back();
    *ops = 0;
    *cycles = 0;
    for (std::size_t i = 0; i < res.results.size(); ++i) {
        const ExperimentResult &r = res.results[i];
        *ops += static_cast<double>(r.commits);
        *cycles += static_cast<double>(r.cycles);
        pm_bytes += static_cast<double>(r.pmWriteBytes);
        foldInto(*folded, r.stats);
        if (res.cases[i].cfg.service.shards == 0)
            continue;
        svc_requests += static_cast<double>(res.cases[i].cfg.ycsb.numOps);
        svc_makespan += static_cast<double>(r.cycles);
        for (std::size_t b = 0; b < lat.buckets.size(); ++b) {
            const std::string key =
                b < lat.bounds.size()
                    ? "service.commitLatency.le" +
                          std::to_string(lat.bounds[b])
                    : std::string("service.commitLatency.inf");
            const auto it = r.stats.find(key);
            if (it != r.stats.end()) {
                lat.buckets[b] += it->second;
                lat.count += it->second;
            }
        }
    }
    sim.cyclesPerOp = ratio(*cycles, *ops);
    sim.pmBytesPerOp = ratio(pm_bytes, *ops);
    sim.p50 = static_cast<double>(lat.percentile(50, 100));
    sim.p99 = static_cast<double>(lat.percentile(99, 100));
    sim.p999 = static_cast<double>(lat.percentile(999, 1000));
    sim.opsPerGcycle = ratio(svc_requests * 1e9, svc_makespan);
    return sim;
}

} // namespace

void
paperAccuracy(RunResult &result, const MatrixResult *fig8, SimSummary *out)
{
    MatrixResult ran;
    if (!fig8) {
        ran = runCases(findFigure("fig8")->cases(), 1);
        fig8 = &ran;
    }
    std::string why;
    result.check(fig8->allVerified(&why), "fig8 cells verified: " + why);
    double log_sum = 0;
    double cut_sum = 0;
    const auto &kernels = kernelWorkloads();
    for (const std::string &w : kernels) {
        const ExperimentResult &fg = fig8->get(caseKey(w, SchemeKind::FG));
        const ExperimentResult &sl = fig8->get(caseKey(w, SchemeKind::SLPMT));
        log_sum += std::log(static_cast<double>(fg.cycles) /
                            static_cast<double>(sl.cycles));
        cut_sum += sl.trafficReductionOver(fg);
    }
    const double n = static_cast<double>(kernels.size());
    out->speedupErr =
        std::fabs(std::exp(log_sum / n) / paperSpeedupOverFg - 1.0);
    out->trafficErr = std::fabs(cut_sum / n / paperTrafficCut - 1.0);
}

RunResult
runPaperFigures(const RunOptions &opt)
{
    RunResult result;
    const std::vector<FigureCases> figs = benchFigures(opt.seed, false);
    const std::vector<ExperimentCase> cases = flatten(figs);
    std::string why;

    if (opt.trace) {
        // Reference untraced pass, then the same cells one runCases()
        // call per cell under sim.cell spans.
        const Clock::time_point t0 = Clock::now();
        const MatrixResult ref = runCases(cases, 1);
        const double untraced_s = secondsSince(t0);
        result.check(ref.allVerified(&why), "figure cells verified: " + why);

        Tracer tracer("paper-figures seed=" + std::to_string(opt.seed));
        MatrixResult traced;
        const Clock::time_point t1 = Clock::now();
        for (const FigureCases &f : figs) {
            Tracer::Span fig_span(tracer, "sim.figure");
            for (const ExperimentCase &c : f.cases) {
                Tracer::Span cell_span(tracer, "sim.cell");
                MatrixResult one = runCases({c}, 1);
                traced.cases.push_back(one.cases.front());
                traced.results.push_back(std::move(one.results.front()));
            }
        }
        const double traced_s = secondsSince(t1);
        result.check(sameSimResults(ref, traced),
                     "traced figure cells equal the untraced ones");

        double ops = 0;
        double cycles = 0;
        StatsSnapshot folded;
        summarise(ref, &ops, &cycles, &folded);
        HostLayerValues host;
        std::vector<double> cell_ms;
        for (double d : tracer.durations("sim.cell"))
            cell_ms.push_back(d * 1e3);
        host["sim.cell_ms.p50"] = quantile(cell_ms, 0.50);
        host["sim.cell_ms.p90"] = quantile(cell_ms, 0.90);
        host["sim.mcycles_per_host_s"] = cycles / untraced_s / 1e6;
        probeMachineCosts(tracer, host);
        std::printf("trace overhead: untraced %.3f s, traced %.3f s "
                    "(%.3fx)\n",
                    untraced_s, traced_s, traced_s / untraced_s);
        finishTrace(tracer, opt);
        addLayerMetrics(result, host, folded, {ops, cycles});
        result.attempted = ref.results.size();
        return result;
    }

    // Figures run one runCases() call at a time, round robin, as
    // `slpmt_bench --figure=all` runs them, with the host-speed
    // calibration between calls; a suite pass is the sum of each
    // figure's median scaled time. Set-up is the same with no ops.
    const std::size_t n = figs.size();
    const std::vector<FigureCases> zero = benchFigures(opt.seed, true);
    const PassTimes setup_times =
        timedPasses(setupSeconds, n * setupMinPasses, [&](std::size_t unit) {
            const MatrixResult r = runCases(zero[unit % n].cases, 1);
            result.check(r.allVerified(&why),
                         "zero-op cells verified: " + why);
        });

    std::vector<MatrixResult> first_round;
    const PassTimes times =
        timedPasses(opt.seconds, n, [&](std::size_t unit) {
            MatrixResult r = runCases(figs[unit % n].cases, 1);
            if (unit < n) {
                first_round.push_back(std::move(r));
                return;
            }
            result.check(sameSimResults(first_round[unit % n], r),
                         "repeated figures repeat their simulated results "
                         "exactly");
        });
    MatrixResult first;
    for (const MatrixResult &r : first_round) {
        first.cases.insert(first.cases.end(), r.cases.begin(), r.cases.end());
        first.results.insert(first.results.end(), r.results.begin(),
                             r.results.end());
    }

    result.attempted = first.results.size();
    for (const ExperimentResult &r : first.results)
        if (!r.verified) {
            ++result.failed;
            std::fprintf(stderr, "unverified cell %s: %s\n",
                         r.workload.c_str(), r.failure.c_str());
        }
    result.check(result.failed == 0, "every figure cell verified");

    double ops = 0;
    double cycles = 0;
    StatsSnapshot folded;
    const SimSummary sim = summarise(first, &ops, &cycles, &folded);
    // At Figure 8's registered seed the suite's own fig8 cells are the
    // registered ones; reuse them for the paper-accuracy pair.
    const MatrixResult *fig8 = nullptr;
    if (opt.seed == findFigure("fig8")->cases().front().cfg.ycsb.seed)
        for (std::size_t f = 0; f < n; ++f)
            if (figs[f].name == "fig8")
                fig8 = &first_round[f];
    const double setup_s = setup_times.scaledSeconds(n);
    const double pass_s = times.scaledSeconds(n);
    std::printf("paper-figures: %zu cells, %.0f committed txns; scaled "
                "suite seconds: set-up %.4f, pass %.4f\n",
                first.results.size(), ops, setup_s, pass_s);
    printTimes("setup passes", setup_times);
    printTimes("measured passes", times);
    addEndToEnd(result, setup_s, ops / pass_s, sim, fig8);
    return result;
}

} // namespace perfbench
