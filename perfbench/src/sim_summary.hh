/**
 * @file
 * The simulated end-to-end metrics every workload reports, and the
 * helpers that compute the paper-accuracy pair from Figure 8 cells.
 */

#ifndef PERFBENCH_SIM_SUMMARY_HH
#define PERFBENCH_SIM_SUMMARY_HH

#include <cstdint>

#include "common.hh"
#include "service/service.hh"
#include "sim/orchestrator.hh"

namespace perfbench
{

/** Simulated end-to-end metrics of one workload run. */
struct SimSummary
{
    double cyclesPerOp = 0;
    double pmBytesPerOp = 0;
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
    double opsPerGcycle = 0;
    double speedupErr = 0;
    double trafficErr = 0;
};

/**
 * Fill the paper-accuracy pair from Figure 8 as registered -- the
 * configuration and seed of the comparison with the paper in
 * EXPERIMENTS.md: |geomean FG/SLPMT cycles over the kernels / 1.57 - 1|
 * and |mean SLPMT traffic cut over FG / 0.35 - 1| (the paper's Section
 * VI-D headline numbers). @p fig8 holds those cells when the workload
 * already ran them; when null, Figure 8 runs here on one worker.
 * Checks every cell verified.
 */
void paperAccuracy(RunResult &result, const slpmt::MatrixResult *fig8,
                   SimSummary *out);

/**
 * Simulated summary of one runService() result over @p requests of
 * @p mix: shard cycles summed (not the makespan) per request, PM write
 * bytes per request, the request latency percentiles and requests per
 * Gcycle of makespan. Folds the merged stats into @p folded and
 * returns the summed shard cycles in @p cycles.
 */
SimSummary serviceSummary(const slpmt::KvServiceResult &run,
                          slpmt::YcsbMix mix, double requests,
                          slpmt::StatsSnapshot *folded, double *cycles);

/**
 * Append the end-to-end metrics in BENCHMARK.json order. Called once
 * the workload's passes are done: it reads the peak RSS first, then
 * fills the paper-accuracy pair (see paperAccuracy(), with @p fig8), so
 * Figure 8 never sets the workload's peak RSS.
 */
void addEndToEnd(RunResult &result, double setup_s, double ops_per_s,
                 SimSummary sim,
                 const slpmt::MatrixResult *fig8 = nullptr);

} // namespace perfbench

#endif // PERFBENCH_SIM_SUMMARY_HH
