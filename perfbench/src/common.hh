/**
 * @file
 * Shared plumbing of the benchmark driver: run options, the result
 * record every workload fills, and host-time helpers.
 *
 * Host metrics (seconds, ops per host second, RSS) measure the
 * simulator; host times are scaled to a reference host speed (see
 * calibrate.cc). Simulated metrics (cycles, PM bytes) measure the
 * modelled design and repeat exactly at a fixed seed.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line options of one benchmark invocation. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;   //!< measured-phase budget
    bool trace = false;    //!< traced run: per-layer metrics
    std::string tracePath; //!< Chrome trace-event output
};

/** Zero-operation set-up passes repeat for at least this many host
 *  seconds and setupMinPasses rounds; setup_s is their scaled median. */
constexpr double setupSeconds = 3.0;
constexpr std::size_t setupMinPasses = 3;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run measured and checked. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a benchmark correctness check; a failed one makes the
     *  run incorrect and is reported on stderr. */
    void check(bool ok, const std::string &what);
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank @p q quantile (0..1) of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** a / b, 0 when b is 0. */
inline double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Seconds the calibration kernel takes on the reference host speed
 *  that host timings are scaled to. */
constexpr double calibrationNominal = 0.075;

/** Run the fixed calibration kernel once; its host seconds. */
double calibrationSeconds();

/** Host seconds of repeated passes, with the host-speed scale of each. */
struct PassTimes
{
    std::vector<double> raw;    //!< measured seconds per pass
    std::vector<double> scale;  //!< calibrationNominal / calibration

    /**
     * Host seconds of one round of @p groups kinds of pass run round
     * robin (pass i is of kind i % groups): the sum over kinds of the
     * median scaled time of that kind's passes.
     */
    double scaledSeconds(std::size_t groups) const;
};

/**
 * Repeat @p pass until @p seconds of host time are spent (at least
 * @p min_passes times). The calibration kernel runs between passes, and
 * each pass is scaled by the mean of the calibrations around it.
 */
template <typename Fn>
PassTimes
timedPasses(double seconds, std::size_t min_passes, Fn &&pass)
{
    PassTimes t;
    const Clock::time_point start = Clock::now();
    double before = calibrationSeconds();
    while (t.raw.size() < min_passes || secondsSince(start) < seconds) {
        const Clock::time_point t0 = Clock::now();
        pass(t.raw.size());
        t.raw.push_back(secondsSince(t0));
        const double after = calibrationSeconds();
        t.scale.push_back(2 * calibrationNominal / (before + after));
        before = after;
    }
    return t;
}

/** Print the raw pass times and the host-speed scales. */
void printTimes(const char *label, const PassTimes &times);

/** Workload entry points (one translation unit each). */
RunResult runPaperFigures(const RunOptions &opt);
RunResult runKv(const RunOptions &opt);
RunResult runCrashSweepWorkload(const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
