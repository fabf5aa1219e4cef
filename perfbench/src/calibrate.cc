/**
 * @file
 * Host-speed calibration kernel.
 *
 * The benchmark's VM host changes speed by up to 2x over minutes (other
 * tenants share its cores and memory). A fixed kernel timed around every
 * pass measures that speed, and host timings are scaled to the speed
 * at which the kernel takes calibrationNominal seconds. The kernel
 * resembles the simulator's hot loop -- a set-associative cache model
 * over a skewed address stream plus a hash map -- so both slow down
 * alike. Over 50 kv-update passes, with a 1.5M-step version of this
 * kernel, the medians of 8-pass windows drifted 3% scaled and 13% raw.
 *
 * The kernel is part of the benchmark's definition: changing it, or
 * calibrationNominal, rescales every host metric.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common.hh"

namespace perfbench
{

namespace
{

struct Line
{
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t lastUse = 0;
    bool dirty = false;
};

constexpr int calibrationSets = 2048;
constexpr int calibrationWays = 8;
constexpr int calibrationSteps = 2'000'000;

/** Receives the kernel's result so the loop cannot be discarded. */
volatile std::uint64_t calibrationSink = 0;

} // namespace

double
calibrationSeconds()
{
    const Clock::time_point start = Clock::now();
    std::vector<Line> lines(calibrationSets * calibrationWays);
    std::unordered_map<std::uint64_t, std::uint64_t> owners;
    owners.reserve(1 << 15);
    std::uint64_t x = 12345;
    std::uint64_t hits = 0;
    for (std::uint64_t step = 1; step <= calibrationSteps; ++step) {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        const std::uint64_t line = ((z % 100'000) * 64 >> ((z >> 60) & 3)) >> 6;
        Line *set = &lines[(line % calibrationSets) * calibrationWays];
        int victim = 0;
        bool hit = false;
        for (int w = 0; w < calibrationWays; ++w) {
            if (set[w].tag == line) {
                hit = true;
                set[w].lastUse = step;
                set[w].dirty |= z & 1;
                break;
            }
            if (set[w].lastUse < set[victim].lastUse)
                victim = w;
        }
        if (hit) {
            ++hits;
        } else {
            set[victim] = {line, step, static_cast<bool>(z & 1)};
        }
        if ((z & 15) == 0) {
            owners[line] += z;
            if (owners.size() > 30'000)
                owners.erase(owners.begin());
        }
    }
    calibrationSink = hits + owners.size();
    return secondsSince(start);
}

} // namespace perfbench
