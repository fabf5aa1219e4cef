/**
 * @file
 * The service load generator: determinism (same seed, same bytes),
 * key-derivation invariants, exact pinned-seed YCSB mix counts and
 * stream hashes (the golden-stats pattern: exact equalities on a
 * deterministic generator), Zipfian rank-frequency slope, value-size
 * distribution pins, and hot-key churn rotation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "workloads/loadgen.hh"

namespace slpmt
{
namespace
{

/** FNV-1a over every field of every op: the stream's byte identity. */
std::uint64_t
streamHash(const std::vector<SvcOp> &ops)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const SvcOp &op : ops) {
        fold(static_cast<std::uint64_t>(op.kind));
        fold(op.key);
        fold(op.record);
        fold(op.valueBytes);
        fold(op.valueSalt);
        fold(op.scanLen);
    }
    return h;
}

struct MixCounts
{
    std::size_t reads = 0;
    std::size_t updates = 0;
    std::size_t inserts = 0;
    std::size_t scans = 0;
    std::size_t rmws = 0;
};

MixCounts
countOps(const std::vector<SvcOp> &ops)
{
    MixCounts c;
    for (const SvcOp &op : ops) {
        switch (op.kind) {
          case SvcOpKind::Read: c.reads++; break;
          case SvcOpKind::Update: c.updates++; break;
          case SvcOpKind::Insert: c.inserts++; break;
          case SvcOpKind::Scan: c.scans++; break;
          case SvcOpKind::ReadModifyWrite: c.rmws++; break;
        }
    }
    return c;
}

LoadGenConfig
pinnedConfig(YcsbMix mix)
{
    LoadGenConfig cfg;
    cfg.mix = mix;
    cfg.skew = KeySkew::Zipfian;
    cfg.keySpace = std::size_t{1} << 20;
    cfg.preloadRecords = 2000;
    cfg.numOps = 10000;
    cfg.valueBytesMin = 64;
    cfg.valueBytesMax = 64;
    cfg.seed = 42;
    return cfg;
}

TEST(LoadGen, SameSeedIsByteIdentical)
{
    const LoadGenConfig cfg = pinnedConfig(YcsbMix::A);
    const SvcLoad a = svcGenerate(cfg);
    const SvcLoad b = svcGenerate(cfg);
    EXPECT_EQ(a.keySalt, b.keySalt);
    EXPECT_EQ(a.preload, b.preload);
    EXPECT_EQ(a.ops, b.ops);

    LoadGenConfig other = cfg;
    other.seed = 43;
    const SvcLoad c = svcGenerate(other);
    EXPECT_NE(streamHash(a.ops), streamHash(c.ops));
}

TEST(LoadGen, KeysAreDistinctNonzeroAndBounded)
{
    LoadGenConfig cfg = pinnedConfig(YcsbMix::D);  // insert-bearing
    cfg.numOps = 5000;
    const SvcLoad load = svcGenerate(cfg);

    std::set<std::uint64_t> keys;
    auto check = [&](const SvcOp &op) {
        EXPECT_NE(op.key, 0u);
        EXPECT_LT(op.key, std::uint64_t{1} << 63);
        EXPECT_EQ(op.key, svcKeyForRecord(op.record, load.keySalt));
        if (op.kind == SvcOpKind::Insert) {
            EXPECT_TRUE(keys.insert(op.key).second)
                << "duplicate inserted key " << op.key;
        }
    };
    for (const SvcOp &op : load.preload)
        check(op);
    for (const SvcOp &op : load.ops)
        check(op);
    // Non-insert ops only touch already-inserted records.
    for (const SvcOp &op : load.ops) {
        if (op.kind != SvcOpKind::Insert) {
            EXPECT_TRUE(keys.count(op.key))
                << "op targets a never-inserted record " << op.record;
        }
    }
}

// Exact pinned-seed mix counts and stream hashes: the generator is
// deterministic, so these are equalities, not tolerances. A failure
// means the stream changed — regenerate the table from the failure
// messages if that was intended.
struct GoldenMix
{
    YcsbMix mix;
    std::size_t reads, updates, inserts, scans, rmws;
    std::uint64_t hash;
};

const GoldenMix goldenMixes[] = {
    {YcsbMix::A, 5043, 4957, 0, 0, 0, 0x42ea9e829478fc41ull},
    {YcsbMix::B, 9485, 515, 0, 0, 0, 0x666aeda8f81ef5f9ull},
    {YcsbMix::C, 10000, 0, 0, 0, 0, 0x7ed9e85c55c9183bull},
    {YcsbMix::D, 9505, 0, 495, 0, 0, 0xcb381aa868b02d10ull},
    {YcsbMix::E, 0, 0, 498, 9502, 0, 0xed074d17dac29a42ull},
    {YcsbMix::F, 5043, 0, 0, 0, 4957, 0x2edabf38f4167e4bull},
};

TEST(LoadGen, PinnedMixCountsAndStreamHashesMatchExactly)
{
    for (const GoldenMix &golden : goldenMixes) {
        const SvcLoad load = svcGenerate(pinnedConfig(golden.mix));
        const MixCounts c = countOps(load.ops);
        const std::string label =
            std::string("mix ") + ycsbMixName(golden.mix);
        EXPECT_EQ(c.reads, golden.reads) << label;
        EXPECT_EQ(c.updates, golden.updates) << label;
        EXPECT_EQ(c.inserts, golden.inserts) << label;
        EXPECT_EQ(c.scans, golden.scans) << label;
        EXPECT_EQ(c.rmws, golden.rmws) << label;
        EXPECT_EQ(streamHash(load.ops), golden.hash) << label;
    }
}

// The op-mix ratios themselves (counts / numOps) must sit within 1%
// of the YCSB specification — independent of the pinned seed, so a
// regenerated golden table cannot silently drift off-spec.
TEST(LoadGen, MixRatiosWithinOnePercentOfSpec)
{
    struct Spec
    {
        YcsbMix mix;
        double reads, updates, inserts, scans, rmws;
    };
    const Spec specs[] = {
        {YcsbMix::A, 0.50, 0.50, 0, 0, 0},
        {YcsbMix::B, 0.95, 0.05, 0, 0, 0},
        {YcsbMix::C, 1.00, 0, 0, 0, 0},
        {YcsbMix::D, 0.95, 0, 0.05, 0, 0},
        {YcsbMix::E, 0, 0, 0.05, 0.95, 0},
        {YcsbMix::F, 0.50, 0, 0, 0, 0.50},
    };
    for (const Spec &spec : specs) {
        const SvcLoad load = svcGenerate(pinnedConfig(spec.mix));
        const MixCounts c = countOps(load.ops);
        const auto n = static_cast<double>(load.ops.size());
        EXPECT_NEAR(c.reads / n, spec.reads, 0.01)
            << ycsbMixName(spec.mix);
        EXPECT_NEAR(c.updates / n, spec.updates, 0.01)
            << ycsbMixName(spec.mix);
        EXPECT_NEAR(c.inserts / n, spec.inserts, 0.01)
            << ycsbMixName(spec.mix);
        EXPECT_NEAR(c.scans / n, spec.scans, 0.01)
            << ycsbMixName(spec.mix);
        EXPECT_NEAR(c.rmws / n, spec.rmws, 0.01)
            << ycsbMixName(spec.mix);
    }
}

// Rank-frequency slope of the raw Zipfian generator: a least-squares
// fit of log(freq) against log(rank+1) over the well-sampled head
// must recover -theta within tolerance.
TEST(LoadGen, ZipfianRankFrequencySlopeNearTheta)
{
    constexpr double theta = 0.99;
    constexpr std::uint64_t items = 10000;
    constexpr std::size_t draws = 400000;

    ZipfianGen zipf(theta);
    Rng rng(mix64(0x21f0ull));
    std::map<std::uint64_t, std::size_t> freq;
    for (std::size_t i = 0; i < draws; ++i)
        freq[zipf.next(rng, items)]++;

    // Head ranks only: each has thousands of samples, so sampling
    // noise is far below the fit tolerance.
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    std::size_t n = 0;
    for (std::uint64_t r = 0; r < 50; ++r) {
        ASSERT_GT(freq[r], 100u) << "rank " << r << " undersampled";
        const double x = std::log(static_cast<double>(r + 1));
        const double y = std::log(static_cast<double>(freq[r]));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        ++n;
    }
    const double slope =
        (static_cast<double>(n) * sxy - sx * sy) /
        (static_cast<double>(n) * sxx - sx * sx);
    EXPECT_NEAR(slope, -theta, 0.08)
        << "rank-frequency slope off the Zipfian exponent";

    // And the ranks must stay bounded.
    for (const auto &[rank, count] : freq)
        EXPECT_LT(rank, items);
}

// Uniform skew must not concentrate: the hottest record of a large
// draw stays within a small multiple of the mean frequency.
TEST(LoadGen, UniformSkewDoesNotConcentrate)
{
    LoadGenConfig cfg = pinnedConfig(YcsbMix::C);
    cfg.skew = KeySkew::Uniform;
    cfg.preloadRecords = 1000;
    cfg.numOps = 100000;
    const SvcLoad load = svcGenerate(cfg);

    std::map<std::uint64_t, std::size_t> freq;
    for (const SvcOp &op : load.ops)
        freq[op.record]++;
    std::size_t hottest = 0;
    for (const auto &[record, count] : freq)
        hottest = std::max(hottest, count);
    const double mean = static_cast<double>(cfg.numOps) /
                        static_cast<double>(cfg.preloadRecords);
    EXPECT_LT(static_cast<double>(hottest), mean * 2.0);

    // Zipfian over the same config concentrates hard.
    cfg.skew = KeySkew::Zipfian;
    const SvcLoad zload = svcGenerate(cfg);
    freq.clear();
    for (const SvcOp &op : zload.ops)
        freq[op.record]++;
    std::size_t zhot = 0;
    for (const auto &[record, count] : freq)
        zhot = std::max(zhot, count);
    EXPECT_GT(static_cast<double>(zhot), mean * 10.0);
}

// Value sizes: pinned distribution over [min, max], plus the exact
// golden sum/hash of the pinned draw.
TEST(LoadGen, ValueSizeDistributionPinned)
{
    LoadGenConfig cfg = pinnedConfig(YcsbMix::A);
    cfg.valueBytesMin = 64;
    cfg.valueBytesMax = 256;
    const SvcLoad load = svcGenerate(cfg);

    std::uint64_t sum = 0;
    std::size_t mutations = 0;
    for (const SvcOp &op : load.ops) {
        if (!op.isMutation())
            continue;
        ++mutations;
        EXPECT_GE(op.valueBytes, cfg.valueBytesMin);
        EXPECT_LE(op.valueBytes, cfg.valueBytesMax);
        sum += op.valueBytes;
    }
    ASSERT_GT(mutations, 0u);
    const double mean =
        static_cast<double>(sum) / static_cast<double>(mutations);
    EXPECT_NEAR(mean, 160.0, 8.0) << "value-size mean off the range";

    // Exact pins of the deterministic draw.
    EXPECT_EQ(sum, 804379u);
    EXPECT_EQ(streamHash(load.ops), 0x27fa06234159114eull);
}

// Hot-key churn: with rotation the hottest record changes across
// epochs; without it the hot set is stable.
TEST(LoadGen, HotKeyChurnRotatesTheHotSet)
{
    LoadGenConfig cfg = pinnedConfig(YcsbMix::C);
    cfg.numOps = 8000;
    cfg.churnInterval = 2000;

    auto hottestPerEpoch = [&](const SvcLoad &load) {
        std::vector<std::uint64_t> hottest;
        for (std::size_t e = 0; e < 4; ++e) {
            std::map<std::uint64_t, std::size_t> freq;
            for (std::size_t i = e * 2000; i < (e + 1) * 2000; ++i)
                freq[load.ops[i].record]++;
            std::uint64_t top = 0;
            std::size_t top_count = 0;
            for (const auto &[record, count] : freq) {
                if (count > top_count) {
                    top = record;
                    top_count = count;
                }
            }
            hottest.push_back(top);
        }
        return hottest;
    };

    const auto churned = hottestPerEpoch(svcGenerate(cfg));
    std::set<std::uint64_t> distinct(churned.begin(), churned.end());
    EXPECT_GE(distinct.size(), 2u)
        << "hot set never rotated across churn epochs";

    cfg.churnInterval = 0;
    const auto stable = hottestPerEpoch(svcGenerate(cfg));
    std::set<std::uint64_t> sdistinct(stable.begin(), stable.end());
    EXPECT_EQ(sdistinct.size(), 1u)
        << "hot set drifted without churn";
}

// Mix D reads "latest": read ranks map to recently inserted records.
TEST(LoadGen, MixDReadsTargetTheLatestRecords)
{
    LoadGenConfig cfg = pinnedConfig(YcsbMix::D);
    const SvcLoad load = svcGenerate(cfg);
    std::size_t recent = 0;
    std::size_t reads = 0;
    for (std::size_t i = 0; i < load.ops.size(); ++i) {
        const SvcOp &op = load.ops[i];
        if (op.kind != SvcOpKind::Read)
            continue;
        ++reads;
        // "Recent" = within the hottest 10% of the loaded prefix.
        if (op.record + cfg.preloadRecords / 10 >= cfg.preloadRecords)
            ++recent;
    }
    ASSERT_GT(reads, 0u);
    EXPECT_GT(static_cast<double>(recent) / static_cast<double>(reads),
              0.5)
        << "latest-distribution reads not skewed to recent records";
}

} // namespace
} // namespace slpmt

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
