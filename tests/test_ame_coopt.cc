/**
 * @file
 * Tests for the average-mismatch-error analysis (Eq. 18) and the
 * hardware-configuration co-optimization (Section 5.4) through
 * DesignSpaceExplorer.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/ame.h"
#include "core/explorer.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

aqfp::AttenuationModel
atten()
{
    return aqfp::AttenuationModel();
}

} // namespace

TEST(Ame, NonNegative)
{
    const AmeAnalyzer analyzer(atten());
    for (double cs : {8.0, 16.0, 36.0})
        for (double gz : {0.8, 2.4, 4.0})
            EXPECT_GE(analyzer.ame(cs, gz), 0.0);
}

TEST(Ame, NarrowGrayZoneSaturatesExpectation)
{
    // With an (unphysically) narrow gray zone the expected SN value
    // saturates to +/-Cs for tiny |x| — a large mismatch against the
    // Gaussian bulk of activations. Widening the zone within the
    // physical range softens the saturation and lowers the AME. This is
    // the nonlinearity the co-optimization trades against randomness.
    const AmeAnalyzer analyzer(atten());
    const double cs = 16.0;
    EXPECT_GT(analyzer.ame(cs, 0.4), analyzer.ame(cs, 8.0));
}

TEST(Ame, SweepCoversGrid)
{
    const AmeAnalyzer analyzer(atten());
    const auto pts = analyzer.sweep({8.0, 16.0}, {1.0, 2.0, 3.0});
    EXPECT_EQ(pts.size(), 6u);
}

TEST(Ame, MinimizeReturnsGridMinimum)
{
    const AmeAnalyzer analyzer(atten());
    const std::vector<double> css = {8.0, 16.0, 36.0, 72.0};
    const std::vector<double> gzs = {0.8, 1.6, 2.4, 3.2};
    const auto best = analyzer.minimize(css, gzs);
    for (const auto &p : analyzer.sweep(css, gzs))
        EXPECT_LE(best.ame, p.ame + 1e-15);
}

TEST(Ame, IntegrationResolutionConverged)
{
    AmeOptions coarse;
    coarse.intervals = 500;
    AmeOptions fine;
    fine.intervals = 8000;
    const AmeAnalyzer a(atten(), coarse);
    const AmeAnalyzer b(atten(), fine);
    EXPECT_NEAR(a.ame(16.0, 2.4), b.ame(16.0, 2.4),
                1e-4 * std::max(1.0, b.ame(16.0, 2.4)));
}

class AmeGrayZoneSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(AmeGrayZoneSweep, MismatchGrowsWithValueDomainGrayZone)
{
    // For a fixed physical gray zone, larger crossbars attenuate more,
    // widening the value-domain zone and flattening the expectation
    // curve: the mismatch error for mid-range activations grows.
    const double gz = GetParam();
    const AmeAnalyzer analyzer(atten());
    const double small = analyzer.ame(8.0, gz);
    const double large = analyzer.ame(144.0, gz);
    EXPECT_GT(large / (small + 1e-12), 1.0) << "gz=" << gz;
}

INSTANTIATE_TEST_SUITE_P(GrayZones, AmeGrayZoneSweep,
                         ::testing::Values(1.6, 2.4, 3.2));

// --- co-optimizer ---

TEST(CoOpt, EnumerateRespectsConstraint)
{
    const DesignSpaceExplorer explorer(atten());
    CoOptSpace space;
    space.crossbarSizes = {8, 16, 36};
    space.grayZones = {2.4};
    space.bitstreamLengths = {1, 8, 32};
    space.minTopsPerWatt = 0.0;
    const auto all =
        explorer.explore(aqfp::workloads::mnistMlp(), space);
    EXPECT_EQ(all.size(), 9u);

    // Tighten the constraint: candidates must shrink and all satisfy it.
    double median = all[all.size() / 2].energy.topsPerWatt;
    space.minTopsPerWatt = median;
    const auto feasible =
        explorer.explore(aqfp::workloads::mnistMlp(), space);
    EXPECT_LT(feasible.size(), all.size());
    for (const auto &c : feasible)
        EXPECT_GE(c.energy.topsPerWatt, median);
}

TEST(CoOpt, BestByAmeIsFeasibleMinimum)
{
    const DesignSpaceExplorer explorer(atten());
    CoOptSpace space;
    space.crossbarSizes = {8, 16, 36, 72};
    space.grayZones = {0.8, 2.4, 4.0};
    space.bitstreamLengths = {4};
    const auto cands =
        explorer.explore(aqfp::workloads::mnistMlp(), space);
    const auto best = DesignSpaceExplorer::best(cands, costs::ame());
    for (const auto &c : cands)
        EXPECT_LE(best.ame, c.ame + 1e-15);
}

TEST(CoOpt, OptimizeUsesCallback)
{
    const DesignSpaceExplorer explorer(atten());
    CoOptSpace space;
    space.crossbarSizes = {8, 16};
    space.grayZones = {2.4};
    space.bitstreamLengths = {1, 16};
    // Fake accuracy: prefers Cs=16, L=16.
    ExploreOptions options;
    options.accuracy = [](const aqfp::AcceleratorConfig &c) {
        return (c.crossbarSize == 16 ? 0.5 : 0.0)
            + (c.bitstreamLength == 16 ? 0.4 : 0.0);
    };
    const auto best = DesignSpaceExplorer::best(
        explorer.explore(aqfp::workloads::mnistMlp(), space, options),
        costs::accuracyLoss());
    EXPECT_EQ(best.config.crossbarSize, 16u);
    EXPECT_EQ(best.config.bitstreamLength, 16u);
    ASSERT_TRUE(best.accuracy.has_value());
    EXPECT_NEAR(*best.accuracy, 0.9, 1e-12);
}

TEST(CoOpt, JjBudgetFiltersLargeConfigs)
{
    const DesignSpaceExplorer explorer(atten());
    CoOptSpace space;
    space.crossbarSizes = {8, 144};
    space.grayZones = {2.4};
    space.bitstreamLengths = {1};
    const auto unbounded =
        explorer.explore(aqfp::workloads::mnistMlp(), space);
    ASSERT_EQ(unbounded.size(), 2u);
    const std::size_t small_jj =
        std::min(unbounded[0].energy.totalJj,
                 unbounded[1].energy.totalJj);
    space.maxTotalJj = small_jj + 1;
    const auto bounded =
        explorer.explore(aqfp::workloads::mnistMlp(), space);
    EXPECT_EQ(bounded.size(), 1u);
}
