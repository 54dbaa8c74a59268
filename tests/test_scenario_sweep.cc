/**
 * @file
 * Statistical test harness for the Monte-Carlo reliability/yield sweep:
 * the seeded fault-mask contract (byte-identical masks at any thread
 * count, nested across stuck fractions), the sweep's determinism
 * claims (thread counts, warm/cold model cache, golden JSON), and the
 * statistical properties of the reduced surface (mean accuracy
 * non-increasing in stuck fraction under CI bounds, yield monotone in
 * the accuracy floor, Wilson intervals).
 */

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario_sweep.h"
#include "crossbar/crossbar_array.h"
#include "crossbar/mapper.h"
#include "util/thread_pool.h"
#include "yield_surface_util.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

/** A deterministic +/-1 weight matrix for mapper-level tests. */
Tensor
testWeights(std::size_t fan_out, std::size_t fan_in)
{
    Tensor w(Shape{fan_out, fan_in});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = (i * 2654435761u) % 3 == 0 ? -1.0f : 1.0f;
    return w;
}

/** Flat copy of every tile's effective weights, in tile-major order. */
std::vector<int>
weightSnapshot(const crossbar::MappedLayer &layer)
{
    std::vector<int> out;
    for (const crossbar::CrossbarArray &tile : layer.tiles)
        for (std::size_t r = 0; r < tile.size(); ++r)
            for (std::size_t c = 0; c < tile.size(); ++c)
                out.push_back(tile.weightAt(r, c));
    return out;
}

/** Seed-inject every tile of @p layer (sequential reference path). */
std::size_t
injectAllTiles(crossbar::MappedLayer &layer, double fraction,
               std::uint64_t master, std::uint64_t chip)
{
    std::size_t stuck = 0;
    for (std::size_t rt = 0; rt < layer.rowTiles; ++rt)
        for (std::size_t ct = 0; ct < layer.colTiles; ++ct)
            stuck += layer.tile(rt, ct).injectStuckCellsSeeded(
                fraction, faultMaskSeed(master, chip, 0, rt, ct));
    return stuck;
}

/** The standard error of the mean of @p values. */
double
standardError(const std::vector<ChipResult> &chips)
{
    const double n = static_cast<double>(chips.size());
    double mean = 0.0;
    for (const ChipResult &c : chips)
        mean += c.accuracy;
    mean /= n;
    double var = 0.0;
    for (const ChipResult &c : chips)
        var += (c.accuracy - mean) * (c.accuracy - mean);
    var /= std::max(1.0, n - 1.0);
    return std::sqrt(var / n);
}

} // namespace

// ------------------------------------------------ seeded fault masks ---

TEST(SeededFaultMaskTest, SameSeedSameMask)
{
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(16, atten);
    crossbar::MappedLayer a = mapper.map(testWeights(40, 70));
    crossbar::MappedLayer b = mapper.map(testWeights(40, 70));
    const std::size_t stuck_a = injectAllTiles(a, 0.2, 99, 5);
    const std::size_t stuck_b = injectAllTiles(b, 0.2, 99, 5);
    EXPECT_EQ(stuck_a, stuck_b);
    EXPECT_GT(stuck_a, 0u);
    EXPECT_EQ(weightSnapshot(a), weightSnapshot(b));
}

TEST(SeededFaultMaskTest, DifferentChipDifferentMask)
{
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(16, atten);
    crossbar::MappedLayer a = mapper.map(testWeights(40, 70));
    crossbar::MappedLayer b = mapper.map(testWeights(40, 70));
    injectAllTiles(a, 0.2, 99, 5);
    injectAllTiles(b, 0.2, 99, 6);
    EXPECT_NE(weightSnapshot(a), weightSnapshot(b));
}

TEST(SeededFaultMaskTest, ByteIdenticalAcrossThreadCounts)
{
    // The satellite regression: the same chip index yields a
    // byte-identical mask whether tiles are injected sequentially or
    // from a 4- or 8-thread pool in any scheduling order.
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(16, atten);
    crossbar::MappedLayer reference = mapper.map(testWeights(50, 100));
    injectAllTiles(reference, 0.15, 1234, 7);
    const std::vector<int> want = weightSnapshot(reference);

    for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                std::size_t{8}}) {
        crossbar::MappedLayer layer = mapper.map(testWeights(50, 100));
        util::ThreadPool pool(threads);
        pool.parallelFor(layer.tiles.size(), [&](std::size_t i) {
            const std::size_t rt = i / layer.colTiles;
            const std::size_t ct = i % layer.colTiles;
            layer.tile(rt, ct).injectStuckCellsSeeded(
                0.15, faultMaskSeed(1234, 7, 0, rt, ct));
        });
        EXPECT_EQ(weightSnapshot(layer), want)
            << "mask diverged at " << threads << " threads";
    }
}

TEST(SeededFaultMaskTest, MasksNestedAcrossFractions)
{
    // bernoulliFill draws are pure functions of (seed, position), so a
    // higher fraction only widens the acceptance threshold: every cell
    // stuck at 5% must also be stuck at 25% under the same seed.
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(16, atten);
    crossbar::MappedLayer low = mapper.map(testWeights(48, 96));
    crossbar::MappedLayer high = mapper.map(testWeights(48, 96));
    const std::vector<int> pristine = weightSnapshot(low);
    const std::size_t stuck_low = injectAllTiles(low, 0.05, 77, 3);
    const std::size_t stuck_high = injectAllTiles(high, 0.25, 77, 3);
    EXPECT_LE(stuck_low, stuck_high);
    const std::vector<int> low_w = weightSnapshot(low);
    const std::vector<int> high_w = weightSnapshot(high);
    for (std::size_t i = 0; i < pristine.size(); ++i)
        if (pristine[i] != 0 && low_w[i] == 0)
            EXPECT_EQ(high_w[i], 0)
                << "cell " << i << " stuck at 5% but healthy at 25%";
}

TEST(SeededFaultMaskTest, ZeroAndFullFractionEdges)
{
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(8, atten);
    crossbar::MappedLayer layer = mapper.map(testWeights(8, 8));
    EXPECT_EQ(injectAllTiles(layer, 0.0, 1, 1), 0u);
    EXPECT_EQ(weightSnapshot(layer),
              weightSnapshot(mapper.map(testWeights(8, 8))));
    EXPECT_EQ(injectAllTiles(layer, 1.0, 1, 1), 64u);
    for (int w : weightSnapshot(layer))
        EXPECT_EQ(w, 0);
}

TEST(SeededFaultMaskTest, FaultMaskSeedSeparatesArguments)
{
    const std::uint64_t base = faultMaskSeed(1, 2, 3, 4, 5);
    EXPECT_EQ(base, faultMaskSeed(1, 2, 3, 4, 5));
    EXPECT_NE(base, faultMaskSeed(2, 2, 3, 4, 5));
    EXPECT_NE(base, faultMaskSeed(1, 3, 3, 4, 5));
    EXPECT_NE(base, faultMaskSeed(1, 2, 4, 4, 5));
    EXPECT_NE(base, faultMaskSeed(1, 2, 3, 5, 5));
    EXPECT_NE(base, faultMaskSeed(1, 2, 3, 4, 6));
}

TEST(SeededFaultMaskTest, EvaluatorInjectionThreadInvariant)
{
    // The evaluator-level wrapper: identical chips regardless of the
    // executor thread configuration.
    const auto &work = yield_surface_util::demoWorkload();
    const aqfp::AttenuationModel atten;
    std::vector<double> accuracies;
    std::vector<std::size_t> stucks;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                                std::size_t{8}}) {
        HardwareConfig cfg{16, 8, 2.4, false, 0.25, threads, 8};
        HardwareEvaluator eval(atten, cfg);
        eval.mapMlp(*work.mlp);
        stucks.push_back(
            eval.injectVariationSeeded(0.05, 0.1, 2024, 3));
        Rng rng(55);
        accuracies.push_back(
            eval.evaluate(work.dataset.test, 16, rng));
    }
    EXPECT_EQ(stucks[0], stucks[1]);
    EXPECT_EQ(stucks[0], stucks[2]);
    EXPECT_EQ(accuracies[0], accuracies[1]);
    EXPECT_EQ(accuracies[0], accuracies[2]);
}

// ------------------------------------------------ validation & wilson ---

TEST(ScenarioGridTest, ValidationRejectsBadAxes)
{
    ScenarioGrid grid;
    grid.stuckFractions.clear();
    EXPECT_THROW(grid.validate(), std::invalid_argument);
    grid = ScenarioGrid{};
    grid.stuckFractions = {1.5};
    EXPECT_THROW(grid.validate(), std::invalid_argument);
    grid = ScenarioGrid{};
    grid.grayZoneScales = {0.0};
    EXPECT_THROW(grid.validate(), std::invalid_argument);
    grid = ScenarioGrid{};
    grid.configs.push_back(ScenarioConfig{0, 16});
    EXPECT_THROW(grid.validate(), std::invalid_argument);
    grid = ScenarioGrid{};
    grid.attenuationFits.push_back(aqfp::PowerLawFit{-1.0, 0.5, 0.0});
    EXPECT_THROW(grid.validate(), std::invalid_argument);
    EXPECT_NO_THROW(ScenarioGrid{}.validate());
}

TEST(ScenarioGridTest, OptionValidationRejectsBadValues)
{
    SweepOptions opts;
    opts.chipsPerCorner = 0;
    EXPECT_THROW(opts.validate(), std::invalid_argument);
    opts = SweepOptions{};
    opts.histogramBins = 0;
    EXPECT_THROW(opts.validate(), std::invalid_argument);
    opts = SweepOptions{};
    opts.accuracyFloors = {1.25};
    EXPECT_THROW(opts.validate(), std::invalid_argument);
    opts = SweepOptions{};
    opts.grayZoneSigma = -0.1;
    EXPECT_THROW(opts.validate(), std::invalid_argument);
    EXPECT_NO_THROW(SweepOptions{}.validate());
}

TEST(ScenarioGridTest, CornersEnumerateInDeterministicOrder)
{
    ScenarioGrid grid;
    grid.stuckFractions = {0.0, 0.1};
    grid.grayZoneScales = {1.0, 2.0};
    grid.configs = {ScenarioConfig{8, 4}, ScenarioConfig{16, 8}};
    EXPECT_EQ(grid.cornerCount(), 8u);

    const auto &work = yield_surface_util::demoWorkload();
    const ScenarioSweep sweep(*work.mlp, work.dataset.test,
                              HardwareConfig{});
    const std::vector<ScenarioCorner> corners = sweep.corners(grid);
    ASSERT_EQ(corners.size(), 8u);
    for (std::size_t i = 0; i < corners.size(); ++i)
        EXPECT_EQ(corners[i].index, i);
    // Stuck fraction is the innermost axis; configs the outermost.
    EXPECT_EQ(corners[0].stuckFraction, 0.0);
    EXPECT_EQ(corners[1].stuckFraction, 0.1);
    EXPECT_EQ(corners[0].grayZoneScale, 1.0);
    EXPECT_EQ(corners[2].grayZoneScale, 2.0);
    EXPECT_EQ(corners[0].config.crossbarSize, 8u);
    EXPECT_EQ(corners[4].config.crossbarSize, 16u);
}

TEST(WilsonIntervalTest, KnownValuesAndEdges)
{
    // Vacuous with no trials.
    EXPECT_EQ(wilsonInterval(0, 0).low, 0.0);
    EXPECT_EQ(wilsonInterval(0, 0).high, 1.0);
    // Degenerate proportions pin the matching bound exactly.
    EXPECT_EQ(wilsonInterval(0, 10).low, 0.0);
    EXPECT_EQ(wilsonInterval(10, 10).high, 1.0);
    EXPECT_GT(wilsonInterval(0, 10).high, 0.0);
    EXPECT_LT(wilsonInterval(10, 10).low, 1.0);
    // Textbook value: 5/10 at 95% -> [0.2366, 0.7634].
    const ConfidenceInterval ci = wilsonInterval(5, 10);
    EXPECT_NEAR(ci.low, 0.2366, 5e-4);
    EXPECT_NEAR(ci.high, 0.7634, 5e-4);
    // More trials tighten the interval around the same proportion.
    const ConfidenceInterval wide = wilsonInterval(50, 100);
    EXPECT_GT(wide.low, ci.low);
    EXPECT_LT(wide.high, ci.high);
}

// ------------------------------------------------ sweep properties ---

namespace {

/** The demo sweep computed once and shared by the property tests. */
const SweepResult &
demoResult()
{
    static const SweepResult result =
        yield_surface_util::runDemoSweep(0);
    return result;
}

} // namespace

TEST(ScenarioSweepTest, SurfaceShapeMatchesGridAndOptions)
{
    const SweepResult &result = demoResult();
    const SweepOptions opts = yield_surface_util::demoOptions();
    ASSERT_EQ(result.corners.size(),
              yield_surface_util::demoGrid().cornerCount());
    EXPECT_EQ(result.chipsPerCorner, opts.chipsPerCorner);
    for (const CornerResult &corner : result.corners) {
        EXPECT_EQ(corner.chips.size(), opts.chipsPerCorner);
        EXPECT_EQ(corner.histogram.size(), opts.histogramBins);
        EXPECT_EQ(corner.yield.size(), opts.accuracyFloors.size());
        std::uint64_t hist_total = 0;
        for (std::uint64_t bin : corner.histogram)
            hist_total += bin;
        EXPECT_EQ(hist_total, opts.chipsPerCorner);
        EXPECT_LE(corner.minAccuracy, corner.p05);
        EXPECT_LE(corner.p05, corner.p95);
        EXPECT_LE(corner.p95, corner.maxAccuracy);
        EXPECT_GE(corner.meanAccuracy, corner.minAccuracy);
        EXPECT_LE(corner.meanAccuracy, corner.maxAccuracy);
    }
}

TEST(ScenarioSweepTest, MeanAccuracyNonIncreasingInStuckFraction)
{
    // Statistical assertion, not a point estimate: consecutive stuck
    // fractions at a fixed corner may only increase the mean by
    // sampling noise, bounded by 3 combined standard errors.
    const SweepResult &result = demoResult();
    const ScenarioGrid grid = yield_surface_util::demoGrid();
    const std::size_t fractions = grid.stuckFractions.size();
    ASSERT_EQ(result.corners.size() % fractions, 0u);
    for (std::size_t block = 0;
         block < result.corners.size() / fractions; ++block) {
        for (std::size_t k = 0; k + 1 < fractions; ++k) {
            const CornerResult &lo =
                result.corners[block * fractions + k];
            const CornerResult &hi =
                result.corners[block * fractions + k + 1];
            ASSERT_LT(lo.corner.stuckFraction,
                      hi.corner.stuckFraction);
            const double margin =
                3.0 * std::sqrt(std::pow(standardError(lo.chips), 2)
                                + std::pow(standardError(hi.chips), 2));
            EXPECT_LE(hi.meanAccuracy, lo.meanAccuracy + margin)
                << "corner " << hi.corner.index
                << ": mean accuracy rose beyond noise when the stuck "
                   "fraction grew";
        }
    }
}

TEST(ScenarioSweepTest, YieldMonotoneInAccuracyFloor)
{
    const SweepResult &result = demoResult();
    for (const CornerResult &corner : result.corners) {
        for (std::size_t y = 0; y < corner.yield.size(); ++y) {
            const YieldPoint &yp = corner.yield[y];
            EXPECT_LE(yp.wilson.low, yp.yield);
            EXPECT_GE(yp.wilson.high, yp.yield);
            if (y > 0) {
                EXPECT_GE(corner.yield[y - 1].floor, 0.0);
                EXPECT_LE(corner.yield[y - 1].floor, yp.floor);
                EXPECT_GE(corner.yield[y - 1].pass, yp.pass)
                    << "yield must not grow as the floor rises";
            }
        }
    }
}

TEST(ScenarioSweepTest, ZeroFaultCornerReproducesEvaluateExactly)
{
    // With no faults and no fabrication spread, a sweep chip is
    // nothing but HardwareEvaluator::evaluate under the chip's seed:
    // the harness must reproduce it bit-exactly, including ledgers.
    const auto &work = yield_surface_util::demoWorkload();
    const HardwareConfig base{16, 8, 2.4, false, 0.25, 1, 8};
    const ScenarioSweep sweep(*work.mlp, work.dataset.test, base);

    ScenarioGrid grid; // nominal corner only
    SweepOptions opts;
    opts.masterSeed = 4242;
    opts.chipsPerCorner = 3;
    opts.evalSamples = 16;
    opts.grayZoneSigma = 0.0;
    opts.threads = 1;
    const SweepResult result = sweep.run(grid, opts);
    ASSERT_EQ(result.corners.size(), 1u);
    const CornerResult &corner = result.corners[0];
    EXPECT_EQ(corner.totalStuck, 0u);

    for (const ChipResult &chip : corner.chips) {
        HardwareEvaluator eval(
            aqfp::AttenuationModel(corner.corner.fit),
            sweep.cornerConfig(corner.corner));
        eval.mapMlp(*work.mlp);
        Rng rng(ScenarioSweep::chipEvalSeed(opts.masterSeed, 0,
                                            chip.chip));
        const double direct =
            eval.evaluate(work.dataset.test, opts.evalSamples, rng);
        EXPECT_EQ(chip.accuracy, direct);
        EXPECT_EQ(chip.counts, eval.totalLedgerCounts());
        EXPECT_EQ(chip.stuckCells, 0u);
    }
}

TEST(ScenarioSweepTest, SameChipSameFaultPatternAcrossCorners)
{
    // Fault-mask seeds exclude the corner index: chip k keeps its
    // stuck-cell count at every gray-zone corner of the same fraction,
    // and masks nest across fractions (5% subset of 25%).
    const SweepResult &result = demoResult();
    const ScenarioGrid grid = yield_surface_util::demoGrid();
    const std::size_t fractions = grid.stuckFractions.size();
    ASSERT_EQ(result.corners.size(), 2 * fractions);
    for (std::size_t k = 0; k < fractions; ++k) {
        const CornerResult &gz1 = result.corners[k];
        const CornerResult &gz2 = result.corners[fractions + k];
        ASSERT_EQ(gz1.corner.stuckFraction, gz2.corner.stuckFraction);
        for (std::size_t chip = 0; chip < gz1.chips.size(); ++chip)
            EXPECT_EQ(gz1.chips[chip].stuckCells,
                      gz2.chips[chip].stuckCells);
    }
    for (std::size_t chip = 0; chip < result.chipsPerCorner; ++chip) {
        EXPECT_LE(result.corners[1].chips[chip].stuckCells,
                  result.corners[2].chips[chip].stuckCells)
            << "chip " << chip
            << ": mask at 5% is not nested in the 25% mask";
    }
}

TEST(ScenarioSweepTest, ChipsCarryLedgerAttribution)
{
    const SweepResult &result = demoResult();
    for (const CornerResult &corner : result.corners) {
        aqfp::LedgerCounts sum;
        for (const ChipResult &chip : corner.chips) {
            EXPECT_GT(chip.counts.tileObservations, 0u);
            EXPECT_GT(chip.counts.bernoulliDraws, 0u);
            sum += chip.counts;
        }
        EXPECT_EQ(sum, corner.totalCounts);
    }
}

TEST(ScenarioSweepTest, EvalSeedMixesCornerAndChip)
{
    EXPECT_NE(ScenarioSweep::chipEvalSeed(1, 0, 0),
              ScenarioSweep::chipEvalSeed(1, 1, 0));
    EXPECT_NE(ScenarioSweep::chipEvalSeed(1, 0, 0),
              ScenarioSweep::chipEvalSeed(1, 0, 1));
    EXPECT_NE(ScenarioSweep::chipEvalSeed(1, 0, 0),
              ScenarioSweep::chipEvalSeed(2, 0, 0));
}

// ------------------------------------------------ determinism claims ---

TEST(ScenarioSweepDeterminismTest, BitIdenticalAcrossThreadCounts)
{
    // The tentpole's determinism contract: every byte of the surface
    // is identical whether chips run sequentially or on an 8-thread
    // private pool.
    const std::string sequential =
        core::toJson(yield_surface_util::runDemoSweep(1));
    const std::string threaded =
        core::toJson(yield_surface_util::runDemoSweep(8));
    EXPECT_EQ(sequential, threaded);
}

TEST(ScenarioSweepDeterminismTest, BitIdenticalWarmAndColdCache)
{
    auto cache = std::make_shared<crossbar::ProgrammedModelCache>(
        aqfp::AttenuationModel());
    const std::string cold =
        core::toJson(yield_surface_util::runDemoSweep(1, cache));
    const auto stats_cold = cache->namedStats();
    EXPECT_GT(stats_cold.hits, 0u); // chips share the pristine build
    const std::string warm =
        core::toJson(yield_surface_util::runDemoSweep(1, cache));
    const auto stats_warm = cache->namedStats();
    EXPECT_GT(stats_warm.hits, stats_cold.hits);
    EXPECT_EQ(stats_warm.misses, stats_cold.misses);
    EXPECT_EQ(cold, warm);
}

TEST(ScenarioSweepDeterminismTest, GoldenSurfaceByteExact)
{
    std::ifstream in(std::string(SUPERBNN_GOLDEN_DIR)
                     + "/yield_surface.json");
    ASSERT_TRUE(in) << "golden yield_surface.json missing";
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(yield_surface_util::yieldSurfaceJson(), buffer.str())
        << "yield surface JSON drifted from tests/golden/"
           "yield_surface.json; regenerate via build/yield_surface "
           "only for intentional changes";
}
