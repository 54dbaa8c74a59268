/**
 * @file
 * Per-layer HardwarePlan contract tests: construction validation
 * (field-naming std::invalid_argument instead of downstream UB), the
 * uniform-plan adapter's bit-exactness against the legacy single-config
 * path, heterogeneous determinism across thread counts and SIMD arms,
 * per-layer ledger draw accounting (Cs_l * L_l per tile observation),
 * named-cache sharing across plans differing in one layer, and the
 * explorer's coordinate-descent guarantee that a plan never costs more
 * than its homogeneous seed (strictly less on the autotune MNIST
 * space — the bench's headline delta).
 */

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aqfp/energy.h"
#include "core/explorer.h"
#include "core/hardware_eval.h"
#include "core/models.h"
#include "core/scenario_sweep.h"
#include "crossbar/model_cache.h"
#include "simd_test_util.h"
#include "tensor/random.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

/** Deterministic untrained 3-cell MLP (2 hidden layers + head). */
RandomizedMlp
testMlp()
{
    Rng rng(23);
    return RandomizedMlp(48, std::vector<std::size_t>{32, 24}, 10,
                         AqfpBehavior{16, 2.4, 0.0},
                         aqfp::AttenuationModel(), rng);
}

/** Deterministic +/-1 input batch for the 48-input test MLP. */
std::vector<Tensor>
testBatch(std::size_t count)
{
    Rng rng(29);
    std::vector<Tensor> batch;
    for (std::size_t b = 0; b < count; ++b) {
        Tensor s({1, 48});
        for (std::size_t i = 0; i < s.size(); ++i)
            s[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
        batch.push_back(std::move(s));
    }
    return batch;
}

std::vector<std::uint64_t>
testSeeds(std::size_t count)
{
    std::vector<std::uint64_t> seeds;
    for (std::size_t b = 0; b < count; ++b)
        seeds.push_back(0xABC0 + 31 * b);
    return seeds;
}

/** The mixed plan the determinism tests drive (one point per cell). */
HardwarePlan
mixedPlan()
{
    return HardwarePlan(std::vector<LayerHardwareConfig>{
        {8, 4, 1.6}, {16, 8, 2.4}, {36, 16, 3.2}});
}

} // namespace

TEST(HardwarePlanValidation, ConfigFieldsThrowByName)
{
    HardwareConfig cfg;
    EXPECT_NO_THROW(cfg.validate());

    cfg.crossbarSize = 0;
    EXPECT_THROW(
        {
            try {
                cfg.validate();
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("crossbarSize"),
                          std::string::npos);
                throw;
            }
        },
        std::invalid_argument);

    cfg = HardwareConfig{};
    cfg.window = 0;
    EXPECT_THROW(
        {
            try {
                cfg.validate();
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("window"),
                          std::string::npos);
                throw;
            }
        },
        std::invalid_argument);

    cfg = HardwareConfig{};
    cfg.evalBatch = 0;
    EXPECT_THROW(
        {
            try {
                cfg.validate();
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("evalBatch"),
                          std::string::npos);
                throw;
            }
        },
        std::invalid_argument);

    for (const double bad :
         {0.0, -2.4, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        cfg = HardwareConfig{};
        cfg.deltaIinUa = bad;
        EXPECT_THROW(
            {
                try {
                    cfg.validate();
                } catch (const std::invalid_argument &e) {
                    EXPECT_NE(
                        std::string(e.what()).find("deltaIinUa"),
                        std::string::npos);
                    throw;
                }
            },
            std::invalid_argument);
    }
}

TEST(HardwarePlanValidation, DropFractionMustBeAFiniteFraction)
{
    // Unchecked, a negative or NaN fraction reaches the APC's
    // floor(pairs * f) size_t cast (UB), and 1.5 over-corrects the
    // comparator bias.
    for (const double bad :
         {-0.5, 1.5, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        HardwareConfig cfg;
        cfg.dropFraction = bad;
        EXPECT_THROW(
            {
                try {
                    cfg.validate();
                } catch (const std::invalid_argument &e) {
                    EXPECT_NE(
                        std::string(e.what()).find("dropFraction"),
                        std::string::npos);
                    throw;
                }
            },
            std::invalid_argument)
            << bad;
        EXPECT_THROW(HardwarePlan{cfg}, std::invalid_argument) << bad;
        EXPECT_THROW(HardwareEvaluator(aqfp::AttenuationModel(), cfg),
                     std::invalid_argument)
            << bad;

        HardwarePlan plan;
        plan.dropFraction = bad;
        EXPECT_THROW(plan.validate(), std::invalid_argument) << bad;
    }
    for (const double edge : {0.0, 1.0}) {
        HardwareConfig cfg;
        cfg.dropFraction = edge;
        EXPECT_NO_THROW(cfg.validate()) << edge;
        EXPECT_NO_THROW(HardwarePlan{cfg}) << edge;
    }
}

TEST(HardwarePlanValidation, EvaluatorAndSweepRejectInvalidConfigs)
{
    HardwareConfig bad;
    bad.window = 0;
    EXPECT_THROW(
        HardwareEvaluator(aqfp::AttenuationModel(), bad),
        std::invalid_argument);
    EXPECT_THROW(HardwarePlan{bad}, std::invalid_argument);
}

TEST(HardwarePlanValidation, PlanConstructionValidates)
{
    // Empty entry list.
    EXPECT_THROW(HardwarePlan(std::vector<LayerHardwareConfig>{}),
                 std::invalid_argument);
    // Invalid entry (names the per-layer type).
    EXPECT_THROW(
        {
            try {
                HardwarePlan(std::vector<LayerHardwareConfig>{
                    {16, 0, 2.4}});
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find("window"),
                          std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
    // Invalid shared knob from the shared config.
    HardwareConfig shared;
    shared.evalBatch = 0;
    EXPECT_THROW(HardwarePlan(
                     std::vector<LayerHardwareConfig>{{16, 8, 2.4}},
                     shared),
                 std::invalid_argument);
}

TEST(HardwarePlanValidation, ResolveBroadcastsAndMatchesExactly)
{
    const HardwarePlan uniform{HardwareConfig{}};
    EXPECT_TRUE(uniform.uniform());
    EXPECT_EQ(uniform.resolve(4).size(), 4u);
    EXPECT_EQ(uniform.resolve(4)[3], uniform.layers[0]);
    EXPECT_THROW(uniform.resolve(0), std::invalid_argument);

    const HardwarePlan plan = mixedPlan();
    EXPECT_FALSE(plan.uniform());
    EXPECT_EQ(plan.resolve(3), plan.layers);
    // Mismatch names both counts.
    EXPECT_THROW(
        {
            try {
                plan.resolve(5);
            } catch (const std::invalid_argument &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find("3"), std::string::npos);
                EXPECT_NE(msg.find("5"), std::string::npos);
                throw;
            }
        },
        std::invalid_argument);

    // A mapped model with the wrong cell count throws at map time.
    const RandomizedMlp mlp = testMlp(); // 3 cells
    const HardwarePlan two(std::vector<LayerHardwareConfig>{
        {8, 4, 1.6}, {16, 8, 2.4}});
    HardwareEvaluator eval(aqfp::AttenuationModel(), two);
    EXPECT_THROW(eval.mapMlp(mlp), std::invalid_argument);
}

TEST(HardwarePlanValidation, RepresentativeIsEntryZeroPlusKnobs)
{
    HardwarePlan plan = mixedPlan();
    plan.evalBatch = 5;
    plan.threads = 1;
    const HardwareConfig repr = plan.representative();
    EXPECT_EQ(repr.crossbarSize, 8u);
    EXPECT_EQ(repr.window, 4u);
    EXPECT_EQ(repr.deltaIinUa, 1.6);
    EXPECT_EQ(repr.evalBatch, 5u);
    EXPECT_EQ(repr.threads, 1u);
}

TEST(HardwarePlanUniform, BitIdenticalToLegacyConfigPath)
{
    const RandomizedMlp mlp = testMlp();
    const HardwareConfig cfg{16, 8, 2.4, false, 0.25, 0, 8};
    const std::vector<Tensor> batch = testBatch(4);
    const std::vector<std::uint64_t> seeds = testSeeds(4);

    HardwareEvaluator legacy(aqfp::AttenuationModel(), cfg);
    legacy.mapMlp(mlp);
    HardwareEvaluator uniform{aqfp::AttenuationModel(),
                              HardwarePlan(cfg)};
    uniform.mapMlp(mlp);

    // Scores: bit-exact, including the shared-Rng batched path.
    EXPECT_EQ(legacy.classScoresSeeded(batch, seeds),
              uniform.classScoresSeeded(batch, seeds));
    Rng ra(77), rb(77);
    EXPECT_EQ(legacy.classScores(batch, ra),
              uniform.classScores(batch, rb));

    // Ledger counts: identical observed activity.
    EXPECT_EQ(aqfp::toJson(legacy.totalLedgerCounts()),
              aqfp::toJson(uniform.totalLedgerCounts()));

    // Energy reports: every measured/analytic component bit-exact.
    const auto lrep = legacy.energyReports();
    const auto urep = uniform.energyReports();
    ASSERT_EQ(lrep.size(), urep.size());
    for (std::size_t i = 0; i < lrep.size(); ++i) {
        EXPECT_EQ(lrep[i].name, urep[i].name);
        EXPECT_EQ(lrep[i].measuredValid, urep[i].measuredValid);
        EXPECT_EQ(lrep[i].measured.totalEnergyAj,
                  urep[i].measured.totalEnergyAj);
        EXPECT_EQ(lrep[i].measured.cyclesPerImage,
                  urep[i].measured.cyclesPerImage);
        EXPECT_EQ(lrep[i].analytic.totalEnergyAj,
                  urep[i].analytic.totalEnergyAj);
        EXPECT_EQ(lrep[i].analytic.totalJj, urep[i].analytic.totalJj);
    }
}

TEST(HardwarePlanDeterminism, MixedPlanStableAcrossThreadsAndArms)
{
    const RandomizedMlp mlp = testMlp();
    const std::vector<Tensor> batch = testBatch(4);
    const std::vector<std::uint64_t> seeds = testSeeds(4);

    // Reference: sequential, default arm.
    HardwarePlan ref_plan = mixedPlan();
    ref_plan.threads = 1;
    HardwareEvaluator ref(aqfp::AttenuationModel(), ref_plan);
    ref.mapMlp(mlp);
    const auto ref_scores = ref.classScoresSeeded(batch, seeds);
    const std::string ref_counts = aqfp::toJson(ref.totalLedgerCounts());

    for (const std::size_t threads : {1u, 4u, 8u}) {
        HardwarePlan plan = mixedPlan();
        plan.threads = threads;
        HardwareEvaluator eval(aqfp::AttenuationModel(), plan);
        eval.mapMlp(mlp);
        EXPECT_EQ(eval.classScoresSeeded(batch, seeds), ref_scores)
            << "threads=" << threads;
        EXPECT_EQ(aqfp::toJson(eval.totalLedgerCounts()), ref_counts)
            << "threads=" << threads;
    }

    superbnn::test::ArmRestore restore;
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        HardwareEvaluator eval(aqfp::AttenuationModel(), mixedPlan());
        eval.mapMlp(mlp);
        EXPECT_EQ(eval.classScoresSeeded(batch, seeds), ref_scores)
            << "arm=" << simd::armName(arm);
    }
}

TEST(HardwarePlanLedger, PerLayerDrawCountsScaleWithCsAndL)
{
    const RandomizedMlp mlp = testMlp(); // 48 -> 32 -> 24 -> 10
    const HardwarePlan plan = mixedPlan();
    HardwareEvaluator eval(aqfp::AttenuationModel(), plan);
    eval.mapMlp(mlp);

    const std::size_t samples = 5;
    (void)eval.classScoresSeeded(testBatch(samples), testSeeds(samples));

    const std::size_t fan_in[] = {48, 32, 24};
    const std::size_t fan_out[] = {32, 24, 10};
    const auto reports = eval.energyReports();
    ASSERT_EQ(reports.size(), 3u);
    for (std::size_t l = 0; l < 3; ++l) {
        const std::size_t cs = plan.layers[l].crossbarSize;
        const std::size_t window = plan.layers[l].window;
        const std::size_t row_tiles = (fan_in[l] + cs - 1) / cs;
        const std::size_t col_tiles = (fan_out[l] + cs - 1) / cs;
        const aqfp::LedgerCounts &c = reports[l].counts;
        EXPECT_EQ(c.samples, samples) << "layer " << l;
        EXPECT_EQ(c.tileObservations, samples * row_tiles * col_tiles)
            << "layer " << l;
        // The headline per-layer accounting: Cs_l * L_l raw draws per
        // tile observation, L_l cycles per observation, and L_l
        // serialized steps per (sample, column group).
        EXPECT_EQ(c.bernoulliDraws, c.tileObservations * cs * window)
            << "layer " << l;
        EXPECT_EQ(c.crossbarCycles, c.tileObservations * window)
            << "layer " << l;
        EXPECT_EQ(c.columnGroupSteps, samples * col_tiles * window)
            << "layer " << l;
    }
}

TEST(HardwarePlanCache, PlansDifferingInOneLayerShareTheRest)
{
    const RandomizedMlp mlp = testMlp();
    const auto cache = std::make_shared<crossbar::ProgrammedModelCache>(
        aqfp::AttenuationModel());

    const HardwarePlan plan_a(std::vector<LayerHardwareConfig>{
        {8, 4, 1.6}, {16, 8, 2.4}, {16, 8, 2.4}});
    HardwareEvaluator eval_a(aqfp::AttenuationModel(), plan_a);
    eval_a.mapMlp(mlp, cache.get(), "shared-tag");
    const auto after_a = cache->namedStats();
    EXPECT_EQ(after_a.misses, 3u); // one build per mapped cell
    EXPECT_EQ(after_a.hits, 0u);

    // Differs from plan_a ONLY in layer 0 (window changes are free —
    // the mapped model is window-independent — so change Cs).
    const HardwarePlan plan_b(std::vector<LayerHardwareConfig>{
        {36, 16, 1.6}, {16, 8, 2.4}, {16, 8, 2.4}});
    HardwareEvaluator eval_b(aqfp::AttenuationModel(), plan_b);
    eval_b.mapMlp(mlp, cache.get(), "shared-tag");
    const auto after_b = cache->namedStats();
    EXPECT_EQ(after_b.misses, 4u) << "only layer 0 rebuilds";
    EXPECT_EQ(after_b.hits, 2u) << "layers 1 and head shared";

    // A warm-cache map is bit-identical to a cold direct map.
    HardwareEvaluator direct(aqfp::AttenuationModel(), plan_b);
    direct.mapMlp(mlp);
    const std::vector<Tensor> batch = testBatch(3);
    const std::vector<std::uint64_t> seeds = testSeeds(3);
    EXPECT_EQ(direct.classScoresSeeded(batch, seeds),
              eval_b.classScoresSeeded(batch, seeds));
}

TEST(HardwarePlanSweep, UniformPlanSweepMatchesLegacyConfigSweep)
{
    // A scaled-down sweep through both constructors must produce
    // byte-identical surfaces (the uniform-adapter contract at the
    // ScenarioSweep layer).
    const RandomizedMlp mlp = testMlp();
    data::Dataset tiny;
    tiny.samples = Tensor({6, 48});
    Rng data_rng(41);
    for (std::size_t i = 0; i < tiny.samples.size(); ++i)
        tiny.samples[i] = data_rng.bernoulli(0.5) ? 1.0f : -1.0f;
    tiny.labels.assign(6, 0);

    const HardwareConfig base{16, 8, 2.4, false, 0.25, 1, 8};
    ScenarioGrid grid;
    grid.stuckFractions = {0.0, 0.2};
    SweepOptions opts;
    opts.chipsPerCorner = 3;
    opts.evalSamples = 6;
    opts.threads = 1;

    const ScenarioSweep legacy(mlp, tiny, base);
    const ScenarioSweep plan(mlp, tiny, HardwarePlan(base));
    EXPECT_EQ(toJson(legacy.run(grid, opts)),
              toJson(plan.run(grid, opts)));
}

TEST(HardwarePlanExplorer, DescentNeverWorseThanSeedAndBeatsItOnMnist)
{
    // The autotune bench's MNIST space: the acceptance contract is a
    // per-layer plan whose ledger-measured energy strictly beats the
    // best homogeneous candidate on a Table 3 workload.
    CoOptSpace space;
    space.crossbarSizes = {8, 16, 18, 36};
    space.bitstreamLengths = {4, 16};
    space.grayZones = {1.6, 2.4, 3.2};

    const DesignSpaceExplorer explorer((aqfp::AttenuationModel()));
    const aqfp::WorkloadSpec workload = aqfp::workloads::mnistMlp();
    const HeterogeneousExploreResult result =
        explorer.exploreHeterogeneous(workload, space, ExploreOptions{},
                                      costs::measuredEnergy());

    // Structural guarantee: the descent starts at the seed and accepts
    // strict improvements only.
    EXPECT_LE(result.planCost, result.seedCost);
    EXPECT_EQ(result.plan.layers.size(), workload.layers.size());
    EXPECT_GE(result.sweeps, 1u);
    EXPECT_GE(result.evaluatedPlans, 1u);
    EXPECT_GT(result.crossProduct,
              static_cast<double>(result.evaluatedPlans))
        << "descent must prune the cross-product";

    // The acceptance delta: strictly cheaper measured energy than the
    // homogeneous optimum on this workload/space.
    ASSERT_TRUE(result.seed.measured.has_value());
    EXPECT_LT(result.plan.measured.totalEnergyAj,
              result.seed.measured->totalEnergyAj);

    // The winning plan is executable as a core::HardwarePlan.
    const HardwarePlan plan = result.plan.toHardwarePlan();
    EXPECT_EQ(plan.layers.size(), workload.layers.size());
    EXPECT_NO_THROW(plan.validate());
}

TEST(HardwarePlanExplorer, SinglePointSpaceReturnsTheSeedPlan)
{
    CoOptSpace space;
    space.crossbarSizes = {16};
    space.bitstreamLengths = {8};
    space.grayZones = {2.4};

    const DesignSpaceExplorer explorer((aqfp::AttenuationModel()));
    const HeterogeneousExploreResult result =
        explorer.exploreHeterogeneous(aqfp::workloads::mnistMlp(), space,
                                      ExploreOptions{},
                                      costs::measuredEnergy());
    EXPECT_EQ(result.planCost, result.seedCost);
    EXPECT_EQ(result.evaluatedPlans, 1u);
    for (const aqfp::AcceleratorConfig &point : result.plan.layers) {
        EXPECT_EQ(point.crossbarSize, 16u);
        EXPECT_EQ(point.bitstreamLength, 8u);
    }
    // The uniform plan's measured report matches the homogeneous
    // candidate's bit-exactly (the combine-fold identity).
    ASSERT_TRUE(result.seed.measured.has_value());
    EXPECT_EQ(result.plan.measured.totalEnergyAj,
              result.seed.measured->totalEnergyAj);
}
