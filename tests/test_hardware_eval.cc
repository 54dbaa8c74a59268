/**
 * @file
 * End-to-end hardware-in-the-loop tests: trained models mapped onto the
 * crossbar + SC simulator must track their software accuracy, and the
 * bitstream-length / gray-zone effects of Figures 10 and 11 must show.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hardware_eval.h"
#include "core/trainer.h"
#include "data/synthetic_mnist.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

/** Shared trained MLP fixture (training is the expensive part). */
class TrainedMlpTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        rng = new Rng(42);
        attenModel = new aqfp::AttenuationModel();
        data::SyntheticMnistOptions dopts;
        dopts.trainSize = 600;
        dopts.testSize = 150;
        dataset = new data::SyntheticMnist(makeSyntheticMnist(dopts));
        model = new RandomizedMlp(784, {64}, 10,
                                  AqfpBehavior{16, 2.4, 0.0},
                                  *attenModel, *rng);
        TrainConfig cfg;
        cfg.epochs = 30;
        cfg.warmupEpochs = 3;
        const Trainer trainer(cfg);
        const auto result =
            trainer.train(*model, dataset->train, dataset->test, *rng);
        softwareAccuracy = result.finalTestAccuracy;
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete dataset;
        delete attenModel;
        delete rng;
        model = nullptr;
        dataset = nullptr;
        attenModel = nullptr;
        rng = nullptr;
    }

    static Rng *rng;
    static aqfp::AttenuationModel *attenModel;
    static data::SyntheticMnist *dataset;
    static RandomizedMlp *model;
    static double softwareAccuracy;
};

Rng *TrainedMlpTest::rng = nullptr;
aqfp::AttenuationModel *TrainedMlpTest::attenModel = nullptr;
data::SyntheticMnist *TrainedMlpTest::dataset = nullptr;
RandomizedMlp *TrainedMlpTest::model = nullptr;
double TrainedMlpTest::softwareAccuracy = 0.0;

} // namespace

TEST_F(TrainedMlpTest, SoftwareModelLearned)
{
    EXPECT_GT(softwareAccuracy, 0.5);
}

TEST_F(TrainedMlpTest, MappingProducesExpectedTileCount)
{
    HardwareEvaluator eval(*attenModel, {16, 8, 2.4, false, 0.5});
    eval.mapMlp(*model);
    // Layer1: ceil(784/16) x ceil(64/16) = 49*4 = 196;
    // head: ceil(64/16) x ceil(10/16) = 4.
    EXPECT_EQ(eval.totalCrossbars(), 196u + 4u);
}

TEST_F(TrainedMlpTest, HardwareTracksSoftwareAccuracy)
{
    // With the exact parallel counter, the hardware function is the
    // same statistic the tile-aware training optimized, so accuracy
    // must track the software model closely.
    HardwareEvaluator eval(*attenModel, {16, 16, 2.4, true, 0.0});
    eval.mapMlp(*model);
    Rng eval_rng(7);
    const double hw_acc =
        eval.evaluate(dataset->test, 120, eval_rng);
    EXPECT_GT(hw_acc, softwareAccuracy - 0.12)
        << "hardware " << hw_acc << " vs software "
        << softwareAccuracy;
}

TEST_F(TrainedMlpTest, ApproxApcCostsBoundedAccuracy)
{
    // The approximate APC keeps a residual data-dependent bias after
    // reference calibration; the paper's claim is that the cost is
    // small. Allow a moderate envelope.
    HardwareEvaluator eval(*attenModel, {16, 16, 2.4, false, 0.5});
    eval.mapMlp(*model);
    Rng eval_rng(7);
    const double hw_acc =
        eval.evaluate(dataset->test, 120, eval_rng);
    EXPECT_GT(hw_acc, softwareAccuracy - 0.2)
        << "hardware " << hw_acc << " vs software "
        << softwareAccuracy;
}

TEST_F(TrainedMlpTest, LongerWindowNotWorse)
{
    // Fig. 10 mechanism: accuracy improves (or saturates) with L.
    Rng eval_rng(8);
    HardwareEvaluator short_eval(*attenModel, {16, 1, 2.4, false, 0.5});
    short_eval.mapMlp(*model);
    const double acc_short =
        short_eval.evaluate(dataset->test, 120, eval_rng);
    HardwareEvaluator long_eval(*attenModel, {16, 32, 2.4, false, 0.5});
    long_eval.mapMlp(*model);
    const double acc_long =
        long_eval.evaluate(dataset->test, 120, eval_rng);
    EXPECT_GE(acc_long, acc_short - 0.05);
}

TEST_F(TrainedMlpTest, PredictIsWithinClassRange)
{
    HardwareEvaluator eval(*attenModel, {16, 4, 2.4, false, 0.5});
    eval.mapMlp(*model);
    Rng eval_rng(9);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_LT(eval.predict(dataset->test.sample(i), eval_rng), 10u);
}

TEST_F(TrainedMlpTest, ClassScoresHaveTenEntries)
{
    HardwareEvaluator eval(*attenModel, {16, 4, 2.4, false, 0.5});
    eval.mapMlp(*model);
    Rng eval_rng(10);
    const auto scores =
        eval.classScores(dataset->test.sample(0), eval_rng);
    EXPECT_EQ(scores.size(), 10u);
}

TEST_F(TrainedMlpTest, ExactApcAtLeastAsGoodOnAverage)
{
    Rng eval_rng(11);
    HardwareEvaluator approx(*attenModel, {16, 8, 2.4, false, 0.5});
    approx.mapMlp(*model);
    const double acc_approx =
        approx.evaluate(dataset->test, 100, eval_rng);
    HardwareEvaluator exact(*attenModel, {16, 8, 2.4, true, 0.0});
    exact.mapMlp(*model);
    const double acc_exact =
        exact.evaluate(dataset->test, 100, eval_rng);
    // The approximate APC trades a bounded accuracy cost for gates
    // (measured ~8-14% on this workload after reference calibration).
    EXPECT_GT(acc_approx, acc_exact - 0.2);
}

TEST(HardwareEvalCnn, SmokeTestOnTinyCnn)
{
    Rng rng(12);
    const aqfp::AttenuationModel atten;
    RandomizedCnn::Config ccfg;
    ccfg.inputSide = 16;
    ccfg.channels = {4};
    ccfg.poolAfter = {true};
    RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);

    HardwareEvaluator eval(atten, {16, 2, 2.4, false, 0.5});
    eval.mapCnn(cnn);
    EXPECT_GT(eval.totalCrossbars(), 0u);

    Tensor sample = Tensor::randn({1, 3, 16, 16}, rng);
    Rng eval_rng(13);
    const auto scores = eval.classScores(sample, eval_rng);
    EXPECT_EQ(scores.size(), 10u);
    EXPECT_LT(eval.predict(sample, eval_rng), 10u);
}

TEST(HardwareEvalConfig, StoredAndExposed)
{
    const aqfp::AttenuationModel atten;
    HardwareEvaluator eval(atten, {36, 8, 1.6, true, 0.25});
    EXPECT_EQ(eval.config().crossbarSize, 36u);
    EXPECT_EQ(eval.config().window, 8u);
    EXPECT_DOUBLE_EQ(eval.config().deltaIinUa, 1.6);
    EXPECT_TRUE(eval.config().exactApc);
}

TEST(HardwareEvalInputCheck, WrongSizeMlpSampleThrows)
{
    // A checked error in every build, not an assert: unchecked, a
    // short sample is read past its end.
    Rng rng(14);
    const aqfp::AttenuationModel atten;
    const RandomizedMlp mlp(32, {16}, 4, AqfpBehavior{8, 2.4, 0.0}, atten,
                            rng);
    HardwareEvaluator eval(atten, {8, 4, 2.4, false, 0.25, 1, 8});
    eval.mapMlp(mlp);
    EXPECT_EQ(eval.inputSize(), 32u);

    const std::vector<Tensor> batch = {Tensor::randn({1, 32}, rng),
                                       Tensor::randn({1, 31}, rng)};
    try {
        eval.classScoresSeeded(batch, {1, 2});
        ADD_FAILURE() << "a 31-element sample was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "HardwareEvaluator::classScoresSeeded: "
                               "sample 1 has 31 elements, the mapped "
                               "model's input size is 32");
    }
    Rng eval_rng(15);
    EXPECT_THROW(eval.classScores(batch, eval_rng), std::invalid_argument);
    EXPECT_THROW(eval.predict(Tensor::randn({1, 33}, rng), eval_rng),
                 std::invalid_argument);
    EXPECT_EQ(eval.imagesObserved(), 0u); // nothing was evaluated
}

TEST(HardwareEvalInputCheck, WrongSizeCnnSampleThrows)
{
    Rng rng(16);
    const aqfp::AttenuationModel atten;
    RandomizedCnn::Config ccfg;
    ccfg.inputSide = 8;
    ccfg.channels = {4};
    ccfg.poolAfter = {true};
    const RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);
    HardwareEvaluator eval(atten, {16, 2, 2.4, false, 0.5, 1, 8});
    eval.mapCnn(cnn);
    EXPECT_EQ(eval.inputSize(), 3u * 8u * 8u);
    Rng eval_rng(17);
    EXPECT_THROW(eval.classScores(Tensor::randn({1, 3, 7, 7}, rng),
                                  eval_rng),
                 std::invalid_argument);
    EXPECT_THROW(eval.predictSeeded({Tensor::randn({1, 2, 8, 8}, rng)}, {1}),
                 std::invalid_argument);
}

namespace {

/** @p per_image added up @p n times. */
aqfp::LedgerCounts
timesImages(const aqfp::LedgerCounts &per_image, std::size_t n)
{
    aqfp::LedgerCounts total;
    for (std::size_t i = 0; i < n; ++i)
        total += per_image;
    return total;
}

/** mapMlp's std::invalid_argument text, or "" when it maps. */
std::string
mapMlpError(const RandomizedMlp &mlp)
{
    HardwareEvaluator eval(aqfp::AttenuationModel(),
                           {8, 4, 2.4, false, 0.25, 1, 8});
    try {
        eval.mapMlp(mlp);
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(eval.inputSize(), 0u) << "a failed map stays unmapped";
        return e.what();
    }
    return "";
}

} // namespace

TEST(HardwareEvalConcurrency, ConcurrentCallsEachGetTheirOwnCounts)
{
    // Concurrent evaluation calls on one evaluator: each call's counts
    // are exactly its own, and the totals are exactly their sum.
    Rng rng(18);
    const aqfp::AttenuationModel atten;
    const RandomizedMlp mlp(32, {24, 16}, 4, AqfpBehavior{8, 2.4, 0.0},
                            atten, rng);
    HardwareEvaluator eval(atten, {8, 8, 2.4, false, 0.25, 0, 8});
    eval.mapMlp(mlp);
    const Tensor sample = Tensor::randn({1, 32}, rng);

    aqfp::LedgerCounts per_image;
    eval.classScoresSeeded({sample}, {7}, &per_image);
    EXPECT_EQ(per_image.samples, 3u); // 2 hidden layers + head
    EXPECT_EQ(eval.totalLedgerCounts(), per_image);
    eval.resetLedgers();

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kCalls = 6;
    std::vector<std::vector<aqfp::LedgerCounts>> seen(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            const std::size_t n = t + 1;
            const std::vector<Tensor> batch(n, sample);
            const std::vector<std::uint64_t> seeds(n, 100 + t);
            for (std::size_t c = 0; c < kCalls; ++c)
                eval.classScoresSeeded(batch, seeds,
                                       &seen[t].emplace_back());
        });
    for (std::thread &t : threads)
        t.join();

    aqfp::LedgerCounts sum;
    std::size_t images = 0;
    for (std::size_t t = 0; t < kThreads; ++t)
        for (const aqfp::LedgerCounts &call : seen[t]) {
            EXPECT_EQ(call, timesImages(per_image, t + 1))
                << "thread " << t;
            sum += call;
            images += t + 1;
        }
    EXPECT_EQ(eval.totalLedgerCounts(), sum);
    EXPECT_EQ(eval.imagesObserved(), images);
}

TEST(HardwareEvalMapCheck, NonFiniteThresholdNamesTheLayer)
{
    // A NaN running statistic or a zero alpha folds into a non-finite
    // threshold; unchecked it reaches the Bernoulli fill as a NaN
    // probability. Mapping now fails, naming the layer and column.
    const aqfp::AttenuationModel atten;
    const auto makeMlp = [&] {
        Rng rng(19);
        return RandomizedMlp(32, {16, 8}, 4, AqfpBehavior{8, 2.4, 0.0},
                             atten, rng);
    };
    ASSERT_EQ(mapMlpError(makeMlp()), "");

    RandomizedMlp nan_mean = makeMlp();
    nn::BatchNorm &bn = *nan_mean.cells()[0].bn;
    Tensor mean = bn.runningMean();
    mean[3] = std::numeric_limits<float>::quiet_NaN();
    bn.setRunningStats(mean, bn.runningVar());
    const std::string nan_error = mapMlpError(nan_mean);
    EXPECT_NE(nan_error.find("layer fc1"), std::string::npos) << nan_error;
    EXPECT_NE(nan_error.find("column 3"), std::string::npos) << nan_error;

    RandomizedMlp zero_alpha = makeMlp();
    zero_alpha.cells()[1].linear->alpha().value[5] = 0.0f;
    const std::string alpha_error = mapMlpError(zero_alpha);
    EXPECT_NE(alpha_error.find("layer fc2"), std::string::npos)
        << alpha_error;
    EXPECT_NE(alpha_error.find("column 5"), std::string::npos)
        << alpha_error;

    Rng rng(20);
    RandomizedCnn::Config ccfg;
    ccfg.inputSide = 8;
    ccfg.channels = {4};
    ccfg.poolAfter = {true};
    RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);
    cnn.cells()[0].conv->alpha().value[1] = 0.0f;
    HardwareEvaluator eval(atten, {16, 2, 2.4, false, 0.5, 1, 8});
    try {
        eval.mapCnn(cnn);
        ADD_FAILURE() << "a zero alpha was mapped";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("layer conv1"),
                  std::string::npos)
            << e.what();
    }
}
