/**
 * @file
 * End-to-end hardware-in-the-loop tests: trained models mapped onto the
 * crossbar + SC simulator must track their software accuracy, and the
 * bitstream-length / gray-zone effects of Figures 10 and 11 must show.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
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

TEST(HardwareEvalInputCheck, BadVariationArgumentsThrowBeforeMutating)
{
    Rng rng(19);
    const aqfp::AttenuationModel atten;
    const RandomizedMlp mlp(32, {16}, 4, AqfpBehavior{8, 2.4, 0.0}, atten,
                            rng);
    HardwareEvaluator eval(atten, {8, 16, 2.4, false, 0.25, 1, 8});
    eval.mapMlp(mlp);
    std::vector<Tensor> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(Tensor::randn({1, 32}, rng));
    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
    const auto before = eval.classScoresSeeded(batch, seeds);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double sigma : {-0.1, nan, inf}) {
        try {
            eval.injectVariationSeeded(sigma, 0.0, 5, 0);
            ADD_FAILURE() << "gray_zone_sigma " << sigma << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::strstr(e.what(), "gray_zone_sigma"), nullptr)
                << e.what();
        }
    }
    for (const double fraction : {-0.1, 1.5, nan, inf}) {
        try {
            // A valid sigma alongside: the check precedes every tile.
            eval.injectVariationSeeded(0.2, fraction, 5, 0);
            ADD_FAILURE() << "stuck_cell_fraction " << fraction
                          << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::strstr(e.what(), "stuck_cell_fraction"),
                      nullptr)
                << e.what();
        }
    }
    EXPECT_EQ(eval.classScoresSeeded(batch, seeds), before);

    // The comparison can see a mutation: a valid injection moves it.
    eval.injectVariationSeeded(0.5, 0.3, 5, 0);
    EXPECT_NE(eval.classScoresSeeded(batch, seeds), before);
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

namespace {

/**
 * A second implementation of the evaluator, built only from the public
 * executor API: every patch materialized as its own vector and run
 * through forwardSeeded, outputs flipped and reshuffled channel-major,
 * 2x2 max-pooled, and the head read out through forwardDecodedSeeded.
 * Each request draws its roots from Rng(seed), layer by layer, as
 * classScoresSeeded documents; counts() sums every pass's ledger.
 */
class ReferenceEvaluator
{
  public:
    ReferenceEvaluator(const HardwareConfig &hw,
                       const std::vector<std::uint64_t> &seeds)
        : mapper(hw.crossbarSize, aqfp::AttenuationModel(), hw.deltaIinUa),
          exec(hw.window, hw.exactApc, hw.dropFraction, 1)
    {
        for (const std::uint64_t seed : seeds)
            engines.emplace_back(seed);
    }

    std::vector<std::vector<double>>
    cnnScores(const RandomizedCnn &cnn, const std::vector<Tensor> &samples)
    {
        std::vector<std::vector<int>> acts = binarize(samples);
        std::size_t side = cnn.config().inputSide;
        std::size_t in_ch = cnn.config().inputChannels;
        for (const ConvCellRef &cell : cnn.cells()) {
            const FoldedBn folded =
                foldBatchNorm(*cell.bn, cell.conv->alpha().value);
            crossbar::MappedLayer layer =
                mapper.map(cell.conv->signedWeightMatrix());
            crossbar::CrossbarMapper::setThresholds(layer, folded.vth);
            const std::size_t positions = side * side;
            std::vector<std::vector<int>> patches;
            for (const std::vector<int> &map : acts)
                for (std::size_t y = 0; y < side; ++y)
                    for (std::size_t x = 0; x < side; ++x) {
                        std::vector<int> &patch =
                            patches.emplace_back(in_ch * 9, 0);
                        std::size_t p = 0;
                        for (std::size_t c = 0; c < in_ch; ++c)
                            for (int ky = -1; ky <= 1; ++ky)
                                for (int kx = -1; kx <= 1; ++kx, ++p) {
                                    const long iy = long(y) + ky;
                                    const long ix = long(x) + kx;
                                    if (iy >= 0 && ix >= 0
                                        && iy < long(side)
                                        && ix < long(side))
                                        patch[p] = map[(c * side + iy) * side
                                                       + ix];
                                }
                    }
            const std::vector<std::vector<int>> outs =
                exec.forwardSeeded(layer, patches, draw(positions),
                                   ledger());
            const std::size_t out_ch = layer.fanOut;
            const std::size_t half = cell.pooled ? side / 2 : side;
            for (std::size_t b = 0; b < acts.size(); ++b) {
                std::vector<int> conv(out_ch * positions);
                for (std::size_t pos = 0; pos < positions; ++pos)
                    for (std::size_t o = 0; o < out_ch; ++o) {
                        const int v = outs[b * positions + pos][o];
                        conv[o * positions + pos] = folded.flip[o] ? -v : v;
                    }
                if (!cell.pooled) {
                    acts[b] = std::move(conv);
                    continue;
                }
                acts[b].assign(out_ch * half * half, -1);
                for (std::size_t o = 0; o < out_ch; ++o)
                    for (std::size_t y = 0; y < half; ++y)
                        for (std::size_t x = 0; x < half; ++x)
                            for (std::size_t k = 0; k < 4; ++k)
                                acts[b][(o * half + y) * half + x] = std::max(
                                    acts[b][(o * half + y) * half + x],
                                    conv[(o * side + 2 * y + k / 2) * side
                                         + 2 * x + k % 2]);
            }
            side = half;
            in_ch = out_ch;
        }
        return head(cnn.head(), acts);
    }

    std::vector<std::vector<double>>
    mlpScores(const RandomizedMlp &mlp, const std::vector<Tensor> &samples)
    {
        std::vector<std::vector<int>> acts = binarize(samples);
        for (const MlpCellRef &cell : mlp.cells()) {
            const FoldedBn folded =
                foldBatchNorm(*cell.bn, cell.linear->alpha().value);
            crossbar::MappedLayer layer =
                mapper.map(cell.linear->signedWeights());
            crossbar::CrossbarMapper::setThresholds(layer, folded.vth);
            acts = exec.forwardSeeded(layer, acts, draw(1), ledger());
            for (std::vector<int> &sample : acts)
                for (std::size_t j = 0; j < sample.size(); ++j)
                    if (folded.flip[j])
                        sample[j] = -sample[j];
        }
        return head(mlp.head(), acts);
    }

    aqfp::LedgerCounts counts() const
    {
        aqfp::LedgerCounts total;
        for (const aqfp::HardwareLedger &l : ledgers)
            total += l.totals();
        return total;
    }

  private:
    crossbar::CrossbarMapper mapper;
    crossbar::TileExecutor exec;
    std::vector<Rng> engines;
    std::deque<aqfp::HardwareLedger> ledgers;

    static std::vector<std::vector<int>>
    binarize(const std::vector<Tensor> &samples)
    {
        std::vector<std::vector<int>> acts;
        for (const Tensor &s : samples) {
            std::vector<int> &a = acts.emplace_back(s.size());
            for (std::size_t i = 0; i < s.size(); ++i)
                a[i] = s[i] >= 0.0f ? 1 : -1;
        }
        return acts;
    }

    /** @p group roots per request, request-major. */
    std::vector<std::uint64_t> draw(std::size_t group)
    {
        std::vector<std::uint64_t> roots;
        for (Rng &engine : engines)
            for (std::size_t p = 0; p < group; ++p)
                roots.push_back(engine.raw()());
        return roots;
    }

    aqfp::HardwareLedger *ledger() { return &ledgers.emplace_back(); }

    std::vector<std::vector<double>>
    head(const nn::BinaryLinear &linear,
         const std::vector<std::vector<int>> &acts)
    {
        std::vector<std::vector<double>> scores = exec.forwardDecodedSeeded(
            mapper.map(linear.signedWeights()), acts, draw(1), ledger());
        for (std::vector<double> &sample : scores)
            for (std::size_t j = 0; j < sample.size(); ++j)
                sample[j] *= linear.alpha().value[j];
        return scores;
    }
};

std::uint64_t
bitPatternOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Bit-exact equality of two score batches, naming the first miss. */
void
expectSameScores(const std::vector<std::vector<double>> &got,
                 const std::vector<std::vector<double>> &want,
                 const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t b = 0; b < got.size(); ++b) {
        ASSERT_EQ(got[b].size(), want[b].size()) << where;
        for (std::size_t j = 0; j < got[b].size(); ++j)
            ASSERT_EQ(bitPatternOf(got[b][j]), bitPatternOf(want[b][j]))
                << where << " sample " << b << " class " << j << ": "
                << got[b][j] << " vs " << want[b][j];
    }
}

} // namespace

TEST(HardwareEvalDifferential, FlatCnnPathMatchesPatchReference)
{
    // Pooled/unpooled mixes, odd channel counts and odd sides; Cs 4
    // splits every layer into several row tiles and leaves a partial
    // last column group, Cs 16 leaves partial groups on every layer.
    struct Geometry
    {
        std::size_t inChannels, side;
        std::vector<std::size_t> channels;
        std::vector<bool> pooled;
        bool exactApc;
    };
    const std::vector<Geometry> geometries = {
        {3, 8, {5, 3}, {true, false}, false},
        {1, 7, {7}, {true}, true},
        {2, 6, {3, 6, 5}, {false, true, true}, false},
    };
    const aqfp::AttenuationModel atten;
    Rng rng(31);
    for (std::size_t g = 0; g < geometries.size(); ++g) {
        const Geometry &geo = geometries[g];
        RandomizedCnn::Config ccfg;
        ccfg.inputChannels = geo.inChannels;
        ccfg.inputSide = geo.side;
        ccfg.channels = geo.channels;
        ccfg.poolAfter = geo.pooled;
        ccfg.classes = 5;
        const RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);
        for (const std::size_t cs : {4, 16}) {
            for (const std::size_t batch : {1, 3, 8}) {
                std::vector<Tensor> samples;
                std::vector<std::uint64_t> seeds;
                for (std::size_t b = 0; b < batch; ++b) {
                    samples.push_back(Tensor::randn(
                        {1, geo.inChannels, geo.side, geo.side}, rng));
                    seeds.push_back(rng.raw()());
                }
                for (const std::size_t threads : {1, 3, 4}) {
                    const HardwareConfig hw{cs,    8,       2.4, geo.exactApc,
                                            0.25, threads, 8};
                    ReferenceEvaluator reference(hw, seeds);
                    const auto want = reference.cnnScores(cnn, samples);
                    HardwareEvaluator eval(atten, hw);
                    eval.mapCnn(cnn);
                    aqfp::LedgerCounts counts;
                    const std::string where = "geometry " + std::to_string(g)
                        + " Cs " + std::to_string(cs) + " batch "
                        + std::to_string(batch) + " threads "
                        + std::to_string(threads);
                    expectSameScores(
                        eval.classScoresSeeded(samples, seeds, &counts), want,
                        where);
                    EXPECT_EQ(counts, reference.counts()) << where;
                }
            }
        }
    }
}

TEST(HardwareEvalDifferential, FlatMlpPathMatchesVectorReference)
{
    const aqfp::AttenuationModel atten;
    Rng rng(32);
    const RandomizedMlp mlp(37, {21, 11}, 6, AqfpBehavior{8, 2.4, 0.0},
                            atten, rng);
    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
    for (std::size_t b = 0; b < 5; ++b) {
        samples.push_back(Tensor::randn({1, 37}, rng));
        seeds.push_back(rng.raw()());
    }
    for (const std::size_t threads : {1, 3, 4}) {
        const HardwareConfig hw{8, 8, 2.4, false, 0.25, threads, 8};
        ReferenceEvaluator reference(hw, seeds);
        const auto want = reference.mlpScores(mlp, samples);
        HardwareEvaluator eval(atten, hw);
        eval.mapMlp(mlp);
        aqfp::LedgerCounts counts;
        const std::string where = "threads " + std::to_string(threads);
        expectSameScores(eval.classScoresSeeded(samples, seeds, &counts),
                         want, where);
        EXPECT_EQ(counts, reference.counts()) << where;
    }
}

TEST(HardwareEvalMapCheck, HeadFanInMustMatchTheLastMap)
{
    // The evaluator's head reads the last map in place, so a head whose
    // fan-in disagrees with it is refused at mapping, not read past.
    Rng rng(33);
    const aqfp::AttenuationModel atten;
    RandomizedCnn::Config ccfg;
    ccfg.inputSide = 6;
    ccfg.channels = {4};
    ccfg.poolAfter = {true};
    RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, atten, rng);
    HardwareEvaluator eval(atten, {16, 2, 2.4, false, 0.5, 1, 8});
    ASSERT_NO_THROW(eval.mapCnn(cnn));
    cnn.head().weight().value = Tensor::randn({10, 4 * 3 * 3 + 1}, rng);
    EXPECT_THROW(eval.mapCnn(cnn), std::invalid_argument);
    EXPECT_EQ(eval.inputSize(), 0u) << "a failed map stays unmapped";
}
