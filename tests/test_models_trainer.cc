/**
 * @file
 * Integration tests: the randomized BNN models train end to end on the
 * synthetic datasets and beat chance clearly; the trainer applies the
 * warmup/cosine/ReCU recipe.
 */

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "data/synthetic_cifar.h"
#include "data/synthetic_mnist.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

aqfp::AttenuationModel
atten()
{
    return aqfp::AttenuationModel();
}

data::SyntheticMnist
smallMnist()
{
    data::SyntheticMnistOptions opts;
    opts.trainSize = 600;
    opts.testSize = 200;
    return makeSyntheticMnist(opts);
}

} // namespace

TEST(RandomizedMlpTest, StructureExposed)
{
    Rng rng(1);
    const auto model_atten = atten();
    RandomizedMlp mlp(784, {64, 32}, 10, AqfpBehavior{16, 2.4, 0.0},
                      model_atten, rng);
    EXPECT_EQ(mlp.cells().size(), 2u);
    EXPECT_EQ(mlp.cells()[0].linear->inFeatures(), 784u);
    EXPECT_EQ(mlp.cells()[1].linear->outFeatures(), 32u);
    EXPECT_EQ(mlp.head().outFeatures(), 10u);
    EXPECT_EQ(mlp.binaryWeightTensors().size(), 3u);
    // Parameters: per cell (weight, alpha, gamma, beta) + head (w, a).
    EXPECT_EQ(mlp.parameters().size(), 2u * 4u + 2u);
}

TEST(RandomizedMlpTest, ForwardShapesAndStochasticity)
{
    Rng rng(2);
    const auto model_atten = atten();
    RandomizedMlp mlp(784, {32}, 10, AqfpBehavior{16, 2.4, 0.0},
                      model_atten, rng);
    Tensor x = Tensor::randn({4, 784}, rng);
    Tensor y1 = mlp.forward(x, false);
    EXPECT_EQ(y1.dim(0), 4u);
    EXPECT_EQ(y1.dim(1), 10u);
    // Inference is stochastic (device-faithful): two passes differ
    // almost surely.
    Tensor y2 = mlp.forward(x, false);
    EXPECT_FALSE(y1.equals(y2));
}

TEST(RandomizedMlpTest, TrainsAboveChanceOnSyntheticMnist)
{
    Rng rng(3);
    const auto model_atten = atten();
    const auto ds = smallMnist();
    RandomizedMlp mlp(784, {64}, 10, AqfpBehavior{16, 2.4, 0.0},
                      model_atten, rng);
    TrainConfig cfg;
    cfg.epochs = 30;
    cfg.batchSize = 64;
    cfg.lr = 0.05;
    cfg.warmupEpochs = 3;
    const Trainer trainer(cfg);
    const auto result = trainer.train(mlp, ds.train, ds.test, rng);
    EXPECT_EQ(result.testAccuracy.size(), 30u);
    EXPECT_GT(result.finalTestAccuracy, 0.5)
        << "randomized MLP failed to learn";
    // Loss must drop substantially.
    EXPECT_LT(result.trainLoss.back(), result.trainLoss.front() * 0.8);
}

TEST(RandomizedMlpTest, DeterministicAblationAlsoTrains)
{
    Rng rng(4);
    const auto model_atten = atten();
    const auto ds = smallMnist();
    RandomizedMlp mlp(784, {64}, 10, AqfpBehavior{16, 2.4, 0.0},
                      model_atten, rng, BinarizeMode::Deterministic);
    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.warmupEpochs = 2;
    const Trainer trainer(cfg);
    const auto result = trainer.train(mlp, ds.train, ds.test, rng);
    EXPECT_GT(result.finalTestAccuracy, 0.4);
}

TEST(RandomizedMlpTest, ReCUKeepsWeightsInQuantileBand)
{
    Rng rng(5);
    const auto model_atten = atten();
    const auto ds = smallMnist();
    RandomizedMlp mlp(784, {32}, 10, AqfpBehavior{16, 2.4, 0.0},
                      model_atten, rng);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.useReCU = true;
    const Trainer trainer(cfg);
    trainer.train(mlp, ds.train, ds.test, rng);
    for (Tensor *w : mlp.binaryWeightTensors()) {
        // After clamping, extremes equal the quantile bounds: the
        // max/min appear multiple times.
        std::size_t at_max = 0, at_min = 0;
        const float mx = w->maxValue(), mn = w->minValue();
        for (std::size_t i = 0; i < w->size(); ++i) {
            at_max += (*w)[i] == mx;
            at_min += (*w)[i] == mn;
        }
        EXPECT_GT(at_max, 1u);
        EXPECT_GT(at_min, 1u);
    }
}

TEST(RandomizedCnnTest, StructureAndForward)
{
    Rng rng(6);
    const auto model_atten = atten();
    RandomizedCnn::Config cfg;
    cfg.channels = {8, 16};
    cfg.poolAfter = {true, true};
    RandomizedCnn cnn(cfg, AqfpBehavior{16, 2.4, 0.0}, model_atten,
                      rng);
    EXPECT_EQ(cnn.cells().size(), 2u);
    EXPECT_EQ(cnn.binaryWeightTensors().size(), 3u);
    Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    Tensor y = cnn.forward(x, false);
    EXPECT_EQ(y.dim(0), 2u);
    EXPECT_EQ(y.dim(1), 10u);
}

TEST(RandomizedCnnTest, InconsistentConfigThrows)
{
    // Checked in every build: unchecked, the constructor indexes
    // poolAfter past its end, or builds a head with no conv cell.
    Rng rng(7);
    const auto model_atten = atten();
    const auto error = [&](const RandomizedCnn::Config &cfg) {
        try {
            RandomizedCnn cnn(cfg, AqfpBehavior{16, 2.4, 0.0}, model_atten,
                              rng);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    RandomizedCnn::Config cfg;
    cfg.inputSide = 8;
    cfg.channels = {4, 6};
    cfg.poolAfter = {true};
    EXPECT_EQ(error(cfg), "RandomizedCnn: poolAfter has 1 entries, "
                          "channels has 2");
    cfg.channels = {};
    cfg.poolAfter = {};
    EXPECT_EQ(error(cfg), "RandomizedCnn: channels is empty (at least "
                          "one conv cell is required)");
    cfg.channels = {4};
    cfg.poolAfter = {true};
    EXPECT_EQ(error(cfg), "");
}

TEST(RandomizedCnnTest, TrainsOnSyntheticCifarSubset)
{
    Rng rng(7);
    const auto model_atten = atten();
    data::SyntheticCifarOptions dopts;
    dopts.trainSize = 300;
    dopts.testSize = 100;
    const auto ds = makeSyntheticCifar(dopts);
    RandomizedCnn::Config ccfg;
    ccfg.channels = {8, 16};
    ccfg.poolAfter = {true, true};
    RandomizedCnn cnn(ccfg, AqfpBehavior{16, 2.4, 0.0}, model_atten,
                      rng);
    TrainConfig cfg;
    cfg.epochs = 8;
    cfg.batchSize = 32;
    cfg.lr = 0.05;
    cfg.warmupEpochs = 1;
    const Trainer trainer(cfg);
    const auto result = trainer.train(cnn, ds.train, ds.test, rng);
    EXPECT_GT(result.finalTestAccuracy, 0.3)
        << "CNN failed to beat chance clearly";
}

TEST(TrainerTest, EvaluateCapsSamples)
{
    Rng rng(8);
    const auto model_atten = atten();
    const auto ds = smallMnist();
    RandomizedMlp mlp(784, {16}, 10, AqfpBehavior{16, 2.4, 0.0},
                      model_atten, rng);
    const double acc = Trainer::evaluate(mlp, ds.test, 50);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(TrainerTest, VerboseOffByDefaultAndConfigStored)
{
    TrainConfig cfg;
    cfg.epochs = 3;
    const Trainer trainer(cfg);
    EXPECT_EQ(trainer.config().epochs, 3u);
    EXPECT_FALSE(trainer.config().verbose);
}

TEST(TrainerTest, ZeroBatchSizeIsRejected)
{
    TrainConfig cfg;
    cfg.batchSize = 0;
    try {
        const Trainer trainer(cfg);
        FAIL() << "batchSize 0 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("TrainConfig::batchSize"),
                  std::string::npos);
    }

    Rng rng(9);
    const auto ds = smallMnist();
    RandomizedMlp mlp(784, {16}, 10, AqfpBehavior{16, 2.4, 0.0}, atten(),
                      rng);
    try {
        (void)Trainer::evaluate(mlp, ds.test, 0, 0);
        FAIL() << "evaluate batch_size 0 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("batch_size"),
                  std::string::npos);
    }
}

// --- model backward without the input gradient ---

namespace {

/**
 * Checks that @p model.backward leaves every parameter gradient
 * bit-equal to a manual reverse walk over @p reference's layers that
 * forms every dx. Both models are built alike from equal seeds, so
 * their weights and forward draws agree.
 */
void
expectBackwardMatchesFullChain(BnnModel &model, BnnModel &reference,
                               const Tensor &input,
                               const std::vector<std::size_t> &labels)
{
    nn::SoftmaxCrossEntropy loss;
    (void)loss.forward(model.forward(input, true), labels);
    model.backward(loss.backward());

    (void)loss.forward(reference.forward(input, true), labels);
    Tensor g = loss.backward();
    nn::Sequential &net = reference.network();
    for (std::size_t i = net.size(); i-- > 0;)
        g = net.layer(i).backward(g);
    EXPECT_EQ(g.shape(), input.shape());

    const auto got = model.parameters();
    const auto want = reference.parameters();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_TRUE(got[k]->grad.equals(want[k]->grad)) << "parameter " << k;
    // The first layer's weight gradient is the one a skip could drop.
    bool any = false;
    for (std::size_t i = 0; i < got[0]->grad.size(); ++i)
        any = any || got[0]->grad[i] != 0.0f;
    EXPECT_TRUE(any);
}

} // namespace

TEST(ModelBackward, ParameterGradientsMatchFullChain)
{
    const auto model = atten();
    const AqfpBehavior behavior{16, 2.4, 0.0};
    {
        Rng rng_a(61), rng_b(61), data(62);
        RandomizedMlp a(48, {32, 24}, 10, behavior, model, rng_a);
        RandomizedMlp b(48, {32, 24}, 10, behavior, model, rng_b);
        const Tensor input = Tensor::randn({8, 48}, data);
        SCOPED_TRACE("MLP");
        expectBackwardMatchesFullChain(a, b, input,
                                       {0, 1, 2, 3, 4, 5, 6, 7});
    }
    {
        RandomizedCnn::Config cfg;
        cfg.inputSide = 8;
        cfg.channels = {4, 8};
        cfg.poolAfter = {true, true};
        Rng rng_a(63), rng_b(63), data(64);
        RandomizedCnn a(cfg, behavior, model, rng_a);
        RandomizedCnn b(cfg, behavior, model, rng_b);
        const Tensor input = Tensor::randn({4, 3, 8, 8}, data);
        SCOPED_TRACE("CNN");
        expectBackwardMatchesFullChain(a, b, input, {0, 3, 6, 9});
    }
}
