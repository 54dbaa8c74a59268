/**
 * @file
 * Gradient and behaviour tests for the float nn layers. Analytic
 * backward passes are verified against central-difference numerics.
 */

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/binary_linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

using namespace superbnn;
using namespace superbnn::nn;

namespace {

/**
 * Check dL/dinput of a module against numeric differentiation, with
 * L = sum(output * probe) for a fixed random probe.
 */
void
checkInputGradient(Module &m, const Tensor &input, float tol = 2e-2f)
{
    Rng rng(404);
    Tensor out = m.forward(input, true);
    Tensor probe = Tensor::randn(out.shape(), rng);
    Tensor dx = m.backward(probe);

    // Numeric differentiation runs in training mode so layers whose
    // training/eval functions differ (BatchNorm) are differentiated
    // against the same function the backward pass was derived from.
    const float eps = 1e-2f;
    Tensor x = input;
    for (std::size_t i = 0; i < std::min<std::size_t>(x.size(), 24);
         ++i) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const Tensor op = m.forward(xp, true);
        const Tensor om = m.forward(xm, true);
        double num = 0.0;
        for (std::size_t j = 0; j < op.size(); ++j)
            num += (static_cast<double>(op[j]) - om[j]) * probe[j];
        num /= 2.0 * eps;
        EXPECT_NEAR(dx[i], num, tol)
            << "input gradient mismatch at " << i;
    }
}

/** Same check for one parameter tensor. */
void
checkParamGradient(Module &m, Parameter &p, const Tensor &input,
                   float tol = 2e-2f)
{
    Rng rng(505);
    p.zeroGrad();
    Tensor out = m.forward(input, true);
    Tensor probe = Tensor::randn(out.shape(), rng);
    m.backward(probe);

    const float eps = 1e-2f;
    for (std::size_t i = 0; i < std::min<std::size_t>(p.value.size(), 24);
         ++i) {
        const float keep = p.value[i];
        p.value[i] = keep + eps;
        const Tensor op = m.forward(input, true);
        p.value[i] = keep - eps;
        const Tensor om = m.forward(input, true);
        p.value[i] = keep;
        double num = 0.0;
        for (std::size_t j = 0; j < op.size(); ++j)
            num += (static_cast<double>(op[j]) - om[j]) * probe[j];
        num /= 2.0 * eps;
        EXPECT_NEAR(p.grad[i], num, tol)
            << "param gradient mismatch at " << i;
    }
}

} // namespace

TEST(BatchNorm, NormalizesBatchStatistics)
{
    Rng rng(9);
    BatchNorm bn(4);
    Tensor x = Tensor::randn({64, 4}, rng, 3.0f, 2.0f);
    Tensor y = bn.forward(x, true);
    for (std::size_t c = 0; c < 4; ++c) {
        double mean = 0.0, var = 0.0;
        for (std::size_t i = 0; i < 64; ++i)
            mean += y.at(i, c);
        mean /= 64.0;
        for (std::size_t i = 0; i < 64; ++i)
            var += (y.at(i, c) - mean) * (y.at(i, c) - mean);
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(BatchNorm, RunningStatsConverge)
{
    Rng rng(10);
    BatchNorm bn(2, 0.5f);
    for (int i = 0; i < 40; ++i) {
        Tensor x = Tensor::randn({256, 2}, rng, 5.0f, 3.0f);
        bn.forward(x, true);
    }
    EXPECT_NEAR(bn.runningMean()[0], 5.0, 0.5);
    EXPECT_NEAR(std::sqrt(bn.runningVar()[0]), 3.0, 0.5);
}

TEST(BatchNorm, EvalUsesRunningStats)
{
    Rng rng(11);
    BatchNorm bn(1, 0.9f);
    Tensor x = Tensor::randn({512, 1}, rng, 2.0f, 1.0f);
    bn.forward(x, true);
    // A wildly different eval batch should be normalized by the running
    // stats, not its own.
    Tensor z({4, 1}, 2.0f);
    Tensor y = bn.forward(z, false);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(y[i], 0.0f, 0.3f);
}

TEST(BatchNorm, InputGradient2d)
{
    Rng rng(12);
    BatchNorm bn(3);
    Tensor x = Tensor::randn({8, 3}, rng);
    checkInputGradient(bn, x, 5e-2f);
}

TEST(BatchNorm, InputGradient4d)
{
    Rng rng(13);
    BatchNorm bn(2);
    Tensor x = Tensor::randn({2, 2, 3, 3}, rng);
    checkInputGradient(bn, x, 5e-2f);
}

TEST(BatchNorm, GammaBetaGradients)
{
    Rng rng(14);
    BatchNorm bn(3);
    Tensor x = Tensor::randn({8, 3}, rng);
    checkParamGradient(bn, bn.gamma(), x, 5e-2f);
    checkParamGradient(bn, bn.beta(), x, 5e-2f);
}

TEST(HardTanhLayer, ClampsAndMasksGradient)
{
    HardTanh ht;
    Tensor x = Tensor::fromVector({-2.0f, -0.5f, 0.5f, 2.0f});
    Tensor y = ht.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], -1.0f);
    EXPECT_FLOAT_EQ(y[1], -0.5f);
    EXPECT_FLOAT_EQ(y[2], 0.5f);
    EXPECT_FLOAT_EQ(y[3], 1.0f);
    Tensor g({4}, 1.0f);
    Tensor dx = ht.backward(g);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
    EXPECT_FLOAT_EQ(dx[1], 1.0f);
    EXPECT_FLOAT_EQ(dx[2], 1.0f);
    EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(SignSTELayer, BinarizesWithClippedGradient)
{
    SignSTE s;
    Tensor x = Tensor::fromVector({-0.3f, 0.0f, 0.7f, 3.0f});
    Tensor y = s.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], -1.0f);
    EXPECT_FLOAT_EQ(y[1], 1.0f); // sign(0) = +1
    EXPECT_FLOAT_EQ(y[2], 1.0f);
    Tensor dx = s.backward(Tensor({4}, 1.0f));
    EXPECT_FLOAT_EQ(dx[0], 1.0f);
    EXPECT_FLOAT_EQ(dx[3], 0.0f); // outside [-1, 1]
}

TEST(MaxPoolLayer, BackwardRoutesToArgmax)
{
    MaxPool2d pool(2, 2);
    Tensor x({1, 1, 2, 2});
    x[0] = 1.0f;
    x[1] = 5.0f;
    x[2] = 2.0f;
    x[3] = 3.0f;
    pool.forward(x, true);
    Tensor g({1, 1, 1, 1}, 2.0f);
    Tensor dx = pool.backward(g);
    EXPECT_FLOAT_EQ(dx[1], 2.0f);
    EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(FlattenLayer, RoundTrip)
{
    Flatten f;
    Tensor x = Tensor::randn({2, 3, 4, 4}, globalRng());
    Tensor y = f.forward(x, true);
    EXPECT_EQ(y.dim(0), 2u);
    EXPECT_EQ(y.dim(1), 48u);
    Tensor dx = f.backward(y);
    EXPECT_EQ(dx.shape(), x.shape());
    EXPECT_TRUE(dx.allClose(x));
}

TEST(SequentialContainer, ComposesAndCollectsParams)
{
    Rng rng(15);
    Sequential net;
    net.emplace<BinaryLinear>(4, 8, rng);
    net.emplace<HardTanh>();
    net.emplace<BinaryLinear>(8, 2, rng);
    EXPECT_EQ(net.size(), 3u);
    EXPECT_EQ(net.parameters().size(), 4u);
    Tensor x = Tensor::randn({3, 4}, rng);
    Tensor y = net.forward(x, true);
    EXPECT_EQ(y.dim(1), 2u);
    Tensor dx = net.backward(Tensor(y.shape(), 1.0f));
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(CrossEntropy, KnownValue)
{
    SoftmaxCrossEntropy loss;
    Tensor logits({1, 2});
    logits[0] = 0.0f;
    logits[1] = 0.0f;
    const double l = loss.forward(logits, {0});
    EXPECT_NEAR(l, std::log(2.0), 1e-6);
}

TEST(CrossEntropy, GradientMatchesNumeric)
{
    Rng rng(16);
    SoftmaxCrossEntropy loss;
    Tensor logits = Tensor::randn({4, 5}, rng);
    const std::vector<std::size_t> labels = {1, 0, 4, 2};
    loss.forward(logits, labels);
    Tensor grad = loss.backward();
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        Tensor lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        SoftmaxCrossEntropy l2;
        const double num =
            (l2.forward(lp, labels) - l2.forward(lm, labels))
            / (2.0 * eps);
        EXPECT_NEAR(grad[i], num, 1e-3);
    }
}

TEST(CrossEntropy, AccuracyHelper)
{
    Tensor logits({2, 3});
    logits.at(0, 2) = 5.0f;
    logits.at(1, 0) = 5.0f;
    EXPECT_DOUBLE_EQ(accuracy(logits, {2, 0}), 1.0);
    EXPECT_DOUBLE_EQ(accuracy(logits, {0, 0}), 0.5);
}

TEST(SgdOptimizer, DescendsQuadratic)
{
    // Minimize f(w) = (w - 3)^2 by hand-fed gradients.
    Parameter w(Tensor({1}, 0.0f));
    Sgd sgd(0.1, 0.0, 0.0);
    for (int i = 0; i < 100; ++i) {
        w.zeroGrad();
        w.grad[0] = 2.0f * (w.value[0] - 3.0f);
        sgd.step({&w});
    }
    EXPECT_NEAR(w.value[0], 3.0f, 1e-3f);
}

TEST(SgdOptimizer, MomentumAcceleratesOnConstantGradient)
{
    Parameter a(Tensor({1}, 0.0f));
    Parameter b(Tensor({1}, 0.0f));
    Sgd plain(0.1, 0.0, 0.0);
    Sgd heavy(0.1, 0.9, 0.0);
    for (int i = 0; i < 10; ++i) {
        a.grad[0] = 1.0f;
        b.grad[0] = 1.0f;
        plain.step({&a});
        heavy.step({&b});
    }
    EXPECT_LT(b.value[0], a.value[0]); // moved further (more negative)
}

TEST(SgdOptimizer, WeightDecayShrinksWeights)
{
    Parameter w(Tensor({1}, 1.0f));
    Sgd sgd(0.1, 0.0, 0.5);
    w.zeroGrad();
    sgd.step({&w});
    EXPECT_LT(w.value[0], 1.0f);
}

TEST(CosineSchedule, WarmupThenDecay)
{
    CosineWarmupSchedule s(1.0, 5, 100);
    EXPECT_NEAR(s.lrAt(0), 0.2, 1e-9);
    EXPECT_NEAR(s.lrAt(4), 1.0, 1e-9);
    EXPECT_NEAR(s.lrAt(5), 1.0, 1e-9);
    EXPECT_GT(s.lrAt(30), s.lrAt(60));
    EXPECT_NEAR(s.lrAt(100), 0.0, 1e-9);
}

TEST(CosineSchedule, MonotoneAfterWarmup)
{
    CosineWarmupSchedule s(0.1, 2, 50);
    for (std::size_t e = 2; e + 1 < 50; ++e)
        EXPECT_GE(s.lrAt(e), s.lrAt(e + 1));
}
