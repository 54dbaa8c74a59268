/**
 * @file
 * Tests for the extension features: pure-SC baseline (Sec. 2.3
 * comparison), device-variation and stuck-cell fault injection, tile
 * partial-sum bookkeeping, and the hardware-faithful head readout.
 */

#include <gtest/gtest.h>

#include "core/hardware_eval.h"
#include "core/randomized_binarize.h"
#include "nn/binary_conv.h"
#include "nn/binary_linear.h"
#include "sc/pure_sc.h"

using namespace superbnn;

// --- pure SC ---

TEST(PureSc, UnbiasedEstimate)
{
    Rng rng(1);
    sc::PureScDotProduct unit(256);
    const std::vector<double> a = {0.5, -0.25, 0.75};
    const std::vector<double> w = {0.5, 0.5, -0.5};
    double exact = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        exact += a[i] * w[i];
    double mean = 0.0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t)
        mean += unit.compute(a, w, rng);
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.06);
}

TEST(PureSc, LongerStreamsMoreAccurate)
{
    Rng rng(2);
    std::vector<double> a(32), w(32);
    for (auto &v : a)
        v = rng.uniform(-1.0, 1.0);
    for (auto &v : w)
        v = rng.uniform(-1.0, 1.0);
    sc::PureScDotProduct small(8);
    sc::PureScDotProduct big(512);
    const double acc_small = small.signAccuracy(a, w, rng, 150);
    const double acc_big = big.signAccuracy(a, w, rng, 150);
    EXPECT_GE(acc_big, acc_small - 0.05);
    EXPECT_GT(acc_big, 0.8);
}

TEST(PureSc, MinimalLengthFindsThreshold)
{
    Rng rng(3);
    std::vector<double> a(16, 0.4), w(16, 0.4); // strong margin
    const std::size_t len = sc::minimalPureScLength(
        a, w, {4, 16, 64, 256}, 0.95, rng);
    EXPECT_NE(len, 0u);
    EXPECT_LE(len, 256u);
}

TEST(PureSc, ReturnsZeroWhenUnreachable)
{
    Rng rng(4);
    // Margin ~0: no finite stream reaches 99.9%.
    std::vector<double> a = {0.5, -0.5};
    std::vector<double> w = {0.5, 0.5};
    const std::size_t len =
        sc::minimalPureScLength(a, w, {4, 8}, 0.999, rng);
    EXPECT_EQ(len, 0u);
}

// --- variation / fault injection ---

TEST(Variation, GrayZoneVariationChangesWidths)
{
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(8, atten, 2.4);
    Rng rng(5);
    xbar.applyGrayZoneVariation(0.2, rng);
    bool any_diff = false;
    for (std::size_t c = 0; c < 8; ++c)
        any_diff |= xbar.neuron(c).deltaIinUa() != 2.4;
    EXPECT_TRUE(any_diff);
    for (std::size_t c = 0; c < 8; ++c)
        EXPECT_GT(xbar.neuron(c).deltaIinUa(), 0.0);
}

TEST(Variation, ZeroSigmaIsNoop)
{
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(4, atten, 2.4);
    Rng rng(6);
    xbar.applyGrayZoneVariation(0.0, rng);
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_DOUBLE_EQ(xbar.neuron(c).deltaIinUa(), 2.4);
}

TEST(Variation, VariationPreservesThresholds)
{
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(4, atten, 2.4);
    xbar.setColumnThreshold(2, 5.5);
    Rng rng(7);
    xbar.applyGrayZoneVariation(0.3, rng);
    EXPECT_DOUBLE_EQ(xbar.neuron(2).ithUa(), 5.5);
}

TEST(Faults, StuckCellsStopContributing)
{
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(8, atten, 2.4);
    std::vector<std::vector<int>> w(8, std::vector<int>(8, 1));
    xbar.programWeights(w);
    const std::size_t stuck = xbar.injectStuckCellsSeeded(1.0, 8);
    EXPECT_EQ(stuck, 64u);
    EXPECT_EQ(xbar.columnSum(0, std::vector<int>(8, 1)), 0);
}

TEST(Faults, FractionZeroInjectsNothing)
{
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(8, atten, 2.4);
    std::vector<std::vector<int>> w(8, std::vector<int>(8, -1));
    xbar.programWeights(w);
    EXPECT_EQ(xbar.injectStuckCellsSeeded(0.0, 9), 0u);
    EXPECT_EQ(xbar.columnSum(3, std::vector<int>(8, 1)), -8);
}

TEST(Faults, PartialFractionKnocksOutAboutThatMany)
{
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(16, atten, 2.4);
    std::vector<std::vector<int>> w(16, std::vector<int>(16, 1));
    xbar.programWeights(w);
    const std::size_t stuck = xbar.injectStuckCellsSeeded(0.25, 10);
    EXPECT_GT(stuck, 256u / 8);
    EXPECT_LT(stuck, 256u / 2);
}

// --- tile partials ---

TEST(TilePartials, LinearPartialsSumToTotal)
{
    Rng rng(11);
    nn::BinaryLinear lin(20, 6, rng, /*tile_size=*/8);
    EXPECT_EQ(lin.tileCount(), 3u);
    Tensor x = Tensor::randn({4, 20}, rng);
    const Tensor y = lin.forward(x, false);
    const Tensor &partials = lin.tilePartials();
    ASSERT_EQ(partials.shape(), (Shape{3, 24}));
    for (std::size_t flat = 0; flat < 24; ++flat) {
        double sum = 0.0;
        for (std::size_t t = 0; t < 3; ++t)
            sum += partials[t * 24 + flat];
        // Total partials * alpha equals the layer output.
        const std::size_t c = flat % 6;
        EXPECT_NEAR(sum * lin.alpha().value[c], y[flat], 1e-3);
    }
}

TEST(TilePartials, ConvPartialsSumToTotal)
{
    Rng rng(12);
    nn::BinaryConv2d conv(2, 3, 3, 1, 1, rng, /*tile_size=*/7);
    EXPECT_EQ(conv.tileCount(), 3u); // ceil(18/7)
    Tensor x = Tensor::randn({2, 2, 4, 4}, rng);
    const Tensor y = conv.forward(x, false);
    const Shape act = y.shape();
    const Tensor &partials = conv.tilePartials();
    ASSERT_EQ(partials.shape(), (Shape{3, y.size()}));
    for (std::size_t flat = 0; flat < y.size(); flat += 5) {
        double sum = 0.0;
        for (std::size_t t = 0; t < 3; ++t)
            sum += partials[t * y.size() + flat];
        const std::size_t plane = act[2] * act[3];
        const std::size_t c = (flat / plane) % act[1];
        EXPECT_NEAR(sum * conv.alpha().value[c], y[flat], 1e-3);
    }
}

TEST(TilePartials, DisabledTilingReportsOneTile)
{
    Rng rng(13);
    nn::BinaryLinear lin(10, 4, rng);
    EXPECT_EQ(lin.tileCount(), 1u);
}

// --- head readout ---

TEST(HeadReadoutTest, SquashedLogitsBoundedByTileCount)
{
    Rng rng(14);
    const aqfp::AttenuationModel atten;
    nn::BinaryLinear head(32, 5, rng, 8);
    core::HeadReadout readout(core::AqfpBehavior{16, 2.4, 0.0}, atten,
                              &head, &head.alpha(), 8);
    Tensor x = Tensor::randn({3, 32}, rng);
    const Tensor y = head.forward(x, false);
    const Tensor logits = readout.forward(y, false);
    // |sum_t erf| <= T = 4 tiles, scaled by alpha.
    for (std::size_t i = 0; i < logits.size(); ++i) {
        const std::size_t c = i % 5;
        EXPECT_LE(std::abs(logits[i]),
                  4.0 * std::abs(head.alpha().value[c]) + 1e-5);
    }
}

TEST(HeadReadoutTest, BackwardUsesSurrogateSlope)
{
    Rng rng(15);
    const aqfp::AttenuationModel atten;
    nn::BinaryLinear head(16, 3, rng, 8);
    core::HeadReadout readout(core::AqfpBehavior{16, 2.4, 0.0}, atten,
                              &head, &head.alpha(), 8);
    Tensor x = Tensor::randn({2, 16}, rng);
    const Tensor y = head.forward(x, true);
    readout.forward(y, true);
    const Tensor dx = readout.backward(Tensor({2, 3}, 1.0f));
    // Slopes are positive and bounded by 1 (unit-scale surrogate).
    for (std::size_t i = 0; i < dx.size(); ++i) {
        EXPECT_GE(dx[i], 0.0f);
        EXPECT_LE(dx[i], 1.0f);
    }
    EXPECT_GT(readout.surrogateWidth(), readout.deltaVin());
}

// --- end-to-end robustness ---

TEST(Robustness, ModerateVariationDegradesGracefully)
{
    Rng rng(16);
    const aqfp::AttenuationModel atten;
    // Map an untrained model; compare prediction agreement between a
    // pristine and a perturbed copy on random inputs (accuracy-free
    // robustness probe).
    core::RandomizedMlp mlp(64, {32}, 10,
                            core::AqfpBehavior{16, 2.4, 0.0}, atten,
                            rng);
    core::HardwareEvaluator clean(atten, {16, 8, 2.4});
    clean.mapMlp(mlp);
    core::HardwareEvaluator noisy(atten, {16, 8, 2.4});
    noisy.mapMlp(mlp);
    const std::size_t stuck = noisy.injectVariationSeeded(0.1, 0.01, 17, 0);
    EXPECT_GT(stuck, 0u);

    Rng erng(18);
    std::size_t agree = 0;
    const std::size_t samples = 30;
    for (std::size_t i = 0; i < samples; ++i) {
        Tensor x = Tensor::randn({1, 64}, erng);
        Rng r1(100 + i), r2(100 + i);
        if (clean.predict(x, r1) == noisy.predict(x, r2))
            ++agree;
    }
    // Mild variation must not scramble most predictions.
    EXPECT_GT(agree, samples / 2);
}
