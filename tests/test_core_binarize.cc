/**
 * @file
 * Tests for the randomized-aware binarization layers (Eq. 3/7/10).
 */

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bn_matching.h"
#include "core/models.h"
#include "core/randomized_binarize.h"
#include "scoped_threads.h"

using namespace superbnn;
using namespace superbnn::core;

namespace {

aqfp::AttenuationModel
atten()
{
    return aqfp::AttenuationModel();
}

} // namespace

TEST(AqfpBehaviorTest, DeltaVinMatchesEquationFour)
{
    const auto model = atten();
    AqfpBehavior b;
    b.crossbarSize = 36;
    b.deltaIinUa = 2.4;
    EXPECT_NEAR(b.deltaVin(model),
                2.4 / model.currentForValueOne(36.0), 1e-12);
}

TEST(AqfpBehaviorTest, LargerCrossbarIsNoisier)
{
    // Challenge #2: the value-domain gray zone grows with Cs, so the
    // same latent value binarizes less deterministically.
    const auto model = atten();
    EXPECT_GT(AqfpBehavior({144, 2.4, 0.0}).deltaVin(model),
              AqfpBehavior({8, 2.4, 0.0}).deltaVin(model));
}

// --- CellBinarize ---

namespace {

/** A BN layer with hand-set inference statistics. */
nn::BatchNorm
makeBn(std::size_t channels, const std::vector<float> &gamma,
       const std::vector<float> &beta, const std::vector<float> &mean,
       const std::vector<float> &var)
{
    nn::BatchNorm bn(channels);
    for (std::size_t c = 0; c < channels; ++c) {
        bn.gamma().value[c] = gamma[c];
        bn.beta().value[c] = beta[c];
    }
    bn.setRunningStats(Tensor::fromVector(mean), Tensor::fromVector(var));
    return bn;
}

/** Tile partials set by hand, standing in for a binary layer. */
class FixedPartials : public nn::TilePartialSource
{
  public:
    FixedPartials(std::size_t tiles, std::size_t rows, Tensor partials)
        : TilePartialSource(tiles, rows)
    {
        partials_ = std::move(partials);
    }
};

/** @p tiles tiles holding @p value for each of @p elements elements. */
FixedPartials
uniformPartials(std::size_t tiles, std::size_t elements, float value)
{
    return FixedPartials(tiles, 16, Tensor({tiles, elements}, value));
}

/** Fraction of +1 entries in @p y. */
double
plusFraction(const Tensor &y)
{
    double plus = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        plus += y[i] > 0 ? 1.0 : 0.0;
    return plus / static_cast<double>(y.size());
}

} // namespace

TEST(CellBinarizeTest, ChannelWidthUsesAbsoluteSlope)
{
    Rng rng(8);
    const auto model = atten();
    auto bn = makeBn(2, {2.0f, -1.5f}, {0.0f, 0.0f}, {0.0f, 0.0f},
                     {1.0f, 4.0f});
    nn::Parameter alpha(Tensor::fromVector({0.5f, 2.0f}));
    AqfpBehavior b{16, 2.4, 0.0};
    const FixedPartials source(1, 16, Tensor());
    CellBinarize layer(b, model, rng, &bn, &alpha, source);
    const double dvin = b.deltaVin(model);
    // |k0| = 2 * 0.5 / sqrt(1 + eps) ~ 1.
    EXPECT_NEAR(layer.channelWidth(0), 1.0 * dvin, 1e-4);
    // |k1| = |-1.5| * 2 / sqrt(4 + eps) ~ 1.5 (positive despite gamma
    // < 0: the Eq. 15 flip lives in the BN output's own sign).
    EXPECT_NEAR(layer.channelWidth(1), 1.5 * dvin, 1e-3);
}

TEST(CellBinarizeTest, MonotoneInBnOutputForEitherGammaSign)
{
    // The cell fires +1 with P > 0.5 whenever the BN output is positive
    // regardless of gamma's sign: for gamma < 0 a positive BN output
    // corresponds to a raw sum below the folded threshold, which is
    // exactly the Eq. 15 flipped decision.
    Rng rng(9);
    const auto model = atten();
    for (float gamma : {1.0f, -1.0f}) {
        auto bn = makeBn(1, {gamma}, {0.0f}, {0.0f}, {1.0f});
        nn::Parameter alpha(Tensor::fromVector({1.0f}));
        // Threshold 0, so BN output gamma * s is positive for tile
        // partials of gamma's sign.
        const FixedPartials source = uniformPartials(3, 20000, 2.0f * gamma);
        CellBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn,
                           &alpha, source);
        const Tensor y = layer.forward(Tensor({20000, 1}, 2.0f), false);
        EXPECT_GT(plusFraction(y), 0.5) << "gamma " << gamma;
    }
}

TEST(CellBinarizeTiled, SamplingFollowsProbability)
{
    // One tile: the output bit is that tile neuron's, +1 with
    // probability Pv(s) = 0.5 + 0.5 erf(sqrt(pi) (s - vth) / deltaVin)
    // (Eq. 3) against the folded threshold vth = mean (alpha 1, beta 0).
    Rng rng(3);
    const auto model = atten();
    const AqfpBehavior b{36, 2.4, 0.0};
    const double dvin = b.deltaVin(model);
    const float vth = static_cast<float>(-0.3 * dvin);
    auto bn = makeBn(1, {1.0f}, {0.0f}, {vth}, {1.0f});
    nn::Parameter alpha(Tensor::fromVector({1.0f}));
    const FixedPartials source = uniformPartials(1, 20000, 0.0f);
    CellBinarize layer(b, model, rng, &bn, &alpha, source);
    const double p =
        0.5 + 0.5 * std::erf(std::sqrt(M_PI) * (0.0 - vth) / dvin);
    ASSERT_GT(p, 0.6);
    ASSERT_LT(p, 0.9);
    const Tensor y = layer.forward(Tensor({20000, 1}), false);
    EXPECT_NEAR(plusFraction(y), p, 0.02);
}

TEST(CellBinarizeTiled, ProbabilityIsErf)
{
    // Across the gray zone the one-tile +1 frequency traces the Eq. 3
    // curve Pv(s) = 0.5 + 0.5 erf(sqrt(pi) (s - vth) / deltaVin): 0.5 at
    // the threshold, symmetric about it, saturating a width away.
    Rng rng(2);
    const auto model = atten();
    const AqfpBehavior b{16, 2.4, 0.0};
    const double dvin = b.deltaVin(model);
    for (const double offset : {-1.0, -0.3, 0.0, 0.3, 1.0}) {
        const float vth = static_cast<float>(-offset * dvin);
        auto bn = makeBn(1, {1.0f}, {0.0f}, {vth}, {1.0f});
        nn::Parameter alpha(Tensor::fromVector({1.0f}));
        const FixedPartials source = uniformPartials(1, 20000, 0.0f);
        CellBinarize layer(b, model, rng, &bn, &alpha, source);
        const double p =
            0.5 + 0.5 * std::erf(std::sqrt(M_PI) * (0.0 - vth) / dvin);
        const Tensor y = layer.forward(Tensor({20000, 1}), false);
        EXPECT_NEAR(plusFraction(y), p, 0.02) << "offset " << offset;
    }
}

TEST(CellBinarizeTest, GradientIsErfDerivative)
{
    // Backward is d/dx erf(sqrt(pi) x / w) = (2 / w) exp(-pi x^2 / w^2)
    // with w the channel width floored at 1: channel 0's width 0.5
    // floors to 1, channel 1's stays 3.
    Rng rng(4);
    const auto model = atten();
    const AqfpBehavior b{16, 2.4, 0.0};
    const double dvin = b.deltaVin(model);
    auto bn = makeBn(2, {1.0f, 1.0f}, {0.0f, 0.0f}, {0.0f, 0.0f},
                     {1.0f, 1.0f});
    nn::Parameter alpha(Tensor::fromVector(
        {static_cast<float>(0.5 / dvin), static_cast<float>(3.0 / dvin)}));
    const FixedPartials source = uniformPartials(1, 10, 1.0f);
    CellBinarize layer(b, model, rng, &bn, &alpha, source);
    const std::vector<float> xs = {-0.8f, -0.1f, 0.0f, 0.5f, 2.0f};
    Tensor x({5, 2});
    for (std::size_t i = 0; i < 5; ++i)
        x.at(i, 0) = x.at(i, 1) = xs[i];
    layer.forward(x, true);
    const Tensor dx = layer.backward(Tensor(x.shape(), 1.0f));
    for (std::size_t c = 0; c < 2; ++c) {
        const double w = std::max(layer.channelWidth(c), 1.0);
        EXPECT_NEAR(w, c == 0 ? 1.0 : 3.0, 1e-4);
        for (std::size_t i = 0; i < 5; ++i) {
            const double v = xs[i];
            const double closed = (2.0 / w) * std::exp(-M_PI * v * v / (w * w));
            EXPECT_NEAR(dx.at(i, c), closed, 1e-5) << "c " << c << " x " << v;
        }
    }
}

TEST(CellBinarizeTest, GradientMatchesNumericExpectation)
{
    // The backward pass is d/dx E[ab] = d/dx (2 P(x) - 1), taken here
    // by central difference of the expectation erf(sqrt(pi) x / w).
    Rng rng(5);
    const auto model = atten();
    const AqfpBehavior b{16, 2.4, 0.0};
    const double dvin = b.deltaVin(model);
    auto bn = makeBn(1, {1.0f}, {0.0f}, {0.0f}, {1.0f});
    nn::Parameter alpha(Tensor::fromVector({static_cast<float>(2.0 / dvin)}));
    const FixedPartials source = uniformPartials(1, 3, 1.0f);
    CellBinarize layer(b, model, rng, &bn, &alpha, source);
    const double w = std::max(layer.channelWidth(0), 1.0);
    const auto expectation = [&](double v) {
        return std::erf(std::sqrt(M_PI) * v / w);
    };
    const std::vector<float> xs = {-0.6f, 0.1f, 0.9f};
    const Tensor x = Tensor::fromVector(xs).reshaped({3, 1});
    layer.forward(x, true);
    const Tensor dx = layer.backward(Tensor(x.shape(), 1.0f));
    const double eps = 1e-5;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double v = xs[i];
        const double numeric =
            (expectation(v + eps) - expectation(v - eps)) / (2.0 * eps);
        EXPECT_NEAR(dx.at(i, 0), numeric, 1e-4) << "x " << v;
    }
}

TEST(CellBinarizeTest, OutputsAreBipolar)
{
    // Dense [batch, features] input, in training and in inference.
    Rng rng(1);
    const auto model = atten();
    auto bn = makeBn(10, std::vector<float>(10, 1.0f),
                     std::vector<float>(10, 0.0f),
                     std::vector<float>(10, 0.0f),
                     std::vector<float>(10, 1.0f));
    nn::Parameter alpha(Tensor({10}, 1.0f));
    Tensor x = Tensor::randn({4, 10}, rng);
    Tensor partials({3, x.size()});
    for (std::size_t i = 0; i < partials.size(); ++i)
        partials[i] = static_cast<float>(rng.randint(-16, 16));
    const FixedPartials source(3, 16, partials);
    CellBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn,
                       &alpha, source);
    for (const bool training : {true, false}) {
        const Tensor y = layer.forward(x, training);
        EXPECT_EQ(y.shape(), x.shape());
        for (std::size_t i = 0; i < y.size(); ++i)
            EXPECT_TRUE(y[i] == 1.0f || y[i] == -1.0f)
                << "training " << training << " i " << i;
    }
}

TEST(CellBinarizeTest, GradientPositiveForEitherGammaSign)
{
    Rng rng(10);
    const auto model = atten();
    auto bn_pos = makeBn(1, {1.0f}, {0.0f}, {0.0f}, {1.0f});
    auto bn_neg = makeBn(1, {-1.0f}, {0.0f}, {0.0f}, {1.0f});
    nn::Parameter alpha(Tensor::fromVector({1.0f}));
    const FixedPartials source = uniformPartials(1, 1, 1.0f);
    CellBinarize pos(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn_pos,
                     &alpha, source);
    CellBinarize neg(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn_neg,
                     &alpha, source);
    Tensor x({1, 1}, 0.2f);
    pos.forward(x, true);
    neg.forward(x, true);
    const Tensor gp = pos.backward(Tensor({1, 1}, 1.0f));
    const Tensor gn = neg.backward(Tensor({1, 1}, 1.0f));
    EXPECT_GT(gp[0], 0.0f);
    EXPECT_GT(gn[0], 0.0f);
}

TEST(CellBinarizeTest, SupportsConvShapedInput)
{
    Rng rng(11);
    const auto model = atten();
    auto bn = makeBn(3, {1.0f, 1.0f, 1.0f}, {0.0f, 0.0f, 0.0f},
                     {0.0f, 0.0f, 0.0f}, {1.0f, 1.0f, 1.0f});
    nn::Parameter alpha(Tensor({3}, 1.0f));
    Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
    Tensor partials({2, x.size()});
    for (std::size_t i = 0; i < partials.size(); ++i)
        partials[i] = static_cast<float>(rng.randint(-16, 16));
    const FixedPartials source(2, 16, partials);
    CellBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn,
                       &alpha, source);
    Tensor y = layer.forward(x, true);
    EXPECT_EQ(y.shape(), x.shape());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_TRUE(y[i] == 1.0f || y[i] == -1.0f);
    Tensor dx = layer.backward(Tensor(x.shape(), 1.0f));
    EXPECT_EQ(dx.shape(), x.shape());
}

TEST(AqfpBehaviorTest, RejectsNonPositiveGrayZoneAndSubUnitCrossbar)
{
    // Release builds used to divide by zero here and train on NaN
    // probabilities.
    const auto model = atten();
    for (const double diin : {0.0, -1.0, std::nan("")}) {
        Rng rng(12);
        try {
            RandomizedMlp mlp(8, {4}, 2, AqfpBehavior{16, diin, 0.0}, model,
                              rng);
            FAIL() << "deltaIin " << diin << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("deltaIin"),
                      std::string::npos);
        }
    }
    for (const double cs : {0.5, 0.0, std::nan("")}) {
        try {
            (void)model.currentForValueOne(cs);
            FAIL() << "Cs " << cs << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("Cs"), std::string::npos);
        }
        EXPECT_THROW((void)model.valueGrayZone(cs, 2.4),
                     std::invalid_argument);
    }
}

// --- Tile-level forward against a per-element reference loop ---

namespace {

constexpr double kSqrtPi = 1.7724538509055160273;

/**
 * The tile-level forward as one per-element loop: each tile's
 * probability straight from erf, one Rng::bernoulli per tile in
 * element-major order, the majority, then the gamma < 0 flip.
 */
Tensor
referenceTiled(const Shape &shape, const FoldedBn &folded,
               const Tensor &partials, std::size_t t_count, double dvin,
               Rng &rng)
{
    std::size_t e = 1;
    for (const std::size_t d : shape)
        e *= d;
    const std::size_t plane = shape.size() == 4 ? shape[2] * shape[3] : 1;
    const double share = 1.0 / static_cast<double>(t_count);
    Tensor out(shape);
    for (std::size_t i = 0; i < e; ++i) {
        const std::size_t c = i / plane % shape[1];
        const double vth = folded.vth[c] * share;
        std::size_t ones = 0;
        for (std::size_t t = 0; t < t_count; ++t) {
            const double s = partials[t * e + i];
            const double p =
                0.5 + 0.5 * std::erf(kSqrtPi * (s - vth) / dvin);
            ones += rng.bernoulli(p) ? 1 : 0;
        }
        int v = 2 * ones >= t_count ? 1 : -1;
        if (folded.flip[c])
            v = -v;
        out[i] = static_cast<float>(v);
    }
    return out;
}

/**
 * Random integer partials in [-rows, rows]; with @p odd, one partial
 * in 7 is made fractional, out of the table's range, or -0.
 */
Tensor
randomPartials(std::size_t t_count, std::size_t e, int rows, bool odd,
               Rng &rng)
{
    Tensor p({t_count, e});
    for (std::size_t i = 0; i < p.size(); ++i) {
        p[i] = static_cast<float>(rng.randint(-rows, rows));
        if (odd && rng.randint(0, 6) == 0) {
            switch (rng.randint(0, 3)) {
              case 0: p[i] += 0.25f; break;
              case 1: p[i] = 300.0f; break;
              case 2: p[i] = -1e30f; break;
              default: p[i] = -0.0f; break;
            }
        }
    }
    return p;
}

} // namespace

TEST(CellBinarizeTiled, MatchesPerElementLoopBitsAndDraws)
{
    const auto model = atten();
    struct Case
    {
        Shape shape;
        std::size_t tiles;
        bool odd;
    };
    std::vector<Case> cases;
    for (const std::size_t t : {1u, 2u, 4u, 49u, 70u}) {
        cases.push_back({{37, 13}, t, false});
        cases.push_back({{3, 5, 7, 9}, t, t % 2 == 0});
    }
    // More elements than one round holds (rounds bound the scratch).
    cases.push_back({{97, 61}, 70, true});
    cases.push_back({{2, 3, 120, 100}, 1, false});
    // As many tiles as a task's code buffer holds: one element a unit.
    cases.push_back({{3, 5}, 4096, true});
    for (const char *threads : {"1", "4"}) {
        const test_util::ScopedThreads scope(threads);
        std::uint64_t seed = 100;
        for (const Case &k : cases) {
            for (const double diin : {2.4, 24.0}) {
                Rng setup(++seed);
                const std::size_t channels = k.shape[1];
                std::vector<float> gamma, beta, mean, var;
                for (std::size_t c = 0; c < channels; ++c) {
                    gamma.push_back(c % 3 == 1 ? -1.5f : 0.8f);
                    beta.push_back(static_cast<float>(setup.normal()));
                    mean.push_back(static_cast<float>(
                        setup.uniform(-8.0, 8.0)));
                    var.push_back(static_cast<float>(
                        setup.uniform(0.5, 4.0)));
                }
                auto bn = makeBn(channels, gamma, beta, mean, var);
                Tensor alpha_v({channels});
                for (std::size_t c = 0; c < channels; ++c)
                    alpha_v[c] = static_cast<float>(setup.uniform(0.5, 2.0));
                nn::Parameter alpha(alpha_v);
                const Tensor input(k.shape);
                const FixedPartials source(
                    k.tiles, 16,
                    randomPartials(k.tiles, input.size(), 16, k.odd, setup));

                Rng rng(seed * 7), ref_rng(seed * 7);
                CellBinarize layer(AqfpBehavior{16, diin, 0.0}, model, rng,
                                   &bn, &alpha, source);
                const Tensor got = layer.forward(input, false);
                const Tensor want = referenceTiled(
                    k.shape, foldBatchNorm(bn, alpha.value),
                    source.tilePartials(), k.tiles, layer.deltaVin(),
                    ref_rng);
                ASSERT_EQ(got.shape(), want.shape());
                std::size_t mismatches = 0;
                for (std::size_t i = 0; i < got.size(); ++i)
                    mismatches += got[i] != want[i];
                EXPECT_EQ(mismatches, 0u)
                    << "threads " << threads << " tiles " << k.tiles
                    << " elements " << got.size() << " deltaIin " << diin;
                // The same number of draws was consumed.
                EXPECT_EQ(rng.raw()(), ref_rng.raw()())
                    << "threads " << threads << " tiles " << k.tiles
                    << " elements " << got.size() << " deltaIin " << diin;
            }
        }
    }
}

TEST(CellBinarizeTiled, PartialCountMismatchIsACheckedError)
{
    Rng rng(13);
    const auto model = atten();
    auto bn = makeBn(2, {1.0f, 1.0f}, {0.0f, 0.0f}, {0.0f, 0.0f},
                     {1.0f, 1.0f});
    nn::Parameter alpha(Tensor({2}, 1.0f));
    // Three tiles over a (4, 2) output need 24 partials; give 20.
    const FixedPartials source(3, 16, Tensor({20}));
    CellBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn, &alpha,
                       source);
    try {
        (void)layer.forward(Tensor({4, 2}), false);
        FAIL() << "mismatched partials accepted";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("20"), std::string::npos) << what;
        EXPECT_NE(what.find("24"), std::string::npos) << what;
    }
    HeadReadout head(AqfpBehavior{16, 2.4, 0.0}, model, &source, &alpha, 16);
    try {
        (void)head.forward(Tensor({4, 2}), false);
        FAIL() << "mismatched partials accepted";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("20"), std::string::npos) << what;
        EXPECT_NE(what.find("24"), std::string::npos) << what;
    }
}

TEST(CellBinarizeTiled, MoreThan4096TilesIsACheckedError)
{
    Rng rng(14);
    const auto model = atten();
    auto bn = makeBn(2, {1.0f, 1.0f}, {0.0f, 0.0f}, {0.0f, 0.0f},
                     {1.0f, 1.0f});
    nn::Parameter alpha(Tensor({2}, 1.0f));
    const FixedPartials source(4097, 1, Tensor({4097, 2}));
    CellBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn, &alpha,
                       source);
    try {
        (void)layer.forward(Tensor({1, 2}), false);
        FAIL() << "4097 row tiles accepted";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("4097"), std::string::npos) << what;
    }
}
