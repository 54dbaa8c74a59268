/**
 * @file
 * Tests for the randomized-aware binarization layers (Eq. 3/7/10).
 */

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

TEST(RandomizedBinarizeTest, OutputsAreBipolar)
{
    Rng rng(1);
    const auto model = atten();
    RandomizedBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng);
    Tensor x = Tensor::randn({4, 10}, rng);
    Tensor y = layer.forward(x, true);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_TRUE(y[i] == 1.0f || y[i] == -1.0f);
}

TEST(RandomizedBinarizeTest, ProbabilityIsErf)
{
    Rng rng(2);
    const auto model = atten();
    AqfpBehavior b{16, 2.4, 0.3};
    RandomizedBinarize layer(b, model, rng);
    const double dvin = b.deltaVin(model);
    for (double v : {-1.0, 0.0, 0.3, 1.0}) {
        const double expect = 0.5
            + 0.5 * std::erf(std::sqrt(M_PI) * (v - 0.3) / dvin);
        EXPECT_NEAR(layer.probPlusOne(v), expect, 1e-12);
    }
}

TEST(RandomizedBinarizeTest, SamplingFollowsProbability)
{
    Rng rng(3);
    const auto model = atten();
    RandomizedBinarize layer(AqfpBehavior{36, 2.4, 0.0}, model, rng);
    const float v = 0.4f;
    Tensor x({20000}, v);
    Tensor y = layer.forward(x, true);
    double plus = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        plus += y[i] > 0 ? 1.0 : 0.0;
    plus /= static_cast<double>(y.size());
    EXPECT_NEAR(plus, layer.probPlusOne(v), 0.02);
}

TEST(RandomizedBinarizeTest, GradientIsErfDerivative)
{
    Rng rng(4);
    const auto model = atten();
    AqfpBehavior b{16, 2.4, 0.0};
    RandomizedBinarize layer(b, model, rng);
    const double dvin = b.deltaVin(model);
    Tensor x = Tensor::fromVector({-0.8f, -0.1f, 0.0f, 0.5f, 2.0f});
    layer.forward(x, true);
    Tensor dx = layer.backward(Tensor({5}, 1.0f));
    for (std::size_t i = 0; i < 5; ++i) {
        const double z = x[i] / dvin;
        const double expect = (2.0 / dvin) * std::exp(-M_PI * z * z);
        EXPECT_NEAR(dx[i], expect, 1e-5);
    }
}

TEST(RandomizedBinarizeTest, GradientMatchesNumericExpectation)
{
    // The backward pass is d/dx E[ab] = d/dx (2 P(x) - 1).
    Rng rng(5);
    const auto model = atten();
    RandomizedBinarize layer(AqfpBehavior{16, 2.4, 0.1}, model, rng);
    const double eps = 1e-5;
    for (double v : {-0.6, 0.1, 0.9}) {
        const double num = (2.0 * layer.probPlusOne(v + eps)
                            - 2.0 * layer.probPlusOne(v - eps))
            / (2.0 * eps);
        Tensor x({1}, static_cast<float>(v));
        layer.forward(x, true);
        const Tensor dx = layer.backward(Tensor({1}, 1.0f));
        EXPECT_NEAR(dx[0], num, 1e-4);
    }
}

TEST(RandomizedBinarizeTest, DeterministicEvalUsesExpectationSign)
{
    Rng rng(6);
    const auto model = atten();
    RandomizedBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng,
                             /*sample_in_eval=*/false);
    Tensor x = Tensor::fromVector({-0.4f, 0.4f});
    Tensor y = layer.forward(x, false);
    EXPECT_FLOAT_EQ(y[0], -1.0f);
    EXPECT_FLOAT_EQ(y[1], 1.0f);
    // Repeat: deterministic.
    Tensor y2 = layer.forward(x, false);
    EXPECT_TRUE(y.equals(y2));
}

TEST(RandomizedBinarizeTest, LargerCrossbarIsNoisier)
{
    // Challenge #2: the value-domain gray zone grows with Cs, so the
    // same latent value binarizes less deterministically.
    Rng rng(7);
    const auto model = atten();
    RandomizedBinarize small(AqfpBehavior{8, 2.4, 0.0}, model, rng);
    RandomizedBinarize big(AqfpBehavior{144, 2.4, 0.0}, model, rng);
    EXPECT_GT(small.probPlusOne(1.0), big.probPlusOne(1.0));
    EXPECT_LT(small.probPlusOne(-1.0), big.probPlusOne(-1.0));
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

} // namespace

TEST(CellBinarizeTest, ChannelWidthUsesAbsoluteSlope)
{
    Rng rng(8);
    const auto model = atten();
    auto bn = makeBn(2, {2.0f, -1.5f}, {0.0f, 0.0f}, {0.0f, 0.0f},
                     {1.0f, 4.0f});
    nn::Parameter alpha(Tensor::fromVector({0.5f, 2.0f}));
    AqfpBehavior b{16, 2.4, 0.0};
    CellBinarize layer(b, model, rng, &bn, &alpha);
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
        CellBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn,
                           &alpha);
        Tensor x({20000, 1}, 0.5f);
        Tensor y = layer.forward(x, true);
        double plus = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i)
            plus += y[i] > 0 ? 1.0 : 0.0;
        plus /= static_cast<double>(y.size());
        EXPECT_GT(plus, 0.5) << "gamma " << gamma;
    }
}

TEST(CellBinarizeTest, GradientPositiveForEitherGammaSign)
{
    Rng rng(10);
    const auto model = atten();
    auto bn_pos = makeBn(1, {1.0f}, {0.0f}, {0.0f}, {1.0f});
    auto bn_neg = makeBn(1, {-1.0f}, {0.0f}, {0.0f}, {1.0f});
    nn::Parameter alpha(Tensor::fromVector({1.0f}));
    CellBinarize pos(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn_pos,
                     &alpha);
    CellBinarize neg(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn_neg,
                     &alpha);
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
    CellBinarize layer(AqfpBehavior{16, 2.4, 0.0}, model, rng, &bn,
                       &alpha);
    Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
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
                                   &bn, &alpha, &source);
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
                       &source);
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
                       &source);
    try {
        (void)layer.forward(Tensor({1, 2}), false);
        FAIL() << "4097 row tiles accepted";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("4097"), std::string::npos) << what;
    }
}
