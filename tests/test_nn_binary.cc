/**
 * @file
 * Tests for the binary (XNOR-Net style) layers and the ReCU weight
 * rectified clamp.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/binary_conv.h"
#include "nn/binary_linear.h"
#include "nn/recu.h"
#include "scoped_threads.h"
#include "tensor/tensor_ops.h"

using namespace superbnn;
using namespace superbnn::nn;

TEST(BinaryLinear, ForwardUsesSignedWeightsTimesAlpha)
{
    Rng rng(1);
    BinaryLinear lin(3, 2, rng);
    lin.weight().value =
        Tensor::fromVector({0.5f, -0.2f, 0.9f, -0.7f, 0.1f, -0.4f})
            .reshaped({2, 3});
    lin.alpha().value = Tensor::fromVector({2.0f, 3.0f});
    Tensor x = Tensor::fromVector({1.0f, -1.0f, 1.0f}).reshaped({1, 3});
    Tensor y = lin.forward(x, false);
    // Row 0 signs: +,-,+ -> dot = 1+1+1 = 3; times alpha 2 = 6.
    EXPECT_FLOAT_EQ(y.at(0, 0), 6.0f);
    // Row 1 signs: -,+,- -> dot = -1-1-1 = -3; times alpha 3 = -9.
    EXPECT_FLOAT_EQ(y.at(0, 1), -9.0f);
}

TEST(BinaryLinear, SignedWeightsAreBipolar)
{
    Rng rng(2);
    BinaryLinear lin(10, 6, rng);
    Tensor wb = lin.signedWeights();
    for (std::size_t i = 0; i < wb.size(); ++i)
        EXPECT_TRUE(wb[i] == 1.0f || wb[i] == -1.0f);
}

TEST(BinaryLinear, AlphaInitializedToMeanAbsWeight)
{
    Rng rng(3);
    BinaryLinear lin(50, 4, rng);
    for (std::size_t o = 0; o < 4; ++o) {
        double acc = 0.0;
        for (std::size_t i = 0; i < 50; ++i)
            acc += std::fabs(lin.weight().value.at(o, i));
        EXPECT_NEAR(lin.alpha().value[o], acc / 50.0, 1e-5);
    }
}

TEST(BinaryLinear, SteMasksOutlierWeights)
{
    Rng rng(4);
    BinaryLinear lin(2, 1, rng);
    lin.weight().value = Tensor::fromVector({0.5f, 2.0f}).reshaped({1, 2});
    lin.alpha().value = Tensor::fromVector({1.0f});
    Tensor x = Tensor::fromVector({1.0f, 1.0f}).reshaped({1, 2});
    lin.forward(x, true);
    lin.weight().zeroGrad();
    lin.backward(Tensor({1, 1}, 1.0f));
    EXPECT_NE(lin.weight().grad[0], 0.0f); // |w| <= 1: gradient passes
    EXPECT_EQ(lin.weight().grad[1], 0.0f); // |w| > 1: clipped
}

TEST(BinaryLinear, AlphaGradientMatchesNumericUpToFanInScale)
{
    // The stored alpha gradient is the true gradient divided by the
    // fan-in (per-parameter preconditioning for plain SGD).
    Rng rng(5);
    BinaryLinear lin(4, 3, rng);
    Tensor x = Tensor::randn({2, 4}, rng);
    Tensor probe = Tensor::randn({2, 3}, rng);
    lin.alpha().zeroGrad();
    lin.forward(x, true);
    lin.backward(probe);
    const float eps = 1e-3f;
    for (std::size_t j = 0; j < 3; ++j) {
        const float keep = lin.alpha().value[j];
        lin.alpha().value[j] = keep + eps;
        Tensor yp = lin.forward(x, false);
        lin.alpha().value[j] = keep - eps;
        Tensor ym = lin.forward(x, false);
        lin.alpha().value[j] = keep;
        double num = 0.0;
        for (std::size_t i = 0; i < yp.size(); ++i)
            num += (static_cast<double>(yp[i]) - ym[i]) * probe[i];
        num /= 2.0 * eps;
        EXPECT_NEAR(lin.alpha().grad[j], num / 4.0, 1e-2);
    }
}

TEST(BinaryLinear, InputGradientUsesBinaryWeightsAndAlpha)
{
    Rng rng(6);
    BinaryLinear lin(3, 2, rng);
    Tensor x = Tensor::randn({1, 3}, rng);
    lin.forward(x, true);
    Tensor g({1, 2});
    g.at(0, 0) = 1.0f;
    Tensor dx = lin.backward(g);
    const Tensor wb = lin.signedWeights();
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(dx.at(0, i), lin.alpha().value[0] * wb.at(0, i),
                    1e-5);
}

TEST(BinaryConv, MatchesBinaryLinearOn1x1Patches)
{
    // A 1x1-image conv degenerates to a linear layer on channels.
    Rng rng(7);
    BinaryConv2d conv(4, 3, 1, 1, 0, rng);
    Tensor x = Tensor::randn({2, 4, 1, 1}, rng);
    Tensor y = conv.forward(x, false);
    const Tensor wb = conv.signedWeightMatrix();
    for (std::size_t n = 0; n < 2; ++n) {
        for (std::size_t o = 0; o < 3; ++o) {
            double acc = 0.0;
            for (std::size_t c = 0; c < 4; ++c)
                acc += x.at(n, c, 0, 0) * wb.at(o, c);
            acc *= conv.alpha().value[o];
            EXPECT_NEAR(y.at(n, o, 0, 0), acc, 1e-4);
        }
    }
}

TEST(BinaryConv, SignedWeightMatrixShape)
{
    Rng rng(8);
    BinaryConv2d conv(3, 5, 3, 1, 1, rng);
    Tensor wb = conv.signedWeightMatrix();
    EXPECT_EQ(wb.dim(0), 5u);
    EXPECT_EQ(wb.dim(1), 27u);
}

TEST(BinaryConv, InputGradientMatchesNumeric)
{
    Rng rng(9);
    BinaryConv2d conv(2, 2, 3, 1, 1, rng);
    Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
    Tensor out = conv.forward(x, true);
    Tensor probe = Tensor::randn(out.shape(), rng);
    Tensor dx = conv.backward(probe);
    const float eps = 1e-2f;
    for (std::size_t i = 0; i < 16; ++i) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        // Keep away from sign discontinuities of the input? The conv
        // binarizes only weights, not inputs, so the map is linear in x.
        Tensor op = conv.forward(xp, false);
        Tensor om = conv.forward(xm, false);
        double num = 0.0;
        for (std::size_t j = 0; j < op.size(); ++j)
            num += (static_cast<double>(op[j]) - om[j]) * probe[j];
        num /= 2.0 * eps;
        EXPECT_NEAR(dx[i], num, 5e-2);
    }
}

TEST(BinaryConv, AlphaGradientAccumulates)
{
    Rng rng(10);
    BinaryConv2d conv(1, 1, 3, 1, 1, rng);
    Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
    conv.alpha().zeroGrad();
    conv.forward(x, true);
    conv.backward(Tensor({1, 1, 4, 4}, 1.0f));
    EXPECT_NE(conv.alpha().grad[0], 0.0f);
}

// --- differential forward: s and every tile partial against in-test
// scalar loops, bit for bit, at several pool sizes ---

namespace {

/** Random tensor with exact zeros at every 5th entry. */
Tensor
randnWithZeros(const Shape &shape, Rng &rng)
{
    Tensor t = Tensor::randn(shape, rng);
    for (std::size_t i = 0; i < t.size(); i += 5)
        t[i] = 0.0f;
    return t;
}

bool
bitEqual(const Tensor &x, const Tensor &y)
{
    return x.shape() == y.shape()
        && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

struct LinearCase
{
    std::size_t n, in, out, tile;
};

/**
 * One sample; samples split into uneven blocks, 13 outputs (an 8-column
 * block plus single columns) and 37 inputs over 8-wide tiles; untiled.
 */
const LinearCase kLinearCases[] = {
    {1, 37, 13, 8}, {150, 37, 13, 8}, {64, 100, 16, 16}, {9, 20, 3, 0}};

} // namespace

TEST(BinaryLinearDifferential, PreScaleAndPartialsMatchScalarLoops)
{
    for (const char *threads : test_util::kPoolSizes) {
        const test_util::ScopedThreads scope(threads);
        for (const LinearCase &lc : kLinearCases) {
            Rng rng(81);
            BinaryLinear lin(lc.in, lc.out, rng, lc.tile);
            lin.alpha().value.fill(1.0f); // forward output == s
            const Tensor x = randnWithZeros({lc.n, lc.in}, rng);
            const Tensor y = lin.forward(x, true);
            const Tensor wb = lin.signedWeights();

            const std::size_t tile = lc.tile == 0 ? lc.in : lc.tile;
            const std::size_t tiles = (lc.in + tile - 1) / tile;
            Tensor s({lc.n, lc.out});
            Tensor partials({tiles, lc.n * lc.out});
            for (std::size_t i = 0; i < lc.n; ++i)
                for (std::size_t j = 0; j < lc.out; ++j) {
                    double acc = 0.0;
                    for (std::size_t k = 0; k < lc.in; ++k)
                        acc += static_cast<double>(x.at(i, k)) * wb.at(j, k);
                    s.at(i, j) = static_cast<float>(acc);
                    for (std::size_t t = 0; t < tiles; ++t) {
                        float part = 0.0f;
                        for (std::size_t k = t * tile;
                             k < std::min(lc.in, (t + 1) * tile); ++k)
                            part += x.at(i, k) * wb.at(j, k);
                        partials[t * lc.n * lc.out + i * lc.out + j] = part;
                    }
                }
            EXPECT_TRUE(bitEqual(y, s))
                << "s, n=" << lc.n << " @ " << threads;
            if (lc.tile > 0)
                EXPECT_TRUE(bitEqual(lin.tilePartials(), partials))
                    << "partials, n=" << lc.n << " @ " << threads;
            else
                EXPECT_TRUE(lin.tilePartials().empty());
        }
    }
}

TEST(BinaryConvDifferential, PreScaleAndPartialsMatchScalarLoops)
{
    struct ConvCase
    {
        std::size_t n, inC, outC, stride, pad, side, tile;
    };
    // (channel, image) units split into uneven blocks with a 27-wide
    // patch over 7-wide tiles; one image, strided, unpadded; untiled.
    const ConvCase cases[] = {{4, 3, 5, 1, 1, 12, 7},
                              {1, 2, 3, 2, 0, 7, 5},
                              {2, 2, 4, 1, 1, 6, 0}};
    for (const char *threads : test_util::kPoolSizes) {
        const test_util::ScopedThreads scope(threads);
        for (const ConvCase &cc : cases) {
            Rng rng(82);
            BinaryConv2d conv(cc.inC, cc.outC, 3, cc.stride, cc.pad, rng,
                              cc.tile);
            conv.alpha().value.fill(1.0f);
            const Tensor x =
                randnWithZeros({cc.n, cc.inC, cc.side, cc.side}, rng);
            const Tensor y = conv.forward(x, true);
            const Tensor wb = conv.signedWeightMatrix();

            const std::size_t patch = cc.inC * 9;
            const std::size_t tile = cc.tile == 0 ? patch : cc.tile;
            const std::size_t tiles = (patch + tile - 1) / tile;
            const std::size_t o_side = conv.spec().outExtent(cc.side);
            const std::size_t plane = o_side * o_side;
            Tensor s({cc.n, cc.outC, o_side, o_side});
            Tensor partials({tiles, s.size()});
            for (std::size_t ni = 0; ni < cc.n; ++ni)
                for (std::size_t o = 0; o < cc.outC; ++o)
                    for (std::size_t pos = 0; pos < plane; ++pos) {
                        const std::size_t flat =
                            (ni * cc.outC + o) * plane + pos;
                        float acc = 0.0f;
                        for (std::size_t k = 0; k < patch; ++k) {
                            const std::size_t ci = k / 9;
                            const std::ptrdiff_t iy =
                                static_cast<std::ptrdiff_t>(
                                    pos / o_side * cc.stride + k % 9 / 3)
                                - static_cast<std::ptrdiff_t>(cc.pad);
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(
                                    pos % o_side * cc.stride + k % 3)
                                - static_cast<std::ptrdiff_t>(cc.pad);
                            const auto side =
                                static_cast<std::ptrdiff_t>(cc.side);
                            const float v =
                                iy < 0 || ix < 0 || iy >= side || ix >= side
                                ? 0.0f
                                : x.at(ni, ci, static_cast<std::size_t>(iy),
                                       static_cast<std::size_t>(ix));
                            const float prod = wb.at(o, k) * v;
                            acc += prod;
                            partials[k / tile * s.size() + flat] += prod;
                        }
                        s[flat] = acc;
                    }
            EXPECT_TRUE(bitEqual(y, s))
                << "s, n=" << cc.n << " @ " << threads;
            if (cc.tile > 0)
                EXPECT_TRUE(bitEqual(conv.tilePartials(), partials))
                    << "partials, n=" << cc.n << " @ " << threads;
            else
                EXPECT_TRUE(conv.tilePartials().empty());
        }
    }
}

// --- ReCU ---

TEST(ReCU, QuantileOfKnownVector)
{
    Tensor v = Tensor::fromVector({1, 2, 3, 4, 5});
    EXPECT_FLOAT_EQ(quantile(v, 0.0), 1.0f);
    EXPECT_FLOAT_EQ(quantile(v, 1.0), 5.0f);
    EXPECT_FLOAT_EQ(quantile(v, 0.5), 3.0f);
    EXPECT_FLOAT_EQ(quantile(v, 0.25), 2.0f);
}

TEST(ReCU, QuantileEqualsSortDefinitionWithDuplicates)
{
    Rng rng(15);
    for (const std::size_t n : {1u, 2u, 7u, 101u, 1000u}) {
        Tensor v({n});
        for (std::size_t i = 0; i < n; ++i)
            v[i] = i % 3 == 0 ? static_cast<float>(rng.randint(-3, 3))
                              : static_cast<float>(rng.normal());
        std::vector<float> sorted(v.data(), v.data() + n);
        std::sort(sorted.begin(), sorted.end());
        for (const double q : {0.0, 1.0, rng.uniform(), rng.uniform()}) {
            const double pos = q * static_cast<double>(n - 1);
            const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
            const std::size_t hi = std::min(lo + 1, n - 1);
            const double frac = pos - static_cast<double>(lo);
            const float want = static_cast<float>(
                (1.0 - frac) * sorted[lo] + frac * sorted[hi]);
            const float got = quantile(v, q);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << "n=" << n << " q=" << q << ": " << got << " vs " << want;
        }
    }
}

TEST(ReCU, QuantileRejectsEmptyValuesAndBadQ)
{
    const Tensor v = Tensor::fromVector({1, 2, 3});
    try {
        (void)quantile(Tensor(), 0.5);
        FAIL() << "empty values accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("values"), std::string::npos);
    }
    for (const double q : {-0.1, 1.5, std::nan("")}) {
        try {
            (void)quantile(v, q);
            FAIL() << "q=" << q << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("q "), std::string::npos);
        }
    }
}

namespace {

/** -0 sorts below +0, the order a radix select on float keys gives. */
bool
keyLess(float a, float b)
{
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

/** Quantile by the definition, on a fully sorted copy. */
float
sortedQuantile(const std::vector<float> &sorted, double q)
{
    const std::size_t n = sorted.size();
    const double pos = q * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<float>((1.0 - frac) * sorted[lo] + frac * sorted[hi]);
}

/** Same float, or (nth_element ties -0 with +0) both zero. */
bool
sameQuantile(float got, float want, bool exact_zero_sign)
{
    if (exact_zero_sign || want != 0.0f)
        return std::memcmp(&got, &want, sizeof got) == 0;
    return got == 0.0f;
}

} // namespace

TEST(ReCU, QuantilePairMatchesSortReference)
{
    // Sizes on both sides of the radix cutoff (5000), one value, and
    // enough values for several histogram chunks; values with heavy
    // ties, -0 and +0, and infinities.
    Rng rng(16);
    for (const std::size_t n : {1u, 2u, 7u, 4999u, 5000u, 5001u, 65537u,
                                300001u}) {
        Tensor w({n});
        for (std::size_t i = 0; i < n; ++i) {
            switch (i % 5) {
              case 0: w[i] = static_cast<float>(rng.randint(-2, 2)); break;
              case 1: w[i] = rng.randint(0, 1) ? 0.0f : -0.0f; break;
              case 2: w[i] = static_cast<float>(rng.normal()); break;
              case 3: w[i] = static_cast<float>(rng.normal(0.0, 1e-3)); break;
              default:
                w[i] = i % 97 == 4 ? (rng.randint(0, 1) ? INFINITY
                                                       : -INFINITY)
                                   : static_cast<float>(rng.normal());
            }
        }
        std::vector<float> sorted(w.data(), w.data() + n);
        std::sort(sorted.begin(), sorted.end(), keyLess);
        const bool radix = n >= 5000;
        for (const double tau : {0.5, 0.85, 0.9, 0.99, 1.0}) {
            const float want_hi = sortedQuantile(sorted, tau);
            const float want_lo = sortedQuantile(sorted, 1.0 - tau);
            EXPECT_TRUE(sameQuantile(quantile(w, tau), want_hi, radix))
                << "n=" << n << " q=" << tau;
            Tensor clamped = w;
            const auto [lo, hi] = applyReCU(clamped, tau);
            EXPECT_TRUE(sameQuantile(hi, want_hi, radix))
                << "n=" << n << " tau=" << tau << ": " << hi << " vs "
                << want_hi;
            EXPECT_TRUE(sameQuantile(lo, want_lo, radix))
                << "n=" << n << " tau=" << tau << ": " << lo << " vs "
                << want_lo;
            std::size_t moved = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const float want = std::max(std::min(w[i], hi), lo);
                moved += std::memcmp(&clamped[i], &want, sizeof want) != 0;
            }
            EXPECT_EQ(moved, 0u) << "n=" << n << " tau=" << tau;
        }
    }
}

TEST(ReCU, NaNValuesAreACheckedErrorNamingTheIndex)
{
    // std::nth_element on NaN breaks strict weak ordering (undefined
    // behaviour); both selection paths must refuse it instead.
    for (const auto &[n, at] :
         {std::pair<std::size_t, std::size_t>{6, 3}, {6000, 4321}}) {
        Tensor w({n});
        for (std::size_t i = 0; i < n; ++i)
            w[i] = static_cast<float>(i % 11) - 5.0f;
        w[at] = std::nanf("");
        const std::string index = "[" + std::to_string(at) + "]";
        try {
            (void)quantile(w, 0.9);
            FAIL() << "NaN accepted by quantile, n=" << n;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(index), std::string::npos)
                << e.what();
        }
        try {
            (void)applyReCU(w, 0.9);
            FAIL() << "NaN accepted by applyReCU, n=" << n;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(index), std::string::npos)
                << e.what();
        }
    }
}

TEST(ReCU, ClampRejectsTauOutsideHalfToOne)
{
    for (const double tau : {0.4, 1.01, std::nan("")}) {
        Tensor w = Tensor::fromVector({1, 2, 3});
        try {
            (void)applyReCU(w, tau);
            FAIL() << "tau=" << tau << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("tau"), std::string::npos);
        }
    }
}

TEST(ReCU, ScheduleRejectsTauOutsideHalfToOne)
{
    const std::pair<double, double> bad_start[] = {{0.3, 0.99},
                                                   {std::nan(""), 0.99}};
    for (const auto &[start, end] : bad_start)
        try {
            (void)ReCUSchedule(start, end);
            FAIL() << "tau_start=" << start << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("tau_start"),
                      std::string::npos);
        }
    const std::pair<double, double> bad_end[] = {{0.85, 1.2}, {0.9, 0.8}};
    for (const auto &[start, end] : bad_end)
        try {
            (void)ReCUSchedule(start, end);
            FAIL() << "tau_end=" << end << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("tau_end"),
                      std::string::npos);
        }
}

TEST(ReCU, ClampMovesOutliersInward)
{
    Rng rng(11);
    Tensor w = Tensor::randn({1000}, rng);
    w[0] = 50.0f;
    w[1] = -50.0f;
    const auto [lo, hi] = applyReCU(w, 0.95);
    EXPECT_LE(w.maxValue(), hi);
    EXPECT_GE(w.minValue(), lo);
    EXPECT_LT(w.maxValue(), 50.0f);
    EXPECT_GT(w.minValue(), -50.0f);
}

TEST(ReCU, InteriorValuesUntouched)
{
    Tensor w = Tensor::fromVector({-0.1f, 0.0f, 0.1f, -3.0f, 3.0f});
    Tensor before = w;
    applyReCU(w, 0.8);
    // The middle three elements lie inside the quantile band.
    EXPECT_FLOAT_EQ(w[0], before[0]);
    EXPECT_FLOAT_EQ(w[1], before[1]);
    EXPECT_FLOAT_EQ(w[2], before[2]);
    EXPECT_LT(w[4], 3.0f);
}

TEST(ReCU, TauOneIsNoop)
{
    Rng rng(12);
    Tensor w = Tensor::randn({100}, rng);
    Tensor before = w;
    applyReCU(w, 1.0);
    EXPECT_TRUE(w.allClose(before));
}

TEST(ReCU, ScheduleRampsFromStartToEnd)
{
    ReCUSchedule sched(0.85, 0.99);
    EXPECT_DOUBLE_EQ(sched.tauAt(0, 100), 0.85);
    EXPECT_NEAR(sched.tauAt(99, 100), 0.99, 1e-12);
    EXPECT_GT(sched.tauAt(50, 100), 0.85);
    EXPECT_LT(sched.tauAt(50, 100), 0.99);
}

class ReCUQuantileSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ReCUQuantileSweep, ClampBoundsMatchQuantiles)
{
    Rng rng(13);
    Tensor w = Tensor::randn({5000}, rng);
    const double tau = GetParam();
    const float expect_hi = quantile(w, tau);
    const float expect_lo = quantile(w, 1.0 - tau);
    const auto [lo, hi] = applyReCU(w, tau);
    EXPECT_FLOAT_EQ(hi, expect_hi);
    EXPECT_FLOAT_EQ(lo, expect_lo);
    // Roughly 2*(1-tau) of the mass gets clamped on a smooth dist.
    std::size_t at_bounds = 0;
    for (std::size_t i = 0; i < w.size(); ++i)
        if (w[i] == lo || w[i] == hi)
            ++at_bounds;
    const double frac = static_cast<double>(at_bounds) / w.size();
    EXPECT_NEAR(frac, 2.0 * (1.0 - tau), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Taus, ReCUQuantileSweep,
                         ::testing::Values(0.85, 0.9, 0.95, 0.99));
