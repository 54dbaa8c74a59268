/**
 * @file
 * Tests for the AQFP gray-zone probability model (Eq. 1 / Fig. 4) and the
 * thermal noise model.
 */

#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "aqfp/grayzone.h"
#include "aqfp/noise.h"

using namespace superbnn;
using namespace superbnn::aqfp;

TEST(GrayZone, HalfProbabilityAtThreshold)
{
    GrayZoneModel m(2.4, 0.0);
    EXPECT_DOUBLE_EQ(m.probOne(0.0), 0.5);
    GrayZoneModel shifted(2.4, 1.5);
    EXPECT_DOUBLE_EQ(shifted.probOne(1.5), 0.5);
}

TEST(GrayZone, SymmetricAroundThreshold)
{
    GrayZoneModel m(2.4, 0.0);
    for (double i : {0.3, 0.7, 1.1, 1.9, 3.0})
        EXPECT_NEAR(m.probOne(i) + m.probOne(-i), 1.0, 1e-12);
}

TEST(GrayZone, MonotoneIncreasing)
{
    GrayZoneModel m(2.4, 0.0);
    double prev = 0.0;
    for (double i = -5.0; i <= 5.0; i += 0.1) {
        const double p = m.probOne(i);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

TEST(GrayZone, SaturatesOutsideGrayZone)
{
    GrayZoneModel m(2.4, 0.0);
    EXPECT_GT(m.probOne(4.0), 0.999);
    EXPECT_LT(m.probOne(-4.0), 0.001);
}

TEST(GrayZone, Figure4BoundaryNearTwoMicroamps)
{
    // The paper reports the randomized-switching boundary around +/-2 uA
    // for the default configuration.
    GrayZoneModel m(2.4, 0.0);
    const double boundary = m.deterministicBoundary(0.01);
    EXPECT_GT(boundary, 1.4);
    EXPECT_LT(boundary, 2.6);
    EXPECT_NEAR(m.probOne(boundary), 0.99, 1e-6);
}

TEST(GrayZone, ThresholdShiftsCurve)
{
    GrayZoneModel base(2.4, 0.0);
    GrayZoneModel shifted(2.4, 2.0);
    EXPECT_NEAR(shifted.probOne(3.0), base.probOne(1.0), 1e-12);
}

TEST(GrayZone, SetIthAndDelta)
{
    GrayZoneModel m(2.4, 0.0);
    m.setIth(5.0);
    EXPECT_DOUBLE_EQ(m.ith(), 5.0);
    m.setDeltaIin(1.2);
    EXPECT_DOUBLE_EQ(m.deltaIin(), 1.2);
    EXPECT_DOUBLE_EQ(m.probOne(5.0), 0.5);
}

TEST(GrayZone, RejectsNonPositiveOrNonFiniteWidth)
{
    // Checked in every build: a zero or NaN width would make probOne
    // divide by zero or return NaN.
    for (const double bad : {0.0, -2.4, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(GrayZoneModel(bad, 0.0), std::invalid_argument)
            << bad;
        GrayZoneModel m(2.4, 0.0);
        EXPECT_THROW(m.setDeltaIin(bad), std::invalid_argument) << bad;
        EXPECT_DOUBLE_EQ(m.deltaIin(), 2.4); // unchanged by the throw
    }
}

TEST(GrayZone, ExpectationGradientMatchesNumeric)
{
    GrayZoneModel m(2.4, 0.5);
    const double eps = 1e-5;
    for (double x : {-2.0, -0.5, 0.5, 1.0, 3.0}) {
        const double e_p = 2.0 * m.probOne(x + eps) - 1.0;
        const double e_m = 2.0 * m.probOne(x - eps) - 1.0;
        const double num = (e_p - e_m) / (2.0 * eps);
        EXPECT_NEAR(m.expectationGrad(x), num, 1e-5);
    }
}

TEST(GrayZone, SamplingMatchesProbability)
{
    GrayZoneModel m(2.4, 0.0);
    Rng rng(99);
    for (double i : {-1.5, -0.5, 0.0, 0.8, 1.6}) {
        const int trials = 20000;
        int ones = 0;
        for (int t = 0; t < trials; ++t)
            ones += m.sampleBit(i, rng);
        const double emp = static_cast<double>(ones) / trials;
        EXPECT_NEAR(emp, m.probOne(i), 0.015) << "at Iin=" << i;
    }
}

class GrayZoneWidthSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(GrayZoneWidthSweep, NarrowerZoneIsSharper)
{
    const double width = GetParam();
    GrayZoneModel m(width, 0.0);
    GrayZoneModel wide(width * 2.0, 0.0);
    // At the same positive input, the narrower zone gives a more
    // deterministic (higher) probability of '1'.
    for (double i : {0.2, 0.5, 1.0})
        EXPECT_GT(m.probOne(i), wide.probOne(i));
    // Boundary grows linearly with the zone width.
    EXPECT_NEAR(wide.deterministicBoundary() / m.deterministicBoundary(),
                2.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Widths, GrayZoneWidthSweep,
                         ::testing::Values(0.8, 1.6, 2.4, 3.2, 4.0));

// --- thermal noise ---

TEST(ThermalNoise, CalibratedAtOperatingPoint)
{
    ThermalNoiseModel noise;
    EXPECT_NEAR(noise.grayZoneWidth(
                    ThermalNoiseModel::kOperatingTemperature),
                2.4, 0.05);
}

TEST(ThermalNoise, SaturatesAtQuantumFloor)
{
    ThermalNoiseModel noise;
    const double at_zero = noise.grayZoneWidth(0.0);
    EXPECT_GT(at_zero, 0.0);
    EXPECT_NEAR(noise.grayZoneWidth(1e-6), at_zero, 1e-9);
}

TEST(ThermalNoise, GrowsWithTemperature)
{
    ThermalNoiseModel noise;
    double prev = noise.grayZoneWidth(0.0);
    for (double t = 1.0; t <= 10.0; t += 1.0) {
        const double w = noise.grayZoneWidth(t);
        EXPECT_GT(w, prev);
        prev = w;
    }
}

TEST(ThermalNoise, LinearInHighTemperatureLimit)
{
    ThermalNoiseModel noise;
    const double w40 = noise.grayZoneWidth(40.0);
    const double w80 = noise.grayZoneWidth(80.0);
    EXPECT_NEAR(w80 / w40, 2.0, 0.01);
}

TEST(ThermalNoise, CrossoverBelowOperatingPoint)
{
    // At 4.2 K the paper treats thermal noise as dominant; the quantum
    // crossover must sit well below the operating temperature.
    ThermalNoiseModel noise;
    EXPECT_LT(noise.quantumCrossoverTemperature(),
              ThermalNoiseModel::kOperatingTemperature / 2.0);
}
