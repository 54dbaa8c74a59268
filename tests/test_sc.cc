/**
 * @file
 * Tests for the stochastic computing library: bitstream encodings, the
 * AQFP neuron as a stochastic-number source, parallel counters and the
 * SC-based accumulation module.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "aqfp/grayzone.h"
#include "sc/accumulation.h"
#include "sc/apc.h"
#include "sc/bitstream.h"

using namespace superbnn;
using namespace superbnn::sc;

TEST(Bitstream, PopcountAndDecode)
{
    // Paper Section 2.3 example: 0100110100 has four ones -> 0.4
    // unipolar; bipolar decode of 7 ones in 10 -> 0.4.
    Bitstream s({0, 1, 0, 0, 1, 1, 0, 1, 0, 0});
    EXPECT_EQ(s.popcount(), 4u);
    EXPECT_NEAR(s.decode(Encoding::Unipolar), 0.4, 1e-12);

    Bitstream b({1, 0, 1, 1, 0, 1, 1, 1, 0, 1});
    EXPECT_EQ(b.popcount(), 7u);
    EXPECT_NEAR(b.decode(Encoding::Bipolar), 0.4, 1e-12);
}

TEST(Bitstream, BipolarNegativeExample)
{
    // -0.6 as P(1) = 2/10 (paper example).
    Bitstream s({0, 1, 0, 0, 1, 0, 0, 0, 0, 0});
    EXPECT_NEAR(s.decode(Encoding::Bipolar), -0.6, 1e-12);
}

TEST(Bitstream, OnesProbabilityFormats)
{
    EXPECT_DOUBLE_EQ(onesProbability(0.4, Encoding::Unipolar), 0.4);
    EXPECT_DOUBLE_EQ(onesProbability(0.4, Encoding::Bipolar), 0.7);
    EXPECT_DOUBLE_EQ(onesProbability(-0.6, Encoding::Bipolar), 0.2);
    EXPECT_DOUBLE_EQ(onesProbability(2.0, Encoding::Unipolar), 1.0);
    EXPECT_DOUBLE_EQ(onesProbability(-2.0, Encoding::Bipolar), 0.0);
}

TEST(Bitstream, EncodeStatistics)
{
    Rng rng(1);
    const Bitstream s = encode(0.3, 50000, Encoding::Bipolar, rng);
    EXPECT_NEAR(s.decode(Encoding::Bipolar), 0.3, 0.02);
}

TEST(Bitstream, XnorIsBipolarMultiplication)
{
    Rng rng(2);
    const double xa = 0.5, xb = -0.4;
    const std::size_t len = 100000;
    const Bitstream a = encode(xa, len, Encoding::Bipolar, rng);
    const Bitstream b = encode(xb, len, Encoding::Bipolar, rng);
    const Bitstream prod = a.xnorWith(b);
    EXPECT_NEAR(prod.decode(Encoding::Bipolar), xa * xb, 0.02);
}

TEST(Bitstream, AndIsUnipolarMultiplication)
{
    Rng rng(3);
    const double xa = 0.7, xb = 0.5;
    const std::size_t len = 100000;
    const Bitstream a = encode(xa, len, Encoding::Unipolar, rng);
    const Bitstream b = encode(xb, len, Encoding::Unipolar, rng);
    EXPECT_NEAR(a.andWith(b).decode(Encoding::Unipolar), xa * xb, 0.02);
}

TEST(Bitstream, ToStringRoundTrip)
{
    Bitstream s({1, 0, 1});
    EXPECT_EQ(s.toString(), "101");
}

TEST(Sng, ObservationWindowEncodesProbability)
{
    // Fig. 6a: holding the input steady for L cycles yields an SN whose
    // density is the buffer's switching probability. The window is one
    // counter-stream fill at the neuron's probability, as the tile
    // executor draws each column.
    const aqfp::GrayZoneModel model(2.4, 0.0);
    const std::size_t window = 20000;
    std::uint64_t seed = 4;
    for (double iin : {-1.0, 0.0, 0.5, 1.5}) {
        std::vector<std::uint64_t> words(detail::wordsForLength(window));
        detail::CounterStream stream{seed++, 0};
        detail::bernoulliFill(words.data(), window, model.probOne(iin),
                              stream);
        const Bitstream s = Bitstream::fromWords(words, window);
        EXPECT_NEAR(s.decode(Encoding::Unipolar), model.probOne(iin),
                    0.02)
            << "Iin=" << iin;
    }
}

// --- parallel counters ---

TEST(Apc, ExactCounterCountsOnes)
{
    ParallelCounter pc(6);
    EXPECT_EQ(pc.count({1, 0, 1, 1, 0, 1}), 4u);
    EXPECT_EQ(pc.count({0, 0, 0, 0, 0, 0}), 0u);
    EXPECT_EQ(pc.count({1, 1, 1, 1, 1, 1}), 6u);
}

TEST(Apc, ApproxNeverOvercounts)
{
    Rng rng(6);
    ApproxParallelCounter apc(12, 0.5);
    ParallelCounter exact(12);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> bits(12);
        for (auto &b : bits)
            b = rng.bernoulli(0.5) ? 1 : 0;
        const std::size_t approx = apc.count(bits);
        const std::size_t truth = exact.count(bits);
        EXPECT_LE(approx, truth);
        EXPECT_GE(approx + apc.maxUndercount(), truth);
    }
}

TEST(Apc, ZeroDropIsExact)
{
    Rng rng(7);
    ApproxParallelCounter apc(9, 0.0);
    ParallelCounter exact(9);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint8_t> bits(9);
        for (auto &b : bits)
            b = rng.bernoulli(0.3) ? 1 : 0;
        EXPECT_EQ(apc.count(bits), exact.count(bits));
    }
}

TEST(Apc, ApproxSavesGates)
{
    const aqfp::CellLibrary lib;
    ApproxParallelCounter apc(16, 0.5);
    ParallelCounter exact(16);
    EXPECT_LT(apc.netlist().totalJj(lib), exact.netlist().totalJj(lib));
}

TEST(Apc, SingleInputDegenerate)
{
    ParallelCounter pc(1);
    EXPECT_EQ(pc.count({1}), 1u);
    ApproxParallelCounter apc(1);
    EXPECT_EQ(apc.count({0}), 0u);
    EXPECT_EQ(apc.maxUndercount(), 0u);
}

class ApcWidthSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ApcWidthSweep, MeanUndercountIsSmall)
{
    // Each dropped pair undercounts by one exactly when it is (1,1),
    // so for p = 0.5 inputs the expected error is droppedPairs / 4.
    const std::size_t t = GetParam();
    Rng rng(8);
    ApproxParallelCounter apc(t, 0.5);
    ParallelCounter exact(t);
    double err = 0.0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i) {
        std::vector<std::uint8_t> bits(t);
        for (auto &b : bits)
            b = rng.bernoulli(0.5) ? 1 : 0;
        err += static_cast<double>(exact.count(bits))
            - apc.count(bits);
    }
    err /= trials;
    const double expected =
        static_cast<double>(apc.droppedPairs()) / 4.0;
    EXPECT_NEAR(err, expected, 0.2 + expected * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Widths, ApcWidthSweep,
                         ::testing::Values(4, 8, 16, 32));

// --- accumulation module ---

TEST(Accumulation, PositiveSumGivesPlusOne)
{
    AccumulationModule mod(3, 8, true);
    std::vector<Bitstream> streams(3, Bitstream(8));
    for (auto &s : streams)
        for (std::size_t i = 0; i < 8; ++i)
            s.setBit(i, true);
    EXPECT_EQ(mod.accumulate(streams), 1);
    EXPECT_EQ(mod.rawCount(streams), 24u);
    EXPECT_NEAR(mod.decodedSum(streams), 3.0, 1e-12);
}

TEST(Accumulation, NegativeSumGivesMinusOne)
{
    AccumulationModule mod(2, 4, true);
    std::vector<Bitstream> streams(2, Bitstream(4)); // all zeros
    EXPECT_EQ(mod.accumulate(streams), -1);
    EXPECT_NEAR(mod.decodedSum(streams), -2.0, 1e-12);
}

TEST(Accumulation, ReferenceOffsetBiasesDecision)
{
    AccumulationModule mod(1, 4, true);
    Bitstream s(4);
    s.setBit(0, true);
    s.setBit(1, true);
    s.setBit(2, true); // 3 of 4 ones: count 3, ref 2 -> +1
    EXPECT_EQ(mod.accumulate({s}), 1);
    // Raising the reference flips the decision.
    EXPECT_EQ(mod.accumulate({s}, 2.0), -1);
}

TEST(Accumulation, StatisticalSignRecovery)
{
    // Three crossbars with latent bipolar values 0.6, -0.2, 0.1 sum to
    // +0.5: the module should output +1 with high probability for a
    // moderately long window.
    Rng rng(9);
    const std::vector<double> values = {0.6, -0.2, 0.1};
    AccumulationModule mod(3, 32, true);
    int plus = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        std::vector<Bitstream> streams;
        for (double v : values)
            streams.push_back(encode(v, 32, Encoding::Bipolar, rng));
        plus += mod.accumulate(streams) == 1 ? 1 : 0;
    }
    EXPECT_GT(static_cast<double>(plus) / trials, 0.9);
}

TEST(Accumulation, LongerWindowReducesErrors)
{
    // With a small latent margin, a long observation window must make
    // the decision more reliable than short windows (the Fig. 10
    // mechanism). Individual short windows are not strictly ordered
    // because of tie-breaking at the reference.
    Rng rng(10);
    const std::vector<double> values = {0.3, -0.1};
    std::vector<double> errs;
    for (std::size_t window : {2u, 8u, 64u}) {
        AccumulationModule mod(2, window, true);
        int errors = 0;
        const int trials = 2000;
        for (int t = 0; t < trials; ++t) {
            std::vector<Bitstream> streams;
            for (double v : values)
                streams.push_back(
                    encode(v, window, Encoding::Bipolar, rng));
            if (mod.accumulate(streams) != 1)
                ++errors;
        }
        errs.push_back(static_cast<double>(errors) / trials);
    }
    EXPECT_LT(errs.back(), 0.25);
    EXPECT_LE(errs.back(), errs[0] + 0.05);
    EXPECT_LE(errs.back(), errs[1] + 0.05);
}

TEST(Accumulation, ApproxApcBiasesTowardMinusOne)
{
    // The approximate APC undercounts ones, so near-zero sums lean -1;
    // decisions with wide margins are unaffected.
    AccumulationModule approx(4, 8, false, 1.0);
    std::vector<Bitstream> all_ones(4, Bitstream(8));
    for (auto &s : all_ones)
        for (std::size_t i = 0; i < 8; ++i)
            s.setBit(i, true);
    EXPECT_EQ(approx.accumulate(all_ones), 1); // (1,1) pairs still OR to 1
}

TEST(Accumulation, NetlistSmallerThanExact)
{
    const aqfp::CellLibrary lib;
    AccumulationModule approx(16, 16, false, 0.5);
    AccumulationModule exact(16, 16, true);
    EXPECT_LT(approx.netlist().totalJj(lib),
              exact.netlist().totalJj(lib));
}
