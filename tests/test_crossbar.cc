/**
 * @file
 * Tests for the crossbar simulator: LiM cells, column summation with
 * attenuation, neurons, multi-tile mapping and the tile executor.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "crossbar/crossbar_array.h"
#include "crossbar/lim_cell.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "tensor/tensor_ops.h"

using namespace superbnn;
using namespace superbnn::crossbar;

namespace {

/// A gray-zone so narrow the hardware is effectively deterministic.
constexpr double kTinyGrayZone = 1e-6;

aqfp::AttenuationModel
atten()
{
    return aqfp::AttenuationModel();
}

Tensor
randomSignedMatrix(std::size_t out, std::size_t in, Rng &rng)
{
    Tensor w({out, in});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    return w;
}

} // namespace

TEST(LimCellTest, XnorMultiplication)
{
    LimCell cell;
    cell.program(1);
    EXPECT_EQ(cell.multiply(1), 1);
    EXPECT_EQ(cell.multiply(-1), -1);
    cell.program(-1);
    EXPECT_EQ(cell.multiply(1), -1);
    EXPECT_EQ(cell.multiply(-1), 1);
}

TEST(LimCellTest, InactiveAndPaddingContributeNothing)
{
    LimCell cell;
    EXPECT_FALSE(cell.active());
    EXPECT_EQ(cell.multiply(1), 0);
    cell.program(1);
    EXPECT_EQ(cell.multiply(0), 0); // undriven padding row
    cell.clear();
    EXPECT_EQ(cell.multiply(-1), 0);
}

TEST(CrossbarArrayTest, ColumnSumIsDotProduct)
{
    CrossbarArray xbar(4, atten(), 2.4);
    // Column 0 weights: +1 -1 +1 -1.
    xbar.programCell(0, 0, 1);
    xbar.programCell(1, 0, -1);
    xbar.programCell(2, 0, 1);
    xbar.programCell(3, 0, -1);
    EXPECT_EQ(xbar.columnSum(0, {1, 1, 1, 1}), 0);
    EXPECT_EQ(xbar.columnSum(0, {1, -1, 1, -1}), 4);
    EXPECT_EQ(xbar.columnSum(0, {-1, 1, -1, 1}), -4);
}

TEST(CrossbarArrayTest, ColumnCurrentUsesAttenuatedUnit)
{
    const auto model = atten();
    CrossbarArray xbar(8, model, 2.4);
    xbar.programCell(0, 0, 1);
    const double i1 = model.currentForValueOne(8.0);
    EXPECT_NEAR(xbar.unitCurrentUa(), i1, 1e-12);
    EXPECT_NEAR(xbar.columnCurrent(0, {1}), i1, 1e-12);
}

TEST(CrossbarArrayTest, LargerArrayHasSmallerUnitCurrent)
{
    const auto model = atten();
    CrossbarArray small(4, model, 2.4);
    CrossbarArray big(72, model, 2.4);
    EXPECT_GT(small.unitCurrentUa(), big.unitCurrentUa());
}

TEST(CrossbarArrayTest, RejectsBadGrayZoneWidth)
{
    EXPECT_THROW(CrossbarArray(4, atten(), 0.0), std::invalid_argument);
    EXPECT_THROW(CrossbarArray(4, atten(), -1.0), std::invalid_argument);
    EXPECT_THROW(CrossbarArray(4, atten(), std::nan("")),
                 std::invalid_argument);
}

TEST(CrossbarArrayTest, MutatorsRejectBadArgumentsBeforeMutating)
{
    CrossbarArray xbar(8, atten(), 2.4);
    Rng setup(3);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            xbar.programCell(r, c, setup.bernoulli(0.5) ? 1 : -1);
    const auto unchanged = [&] {
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_EQ(xbar.neuron(c).deltaIinUa(), 2.4) << "column " << c;
            for (std::size_t r = 0; r < 8; ++r)
                EXPECT_NE(xbar.weightAt(r, c), 0) << r << "," << c;
        }
    };
    const auto rejects = [](const auto &call, const std::string &what) {
        try {
            call();
            ADD_FAILURE() << "no exception for " << what;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };
    Rng rng(5);
    const double inf = std::numeric_limits<double>::infinity();
    for (const double sigma : {-0.1, std::nan(""), inf, -inf})
        rejects([&] { xbar.applyGrayZoneVariation(sigma, rng); },
                std::to_string(sigma));
    unchanged();
    for (const double fraction : {-0.1, 1.5, std::nan(""), inf})
        rejects([&] { xbar.injectStuckCellsSeeded(fraction, 7); },
                std::to_string(fraction));
    unchanged();
    // The limits themselves are accepted.
    xbar.applyGrayZoneVariation(0.0, rng);
    unchanged();
    EXPECT_EQ(xbar.injectStuckCellsSeeded(1.0, 7), 64u);
}

TEST(CrossbarArrayTest, DeterministicSignWithTinyGrayZone)
{
    CrossbarArray xbar(4, atten(), kTinyGrayZone);
    std::vector<std::vector<int>> w = {
        {1, -1}, {1, -1}, {1, 1}, {1, 1}};
    xbar.programWeights(w);
    const auto probs = xbar.columnProbabilities({1, 1, 1, 1});
    EXPECT_EQ(probs[0], 1.0); // column sum +4: always fires '1'
    EXPECT_EQ(probs[1], 0.5); // column sum 0: exactly at the threshold
}

TEST(CrossbarArrayTest, ThresholdValueScalesByUnitCurrent)
{
    CrossbarArray xbar(4, atten(), kTinyGrayZone);
    std::vector<std::vector<int>> w = {{1}, {1}, {1}, {1}};
    xbar.programWeights(w);
    // Sum is +4; threshold of 5 units pushes the decision negative.
    xbar.setColumnThresholdValue(0, 5.0);
    EXPECT_EQ(xbar.columnProbabilities({1, 1, 1, 1})[0], 0.0);
    xbar.setColumnThresholdValue(0, 3.0);
    EXPECT_EQ(xbar.columnProbabilities({1, 1, 1, 1})[0], 1.0);
}

TEST(CrossbarArrayTest, ProbabilitiesMatchGrayZoneModel)
{
    const auto model = atten();
    CrossbarArray xbar(4, model, 2.4);
    std::vector<std::vector<int>> w = {{1}, {1}, {1}, {1}};
    xbar.programWeights(w);
    const aqfp::GrayZoneModel gz(2.4, 0.0);
    const auto probs = xbar.columnProbabilities({1, 1, -1, 1});
    const double current = 2.0 * model.currentForValueOne(4.0);
    EXPECT_NEAR(probs[0], gz.probOne(current), 1e-12);
}

TEST(CrossbarArrayTest, ObserveWindowLength)
{
    CrossbarArray xbar(4, atten(), 2.4);
    const auto streams =
        xbar.observeBatchSeeded({{1, 1, 1, 1}, {1, -1, 1, -1}}, 13, {3, 4});
    ASSERT_EQ(streams.size(), 4u);
    for (const auto &s : streams) {
        EXPECT_EQ(s.batch(), 2u);
        EXPECT_EQ(s.length(), 13u);
    }
}

// --- mapper ---

TEST(MapperTest, GridDimensions)
{
    Rng rng(4);
    const CrossbarMapper mapper(16, atten(), 2.4);
    const Tensor w = randomSignedMatrix(20, 50, rng);
    const MappedLayer layer = mapper.map(w);
    EXPECT_EQ(layer.rowTiles, 4u);  // ceil(50/16)
    EXPECT_EQ(layer.colTiles, 2u);  // ceil(20/16)
    EXPECT_EQ(layer.tileCount(), 8u);
    EXPECT_EQ(layer.fanIn, 50u);
    EXPECT_EQ(layer.fanOut, 20u);
}

TEST(MapperTest, TiledLatentSumsMatchFullMatmul)
{
    Rng rng(5);
    const CrossbarMapper mapper(8, atten(), kTinyGrayZone);
    const Tensor w = randomSignedMatrix(12, 30, rng);
    MappedLayer layer = mapper.map(w);
    const TileExecutor exec(1);

    std::vector<int> acts(30);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;

    const auto sums = exec.latentSums(layer, acts);
    for (std::size_t o = 0; o < 12; ++o) {
        double expect = 0.0;
        for (std::size_t i = 0; i < 30; ++i)
            expect += w.at(o, i) * acts[i];
        EXPECT_NEAR(sums[o], expect, 1e-9) << "output " << o;
    }
}

TEST(MapperTest, ThresholdDividedEvenlyAcrossRowTiles)
{
    Rng rng(6);
    const CrossbarMapper mapper(8, atten(), kTinyGrayZone);
    const Tensor w = randomSignedMatrix(4, 24, rng);
    MappedLayer layer = mapper.map(w);
    CrossbarMapper::setThresholds(layer, {3.0, -6.0, 0.0, 9.0});
    ASSERT_EQ(layer.rowTiles, 3u);
    const double unit = layer.tile(0, 0).unitCurrentUa();
    for (std::size_t rt = 0; rt < 3; ++rt) {
        EXPECT_NEAR(layer.tile(rt, 0).neuron(1).ithUa(),
                    -6.0 / 3.0 * unit, 1e-9);
        EXPECT_NEAR(layer.tile(rt, 0).neuron(3).ithUa(),
                    9.0 / 3.0 * unit, 1e-9);
    }
    // Thresholds shift the latent sums.
    const TileExecutor exec(1);
    std::vector<int> acts(24, 1);
    const auto sums = exec.latentSums(layer, acts);
    double raw1 = 0.0;
    for (std::size_t i = 0; i < 24; ++i)
        raw1 += w.at(1, i);
    EXPECT_NEAR(sums[1], raw1 + 6.0, 1e-9);
}

// --- executor ---

TEST(ExecutorTest, DeterministicForwardMatchesSignSingleTile)
{
    // With one row tile (fan-in <= Cs) and a vanishing gray zone, the
    // hardware decision is exactly the sign of the latent sum.
    Rng rng(7);
    const CrossbarMapper mapper(8, atten(), kTinyGrayZone);
    const Tensor w = randomSignedMatrix(10, 8, rng);
    MappedLayer layer = mapper.map(w);
    ASSERT_EQ(layer.rowTiles, 1u);
    const TileExecutor exec(4, true);

    for (int trial = 0; trial < 10; ++trial) {
        std::vector<int> acts(8);
        for (auto &a : acts)
            a = rng.bernoulli(0.5) ? 1 : -1;
        const auto sums = exec.latentSums(layer, acts);
        const auto outs = exec.forward(layer, acts, rng);
        for (std::size_t o = 0; o < 10; ++o) {
            if (sums[o] == 0.0)
                continue; // at zero the neuron sits at P = 0.5
            EXPECT_EQ(outs[o], sums[o] > 0 ? 1 : -1)
                << "output " << o << " sum " << sums[o];
        }
    }
}

TEST(ExecutorTest, MultiTileDeterministicAggregatesTileSigns)
{
    // Across multiple row tiles each crossbar emits only its column's
    // *sign*; with a vanishing gray zone the SC accumulation therefore
    // decides by the majority of tile signs, not the total sum. (The
    // finite gray zone is what restores magnitude information through
    // the firing probability — the paper's key observation about SC
    // compatibility.)
    Rng rng(77);
    const CrossbarMapper mapper(8, atten(), kTinyGrayZone);
    const Tensor w = randomSignedMatrix(6, 24, rng);
    MappedLayer layer = mapper.map(w);
    ASSERT_EQ(layer.rowTiles, 3u);
    const TileExecutor exec(4, true);

    std::vector<int> acts(24);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;

    // Reference: per-tile signs.
    std::vector<int> sign_sum(6, 0);
    std::vector<bool> any_tie(6, false);
    for (std::size_t o = 0; o < 6; ++o) {
        const std::size_t ct = o / layer.cs;
        const std::size_t local = o % layer.cs;
        for (std::size_t rt = 0; rt < 3; ++rt) {
            std::vector<int> slice(acts.begin() + rt * 8,
                                   acts.begin() + rt * 8 + 8);
            const int s = layer.tile(rt, ct).columnSum(local, slice);
            if (s == 0)
                any_tie[o] = true;
            sign_sum[o] += (s >= 0) ? 1 : -1;
        }
    }
    const auto outs = exec.forward(layer, acts, rng);
    for (std::size_t o = 0; o < 6; ++o) {
        if (any_tie[o] || sign_sum[o] == 0)
            continue;
        EXPECT_EQ(outs[o], sign_sum[o] > 0 ? 1 : -1)
            << "output " << o;
    }
}

TEST(ExecutorTest, StochasticForwardTracksLatentSign)
{
    Rng rng(8);
    const CrossbarMapper mapper(8, atten(), 2.4);
    const Tensor w = randomSignedMatrix(6, 16, rng);
    MappedLayer layer = mapper.map(w);
    const TileExecutor exec(16, true);

    std::vector<int> acts(16);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    const auto sums = exec.latentSums(layer, acts);

    const int trials = 120;
    std::vector<int> agree(6, 0);
    for (int t = 0; t < trials; ++t) {
        const auto outs = exec.forward(layer, acts, rng);
        for (std::size_t o = 0; o < 6; ++o)
            if ((sums[o] >= 0) == (outs[o] == 1))
                ++agree[o];
    }
    for (std::size_t o = 0; o < 6; ++o) {
        if (std::abs(sums[o]) >= 4.0) {
            EXPECT_GT(agree[o], trials * 3 / 4)
                << "large-margin output " << o
                << " should usually match, sum=" << sums[o];
        }
    }
}

TEST(ExecutorTest, DecodedHeadTracksLatentOrdering)
{
    Rng rng(9);
    const CrossbarMapper mapper(8, atten(), 2.4);
    const Tensor w = randomSignedMatrix(5, 32, rng);
    MappedLayer layer = mapper.map(w);
    const TileExecutor exec(64, true);

    std::vector<int> acts(32);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    const auto sums = exec.latentSums(layer, acts);

    // Average many decoded readouts; ordering of clearly separated
    // outputs must match the latent ordering.
    std::vector<double> mean(5, 0.0);
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
        const auto dec = exec.forwardDecoded(layer, acts, rng);
        for (std::size_t o = 0; o < 5; ++o)
            mean[o] += dec[o];
    }
    for (auto &m : mean)
        m /= trials;
    for (std::size_t a = 0; a < 5; ++a)
        for (std::size_t b = 0; b < 5; ++b)
            if (sums[a] > sums[b] + 6.0)
                EXPECT_GT(mean[a], mean[b])
                    << "latent " << sums[a] << " vs " << sums[b];
}

TEST(ExecutorTest, SingleTileProbabilities)
{
    Rng rng(10);
    const CrossbarMapper mapper(16, atten(), 2.4);
    const Tensor w = randomSignedMatrix(4, 10, rng);
    MappedLayer layer = mapper.map(w);
    ASSERT_EQ(layer.rowTiles, 1u);
    const TileExecutor exec(1);
    std::vector<int> acts(10, 1);
    const auto probs = exec.singleTileProbabilities(layer, acts);
    for (double p : probs) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

TEST(ExecutorTest, LatentSumsRejectsWrongActivationCount)
{
    // Checked in every build: unchecked, a short vector is read past
    // its end by the row-tile slices.
    Rng rng(12);
    const CrossbarMapper mapper(8, atten(), 2.4);
    const MappedLayer layer = mapper.map(randomSignedMatrix(4, 20, rng));
    const TileExecutor exec(1);
    try {
        exec.latentSums(layer, std::vector<int>(19, 1));
        ADD_FAILURE() << "19 activations were accepted for fan-in 20";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "TileExecutor::latentSums: 19 activations, "
                               "the layer's fan-in is 20");
    }
}

TEST(ExecutorTest, SingleTileProbabilitiesRejectsBadShapes)
{
    Rng rng(13);
    const CrossbarMapper mapper(8, atten(), 2.4);
    const MappedLayer two_tiles = mapper.map(randomSignedMatrix(4, 12, rng));
    ASSERT_EQ(two_tiles.rowTiles, 2u);
    const TileExecutor exec(1);
    try {
        exec.singleTileProbabilities(two_tiles, std::vector<int>(12, 1));
        ADD_FAILURE() << "a two-row-tile layer was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "TileExecutor::singleTileProbabilities: the "
                               "layer has 2 row tiles, exactly 1 is "
                               "required");
    }
    const MappedLayer one_tile = mapper.map(randomSignedMatrix(4, 6, rng));
    try {
        exec.singleTileProbabilities(one_tile, std::vector<int>(8, 1));
        ADD_FAILURE() << "8 activations were accepted for fan-in 6";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "TileExecutor::singleTileProbabilities: 8 "
                               "activations, the layer's fan-in is 6");
    }
}

class ExecutorWindowSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ExecutorWindowSweep, ErrorRateShrinksWithWindow)
{
    // The probability that the hardware decision disagrees with the
    // ideal sign decreases as the observation window L grows (the
    // Fig. 10 mechanism at layer level).
    const std::size_t window = GetParam();
    Rng rng(11);
    const CrossbarMapper mapper(8, atten(), 2.4);
    const Tensor w = randomSignedMatrix(8, 24, rng);
    MappedLayer layer = mapper.map(w);
    const TileExecutor exec(window, true);

    std::vector<int> acts(24);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    const auto sums = exec.latentSums(layer, acts);

    int mismatches = 0, decided = 0;
    const int trials = 150;
    for (int t = 0; t < trials; ++t) {
        const auto outs = exec.forward(layer, acts, rng);
        for (std::size_t o = 0; o < 8; ++o) {
            if (std::abs(sums[o]) < 2.0)
                continue;
            ++decided;
            if ((sums[o] > 0) != (outs[o] == 1))
                ++mismatches;
        }
    }
    if (decided > 0) {
        const double rate =
            static_cast<double>(mismatches) / decided;
        // Generous bound that tightens with the window.
        const double bound = window >= 32 ? 0.10 :
            window >= 8 ? 0.25 : 0.45;
        EXPECT_LT(rate, bound) << "window " << window;
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, ExecutorWindowSweep,
                         ::testing::Values(1, 8, 32));
