/**
 * @file
 * Differential tests of the SIMD kernel dispatch layer: every arm
 * available on the host must be bit-identical to the scalar reference
 * across the word-loop primitives, Bernoulli generation, batched
 * layouts (including tail-word masking at odd lengths x odd batch
 * sizes), and the crossbar column-sum path.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "aqfp/attenuation.h"
#include "crossbar/crossbar_array.h"
#include "sc/accumulation.h"
#include "sc/apc.h"
#include "sc/bitstream.h"
#include "sc/bitstream_batch.h"
#include "simd/kernels.h"
#include "simd_test_util.h"
#include "tensor/random.h"

namespace {

using namespace superbnn;

/// The PR-1 edge-case lengths: word-boundary straddles plus a long one.
const std::size_t kLengths[] = {1, 63, 64, 65, 127, 128, 129, 1000};

using superbnn::test::ArmRestore;

std::uint64_t
tailMaskFor(std::size_t length)
{
    const std::size_t tail = length % 64;
    return tail == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << tail) - 1;
}

/// Random packed words honoring the zero-tail invariant.
std::vector<std::uint64_t>
randomWords(std::size_t length, Rng &rng)
{
    std::vector<std::uint64_t> words((length + 63) / 64);
    for (auto &w : words)
        w = rng.raw()();
    if (!words.empty())
        words.back() &= tailMaskFor(length);
    return words;
}

std::size_t
bruteForcePopcount(const std::vector<std::uint64_t> &words)
{
    std::size_t ones = 0;
    for (std::uint64_t w : words)
        for (int b = 0; b < 64; ++b)
            ones += (w >> b) & 1u;
    return ones;
}

TEST(SimdDispatch, ScalarAlwaysAvailable)
{
    ASSERT_NE(simd::kernelsFor(simd::Arm::Scalar), nullptr);
    const auto arms = simd::availableArms();
    ASSERT_FALSE(arms.empty());
    EXPECT_EQ(arms.front(), simd::Arm::Scalar);
}

TEST(SimdDispatch, ActiveArmIsAvailable)
{
    const auto arms = simd::availableArms();
    bool found = false;
    for (const simd::Arm arm : arms)
        found = found || arm == simd::activeArm();
    EXPECT_TRUE(found);
}

TEST(SimdDispatch, ArmNamesRoundTrip)
{
    for (const simd::Arm arm :
         {simd::Arm::Scalar, simd::Arm::Avx2, simd::Arm::Avx512,
          simd::Arm::Neon}) {
        simd::Arm parsed;
        ASSERT_TRUE(simd::armFromName(simd::armName(arm), parsed));
        EXPECT_EQ(parsed, arm);
    }
    simd::Arm parsed;
    EXPECT_FALSE(simd::armFromName("sse9", parsed));
    EXPECT_FALSE(simd::armFromName("", parsed));
    EXPECT_FALSE(simd::armFromName(nullptr, parsed));
}

TEST(SimdDispatch, SetActiveArmRoundTrips)
{
    ArmRestore restore;
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        EXPECT_EQ(simd::activeArm(), arm);
        EXPECT_STREQ(simd::active().name, simd::armName(arm));
    }
}

TEST(SimdKernels, PopcountMatchesScalarAndBruteForce)
{
    Rng rng(101);
    const simd::KernelSet &scalar =
        *simd::kernelsFor(simd::Arm::Scalar);
    for (const std::size_t length : kLengths) {
        const auto words = randomWords(length, rng);
        const std::size_t expected = bruteForcePopcount(words);
        for (const simd::Arm arm : simd::availableArms()) {
            const simd::KernelSet &k = *simd::kernelsFor(arm);
            EXPECT_EQ(k.popcountWords(words.data(), words.size()),
                      expected)
                << simd::armName(arm) << " length " << length;
        }
        EXPECT_EQ(scalar.popcountWords(words.data(), words.size()),
                  expected);
    }
}

TEST(SimdKernels, FusedPopcountsMatchScalar)
{
    Rng rng(102);
    const simd::KernelSet &scalar =
        *simd::kernelsFor(simd::Arm::Scalar);
    for (const std::size_t length : kLengths) {
        const auto a = randomWords(length, rng);
        const auto b = randomWords(length, rng);
        const std::uint64_t mask = tailMaskFor(length);
        const std::size_t n = a.size();
        const std::size_t want_xnor =
            scalar.xnorPopcountWords(a.data(), b.data(), n, mask);
        const std::size_t want_and =
            scalar.andPopcountWords(a.data(), b.data(), n);
        const std::size_t want_or =
            scalar.orPopcountWords(a.data(), b.data(), n);
        // Ground truth for XNOR: matches = length - popcount(a ^ b).
        std::vector<std::uint64_t> x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = a[i] ^ b[i];
        ASSERT_EQ(want_xnor, length - bruteForcePopcount(x));
        for (const simd::Arm arm : simd::availableArms()) {
            const simd::KernelSet &k = *simd::kernelsFor(arm);
            EXPECT_EQ(
                k.xnorPopcountWords(a.data(), b.data(), n, mask),
                want_xnor)
                << simd::armName(arm) << " length " << length;
            EXPECT_EQ(k.andPopcountWords(a.data(), b.data(), n),
                      want_and)
                << simd::armName(arm) << " length " << length;
            EXPECT_EQ(k.orPopcountWords(a.data(), b.data(), n),
                      want_or)
                << simd::armName(arm) << " length " << length;
        }
    }
}

TEST(SimdKernels, XnorPopcountHandlesEmpty)
{
    for (const simd::Arm arm : simd::availableArms()) {
        const simd::KernelSet &k = *simd::kernelsFor(arm);
        EXPECT_EQ(k.xnorPopcountWords(nullptr, nullptr, 0,
                                      ~std::uint64_t{0}),
                  0u)
            << simd::armName(arm);
        EXPECT_EQ(k.popcountWords(nullptr, 0), 0u);
    }
}

TEST(SimdKernels, PackThresholdWordMatchesScalar)
{
    Rng rng(103);
    const simd::KernelSet &scalar =
        *simd::kernelsFor(simd::Arm::Scalar);
    const std::uint64_t thresholds[] = {
        0,
        1,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0},
    };
    std::uint64_t draws[64];
    for (std::size_t count = 1; count <= 64; ++count) {
        for (const std::uint64_t threshold : thresholds) {
            for (std::size_t i = 0; i < count; ++i)
                draws[i] = rng.raw()();
            // A couple of draws exactly at the threshold exercise the
            // strict-inequality edge.
            if (count >= 2 && threshold > 0)
                draws[count / 2] = threshold;
            std::uint64_t expected = 0;
            for (std::size_t i = 0; i < count; ++i)
                expected |=
                    static_cast<std::uint64_t>(draws[i] < threshold)
                    << i;
            ASSERT_EQ(
                scalar.packThresholdWord(draws, count, threshold),
                expected);
            for (const simd::Arm arm : simd::availableArms())
                EXPECT_EQ(simd::kernelsFor(arm)->packThresholdWord(
                              draws, count, threshold),
                          expected)
                    << simd::armName(arm) << " count " << count;
        }
    }
}

TEST(SimdKernels, GenerateThresholdWordsMatchesScalar)
{
    // The counter-based Bernoulli kernel: every arm must reproduce the
    // scalar reference bit-for-bit for the same (seed, counter,
    // threshold), including tail words and mid-stream counter starts.
    // (tests/test_counter_rng.cc pins the scalar reference itself to
    // the documented SplitMix64 scheme.)
    const simd::KernelSet &scalar =
        *simd::kernelsFor(simd::Arm::Scalar);
    const std::uint64_t thresholds[] = {
        0,
        1,
        std::uint64_t{1} << 32,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0} - 0x7FF,
        ~std::uint64_t{0},
    };
    const std::uint64_t counters[] = {0, 1, 64, 12345};
    for (const std::size_t length : kLengths) {
        for (const std::uint64_t threshold : thresholds) {
            for (const std::uint64_t counter : counters) {
                const std::uint64_t seed = 0xabcd0000 + length;
                std::vector<std::uint64_t> want((length + 63) / 64);
                scalar.generateThresholdWords(want.data(), length, seed,
                                              counter, threshold);
                // Tail invariant on the reference itself.
                if (length % 64 != 0)
                    EXPECT_EQ(want.back() >> (length % 64), 0u);
                for (const simd::Arm arm : simd::availableArms()) {
                    std::vector<std::uint64_t> got(want.size(),
                                                   ~std::uint64_t{0});
                    simd::kernelsFor(arm)->generateThresholdWords(
                        got.data(), length, seed, counter, threshold);
                    EXPECT_EQ(got, want)
                        << simd::armName(arm) << " length " << length
                        << " counter " << counter << " threshold "
                        << threshold;
                }
            }
        }
    }
}

TEST(SimdKernels, AccumulateColumnSumsMatchesScalar)
{
    Rng rng(104);
    for (const std::size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u,
                                33u, 100u}) {
        std::vector<int> weights(n);
        for (auto &w : weights)
            w = static_cast<int>(rng.randint(-1, 1));
        for (const int a : {-1, 1, 0, 3}) {
            std::vector<int> base(n);
            for (auto &s : base)
                s = static_cast<int>(rng.randint(-50, 50));
            std::vector<int> expected = base;
            for (std::size_t c = 0; c < n; ++c)
                expected[c] += a * weights[c];
            for (const simd::Arm arm : simd::availableArms()) {
                std::vector<int> sums = base;
                simd::kernelsFor(arm)->accumulateColumnSums(
                    sums.data(), weights.data(), a, n);
                EXPECT_EQ(sums, expected)
                    << simd::armName(arm) << " n " << n << " a " << a;
            }
        }
    }
}

TEST(SimdStreams, BernoulliBitIdenticalAcrossArms)
{
    ArmRestore restore;
    for (const std::size_t length : kLengths) {
        for (const double p : {0.0, 0.3, 0.5, 0.977, 1.0}) {
            ASSERT_TRUE(simd::setActiveArm(simd::Arm::Scalar));
            Rng ref_rng(length * 7919 + 11);
            const sc::Bitstream ref =
                sc::Bitstream::bernoulli(length, p, ref_rng);
            const std::uint64_t ref_next_draw = ref_rng.raw()();
            for (const simd::Arm arm : simd::availableArms()) {
                ASSERT_TRUE(simd::setActiveArm(arm));
                Rng rng(length * 7919 + 11);
                const sc::Bitstream got =
                    sc::Bitstream::bernoulli(length, p, rng);
                EXPECT_EQ(got.words(), ref.words())
                    << simd::armName(arm) << " length " << length
                    << " p " << p;
                // Identical entropy consumption: the next draw agrees.
                EXPECT_EQ(rng.raw()(), ref_next_draw)
                    << simd::armName(arm) << " length " << length
                    << " p " << p;
            }
        }
    }
}

TEST(SimdStreams, StreamOpsBitIdenticalAcrossArms)
{
    ArmRestore restore;
    for (const std::size_t length : kLengths) {
        Rng rng(length + 5);
        const sc::Bitstream a =
            sc::Bitstream::bernoulli(length, 0.42, rng);
        const sc::Bitstream b =
            sc::Bitstream::bernoulli(length, 0.66, rng);
        ASSERT_TRUE(simd::setActiveArm(simd::Arm::Scalar));
        const std::size_t want_pop = a.popcount();
        const std::size_t want_xnor = a.xnorPopcount(b);
        const std::size_t want_and = a.andPopcount(b);
        ASSERT_EQ(want_xnor, a.xnorWith(b).popcount());
        for (const simd::Arm arm : simd::availableArms()) {
            ASSERT_TRUE(simd::setActiveArm(arm));
            EXPECT_EQ(a.popcount(), want_pop) << simd::armName(arm);
            EXPECT_EQ(a.xnorPopcount(b), want_xnor)
                << simd::armName(arm);
            EXPECT_EQ(a.andPopcount(b), want_and)
                << simd::armName(arm);
        }
    }
}

TEST(SimdStreams, BatchTailWordMaskingPerArm)
{
    ArmRestore restore;
    // Odd lengths x odd batch sizes: every segment ends in a partial
    // word and the segments are laid side by side, so a kernel that
    // reads or writes past a tail word corrupts its neighbor.
    for (const std::size_t length : {1u, 63u, 65u, 127u, 129u}) {
        for (const std::size_t batch_size : {1u, 3u, 5u, 7u}) {
            for (const simd::Arm arm : simd::availableArms()) {
                ASSERT_TRUE(simd::setActiveArm(arm));
                std::vector<double> probs(batch_size);
                sc::BitstreamBatch batch(batch_size, length);
                for (std::size_t b = 0; b < batch_size; ++b) {
                    probs[b] = (static_cast<double>(b) + 0.5)
                        / static_cast<double>(batch_size + 1);
                    Rng rng(1000 * length + b);
                    sc::detail::bernoulliFill(batch.words(b), length,
                                              probs[b], rng);
                }
                ASSERT_EQ(batch.batch(), batch_size);
                const std::uint64_t mask = tailMaskFor(length);
                for (std::size_t b = 0; b < batch_size; ++b) {
                    // Tail invariant holds inside the packed batch.
                    const std::uint64_t last =
                        batch.words(b)[batch.wordsPerStream() - 1];
                    EXPECT_EQ(last & ~mask, 0u)
                        << simd::armName(arm) << " length " << length
                        << " sample " << b;
                    // Segment == the single-stream generation from the
                    // same seed under the same arm.
                    Rng clone(1000 * length + b);
                    const sc::Bitstream single =
                        sc::Bitstream::bernoulli(length, probs[b],
                                                 clone);
                    EXPECT_EQ(batch.stream(b).words(), single.words())
                        << simd::armName(arm) << " length " << length
                        << " sample " << b;
                    // Batch popcount == exact bit count.
                    std::size_t expected = 0;
                    for (const std::uint8_t bit : single.bits())
                        expected += bit;
                    EXPECT_EQ(batch.popcount(b), expected)
                        << simd::armName(arm) << " length " << length
                        << " sample " << b;
                }
            }
        }
    }
}

TEST(SimdStreams, AccumulationIdenticalAcrossArms)
{
    ArmRestore restore;
    // Odd crossbar count + dropped pairs exercises the or-popcount
    // dropped-carry path and the leftover unpaired stream.
    const std::size_t crossbars = 7;
    const std::size_t window = 129;
    const sc::AccumulationModule exact(crossbars, window, true);
    const sc::AccumulationModule approx(crossbars, window, false, 0.8);
    Rng rng(42);
    std::vector<sc::Bitstream> streams;
    for (std::size_t t = 0; t < crossbars; ++t)
        streams.push_back(sc::Bitstream::bernoulli(
            window, 0.1 + 0.1 * static_cast<double>(t), rng));
    ASSERT_TRUE(simd::setActiveArm(simd::Arm::Scalar));
    const std::size_t want_exact = exact.rawCount(streams);
    const std::size_t want_approx = approx.rawCount(streams);
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        EXPECT_EQ(exact.rawCount(streams), want_exact)
            << simd::armName(arm);
        EXPECT_EQ(approx.rawCount(streams), want_approx)
            << simd::armName(arm);
    }
}

TEST(SimdCrossbar, ColumnSumsIdenticalAcrossArms)
{
    ArmRestore restore;
    // 19 columns: the kernels' vector widths (4/8/16 lanes) all leave a
    // ragged remainder.
    const std::size_t cs = 19;
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(cs, atten, 2.4);
    Rng rng(77);
    for (std::size_t r = 0; r < cs; ++r)
        for (std::size_t c = 0; c < cs; ++c)
            if (rng.bernoulli(0.7))
                xbar.programCell(r, c, rng.bernoulli(0.5) ? 1 : -1);
    std::vector<std::vector<int>> batch;
    for (std::size_t b = 0; b < 3; ++b) {
        std::vector<int> acts(cs);
        for (auto &a : acts)
            a = static_cast<int>(rng.randint(-1, 1)); // 0 = padding row
        batch.push_back(std::move(acts));
    }
    ASSERT_TRUE(simd::setActiveArm(simd::Arm::Scalar));
    const std::vector<int> want = xbar.columnSums(batch[0]);
    // Per-column reference walks the LiM cells directly, so this also
    // pins the weight cache to the cell state.
    for (std::size_t c = 0; c < cs; ++c)
        ASSERT_EQ(want[c], xbar.columnSum(c, batch[0])) << c;
    const std::vector<int> want_batch = xbar.columnSumsBatch(batch);
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        EXPECT_EQ(xbar.columnSums(batch[0]), want) << simd::armName(arm);
        EXPECT_EQ(xbar.columnSumsBatch(batch), want_batch)
            << simd::armName(arm);
    }
}

TEST(SimdCrossbar, WeightCacheTracksStuckCells)
{
    ArmRestore restore;
    const std::size_t cs = 13;
    const aqfp::AttenuationModel atten;
    crossbar::CrossbarArray xbar(cs, atten, 2.4);
    Rng rng(88);
    std::vector<std::vector<int>> weights(cs, std::vector<int>(cs));
    for (auto &row : weights)
        for (auto &w : row)
            w = rng.bernoulli(0.5) ? 1 : -1;
    xbar.programWeights(weights);
    ASSERT_GT(xbar.injectStuckCellsSeeded(0.3, 89), 0u);
    std::vector<int> acts(cs);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    // The per-column path reads LimCell state, the all-columns path
    // reads the cache; agreement on every arm means the cache followed
    // the fault injection.
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        const std::vector<int> sums = xbar.columnSums(acts);
        for (std::size_t c = 0; c < cs; ++c)
            EXPECT_EQ(sums[c], xbar.columnSum(c, acts))
                << simd::armName(arm) << " column " << c;
    }
}

} // namespace
