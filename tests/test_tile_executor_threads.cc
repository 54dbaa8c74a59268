/**
 * @file
 * Tests for the threaded, batched tile-execution path: the thread pool
 * itself (including cross-pool nesting and the chunked scheduler), the
 * process-wide shared pool and its SUPERBNN_THREADS resolution point,
 * the BitstreamBatch packing, the counter-based batched crossbar
 * observe, and the executor's two exactness contracts — bit-identical
 * outputs at any thread count, and batch-of-N identical to N
 * single-sample forwards.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crossbar/crossbar_array.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "nn/binary_conv.h"
#include "nn/binary_linear.h"
#include "nn/sequential.h"
#include "sc/accumulation.h"
#include "sc/bitstream_batch.h"
#include "simd/kernels.h"
#include "simd_test_util.h"
#include "util/sharded_executor_pool.h"
#include "util/thread_pool.h"

using namespace superbnn;
using namespace superbnn::crossbar;
using superbnn::test::ArmRestore;

namespace {

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

std::vector<int>
randomActs(std::size_t n, Rng &rng)
{
    std::vector<int> acts(n);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    return acts;
}

/** A multi-tile layer (3 row tiles x 3 col tiles at cs = 8). */
MappedLayer
makeLayer(Rng &rng, std::vector<double> thresholds = {})
{
    const CrossbarMapper mapper(8, atten(), 2.4);
    MappedLayer layer = mapper.map(randomSignedMatrix(20, 24, rng));
    if (thresholds.empty())
        thresholds.assign(20, 0.0);
    CrossbarMapper::setThresholds(layer, thresholds);
    return layer;
}

} // namespace

// --- thread pool ---

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ReusableAcrossJobs)
{
    util::ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(17, [&](std::size_t) { sum.fetch_add(1); });
        EXPECT_EQ(sum.load(), 17);
    }
}

TEST(ThreadPoolTest, EmptyAndSingleElementLoops)
{
    util::ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<int> hits(100, 0);
    pool.parallelFor(100, [&](std::size_t i) { hits[i]++; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, PropagatesFirstException)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive a throwing job.
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPoolTest, NestedCallsRunInline)
{
    util::ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(4, [&](std::size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPoolTest, IndependentPoolsNestInParallel)
{
    // Regression: the inline guard used to be process-global, so a
    // parallelFor on pool B from inside pool A's body ran fully inline
    // — serializing independent executors. The guard is now scoped to
    // the owning pool; prove the inner loop is really dispatched by
    // requiring its two indices to be in flight concurrently (an
    // inline run executes them one after the other and times out).
    util::ThreadPool outer(2);
    util::ThreadPool inner(2);
    std::atomic<int> arrived{0};
    std::atomic<int> saw_both{0};
    outer.parallelFor(2, [&](std::size_t i) {
        if (i != 0)
            return;
        inner.parallelFor(2, [&](std::size_t) {
            arrived.fetch_add(1);
            const auto deadline = std::chrono::steady_clock::now()
                + std::chrono::seconds(20);
            // Every index must itself observe the other one in flight
            // before returning: under an inline (serialized) run the
            // first index can never see arrived == 2 and times out, so
            // saw_both stays below 2 and the test fails.
            while (arrived.load() < 2
                   && std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            if (arrived.load() == 2)
                saw_both.fetch_add(1);
        });
    });
    EXPECT_EQ(arrived.load(), 2);
    EXPECT_EQ(saw_both.load(), 2)
        << "inner pool ran inline from inside the outer pool's body";
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnv)
{
    setenv("SUPERBNN_THREADS", "3", 1);
    EXPECT_EQ(util::ThreadPool::defaultThreadCount(), 3u);
    // Invalid values (garbage, zero, trailing junk) fall back to the
    // hardware count with a one-line stderr notice — never 0 threads,
    // and never a silent partial parse of "4x" as 4.
    setenv("SUPERBNN_THREADS", "not-a-number", 1);
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
    setenv("SUPERBNN_THREADS", "0", 1);
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
    setenv("SUPERBNN_THREADS", "4x", 1);
    const std::size_t hw = std::thread::hardware_concurrency() == 0
        ? 1
        : std::thread::hardware_concurrency();
    EXPECT_EQ(util::ThreadPool::defaultThreadCount(), hw);
    // A valid value after an invalid one takes effect again.
    setenv("SUPERBNN_THREADS", "6", 1);
    EXPECT_EQ(util::ThreadPool::defaultThreadCount(), 6u);
    unsetenv("SUPERBNN_THREADS");
    EXPECT_GE(util::ThreadPool::defaultThreadCount(), 1u);
}

// --- process-wide executor pool (threads = 0 runs on shard 0; NUMA
// off gives shard 0 the whole SUPERBNN_THREADS budget on any host) ---

TEST(ExecutorPoolTest, SharedPoolIsProcessWideAndPinnedAtFirstUse)
{
    setenv("SUPERBNN_NUMA", "off", 1);
    setenv("SUPERBNN_THREADS", "3", 1);
    util::ShardedExecutorPool::reset();
    const auto a = util::ShardedExecutorPool::shared();
    const auto b = util::ShardedExecutorPool::shared();
    EXPECT_EQ(a.get(), b.get()); // one pool for the whole process
    EXPECT_EQ(a->shard(0)->threadCount(), 3u);

    // Resolution point: SUPERBNN_THREADS was read when the pool was
    // first created; changing it afterwards is ignored...
    setenv("SUPERBNN_THREADS", "5", 1);
    EXPECT_EQ(util::ShardedExecutorPool::shared()->shard(0)->threadCount(),
              3u);
    // ...including by executors constructed later with threads == 0.
    const TileExecutor exec(8);
    EXPECT_EQ(exec.threads(), 3u);

    // reset() drops the pool; the next shared() re-reads the
    // environment. An executor keeps the pool it resolved at
    // construction; a new one picks up the new pool.
    util::ShardedExecutorPool::reset();
    EXPECT_EQ(util::ShardedExecutorPool::shared()->shard(0)->threadCount(),
              5u);
    EXPECT_EQ(exec.threads(), 3u);
    EXPECT_EQ(TileExecutor(8).threads(), 5u);

    unsetenv("SUPERBNN_THREADS");
    unsetenv("SUPERBNN_NUMA");
    util::ShardedExecutorPool::reset();
}

TEST(ExecutorPoolTest, ExplicitThreadCountsBypassTheSharedPool)
{
    setenv("SUPERBNN_NUMA", "off", 1);
    setenv("SUPERBNN_THREADS", "3", 1);
    util::ShardedExecutorPool::reset();
    const TileExecutor exec(8, false, 0.25, 4);
    EXPECT_EQ(exec.threads(), 4u); // private pool, env ignored
    const TileExecutor sequential(8, false, 0.25, 1);
    EXPECT_EQ(sequential.threads(), 1u); // sequential, no pool at all
    unsetenv("SUPERBNN_THREADS");
    unsetenv("SUPERBNN_NUMA");
    util::ShardedExecutorPool::reset();
}

TEST(ExecutorPoolTest, SharedPoolRunsExecutorsCorrectly)
{
    // A forward through the shared pool must match the sequential
    // reference bit for bit (the thread-count invariance contract,
    // exercised specifically on the default shared-pool path).
    setenv("SUPERBNN_NUMA", "off", 1);
    setenv("SUPERBNN_THREADS", "4", 1);
    util::ShardedExecutorPool::reset();
    Rng setup(47);
    const MappedLayer layer = makeLayer(setup);
    const std::vector<int> acts = randomActs(24, setup);
    const TileExecutor sequential(16, false, 0.25, 1);
    Rng ref_rng(55);
    const auto ref = sequential.forward(layer, acts, ref_rng);
    const TileExecutor shared(16, false, 0.25, 0); // 4-thread shard 0
    ASSERT_EQ(shared.threads(), 4u);
    Rng rng(55);
    EXPECT_EQ(shared.forward(layer, acts, rng), ref);
    unsetenv("SUPERBNN_THREADS");
    unsetenv("SUPERBNN_NUMA");
    util::ShardedExecutorPool::reset();
}

// --- BitstreamBatch ---

TEST(BitstreamBatchTest, BernoulliMatchesPerSampleBitstream)
{
    const std::size_t window = 131; // multi-word with masked tail
    const std::vector<double> probs = {0.0, 0.31, 0.5, 0.77, 1.0};
    sc::BitstreamBatch batch(probs.size(), window);
    ASSERT_EQ(batch.batch(), probs.size());
    EXPECT_EQ(batch.length(), window);
    // A segment filled in place is the stream Bitstream::bernoulli
    // draws from the same generator state.
    for (std::size_t b = 0; b < probs.size(); ++b) {
        Rng rng(1000 + b);
        sc::detail::bernoulliFill(batch.words(b), window, probs[b], rng);
    }

    for (std::size_t b = 0; b < probs.size(); ++b) {
        Rng solo(1000 + b);
        const sc::Bitstream ref =
            sc::Bitstream::bernoulli(window, probs[b], solo);
        const sc::Bitstream got = batch.stream(b);
        ASSERT_EQ(got.length(), ref.length());
        EXPECT_EQ(got.words(), ref.words()) << "sample " << b;
        EXPECT_EQ(batch.popcount(b), ref.popcount());
        EXPECT_DOUBLE_EQ(batch.decode(b, sc::Encoding::Bipolar),
                         ref.decode(sc::Encoding::Bipolar));
    }
}

TEST(BitstreamBatchTest, AssignRoundTripsAndChecksLength)
{
    Rng rng(5);
    sc::BitstreamBatch batch(3, 70);
    const sc::Bitstream s = sc::Bitstream::bernoulli(70, 0.4, rng);
    batch.assign(1, s);
    EXPECT_EQ(batch.stream(1).words(), s.words());
    EXPECT_EQ(batch.popcount(0), 0u); // untouched samples stay zero
    const sc::Bitstream wrong = sc::Bitstream::bernoulli(64, 0.4, rng);
    EXPECT_THROW(batch.assign(0, wrong), std::invalid_argument);
}

// --- batched crossbar observe ---

TEST(CrossbarBatchTest, ColumnSumsBatchMatchesPerSample)
{
    Rng rng(21);
    CrossbarArray xbar(6, atten(), 2.4);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            xbar.programCell(r, c, rng.bernoulli(0.5) ? 1 : -1);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 4; ++b)
        batch.push_back(randomActs(6, rng));
    const std::vector<int> flat = xbar.columnSumsBatch(batch);
    ASSERT_EQ(flat.size(), 4u * 6u);
    for (std::size_t b = 0; b < 4; ++b) {
        const std::vector<int> one = xbar.columnSums(batch[b]);
        for (std::size_t c = 0; c < 6; ++c)
            EXPECT_EQ(flat[b * 6 + c], one[c]) << b << "," << c;
    }
}

TEST(CrossbarBatchTest, ObserveBatchSeededUsesColumnMajorCounterLayout)
{
    Rng rng(23);
    CrossbarArray xbar(4, atten(), 2.4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            xbar.programCell(r, c, rng.bernoulli(0.5) ? 1 : -1);
    const std::size_t window = 67; // multi-word, masked tail
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 3; ++b)
        batch.push_back(randomActs(4, rng));
    const std::vector<std::uint64_t> seeds = {11, 22, 33};

    // The seeded observe contract: sample b's column c is the
    // counter-stream fill of seeds[b] at raw-draw base c * window —
    // every column at a fixed offset of one counter space, independent
    // of the other columns' probabilities.
    const auto seeded = xbar.observeBatchSeeded(batch, window, seeds);
    ASSERT_EQ(seeded.size(), 4u);
    for (std::size_t b = 0; b < batch.size(); ++b) {
        const auto probs = xbar.columnProbabilities(batch[b]);
        for (std::size_t c = 0; c < 4; ++c) {
            std::vector<std::uint64_t> want(
                sc::detail::wordsForLength(window));
            sc::detail::CounterStream stream{seeds[b], c * window};
            sc::detail::bernoulliFill(want.data(), window, probs[c],
                                      stream);
            EXPECT_EQ(seeded[c].stream(b).words(), want)
                << "column " << c << " sample " << b;
            EXPECT_EQ(stream.counter, (c + 1) * window);
        }
    }

    // Pure function of (state, seeds): a second observation is
    // bit-identical.
    const auto again = xbar.observeBatchSeeded(batch, window, seeds);
    for (std::size_t c = 0; c < 4; ++c)
        for (std::size_t b = 0; b < batch.size(); ++b)
            EXPECT_EQ(again[c].stream(b).words(),
                      seeded[c].stream(b).words())
                << "column " << c << " sample " << b;
}

// --- view-based accumulation ---

TEST(AccumulationViewTest, ViewOverloadsMatchBitstreamOverloads)
{
    Rng rng(31);
    const std::size_t tiles = 5, window = 77;
    std::vector<sc::Bitstream> streams;
    std::vector<sc::StreamView> views;
    for (std::size_t t = 0; t < tiles; ++t)
        streams.push_back(sc::Bitstream::bernoulli(
            window, 0.2 + 0.15 * static_cast<double>(t), rng));
    for (const auto &s : streams)
        views.push_back(sc::viewOf(s));
    for (const bool exact : {true, false}) {
        const sc::AccumulationModule mod(tiles, window, exact, 0.5);
        EXPECT_EQ(mod.rawCount(views), mod.rawCount(streams));
        EXPECT_EQ(mod.accumulate(views), mod.accumulate(streams));
        EXPECT_DOUBLE_EQ(mod.decodedSum(views), mod.decodedSum(streams));
    }
}

TEST(AccumulationViewTest, ContiguousCountMatchesViewsOnEveryArm)
{
    ArmRestore restore;
    Rng rng(37);
    for (const std::size_t window : {1u, 7u, 64u, 65u, 130u}) {
        for (const std::size_t tiles : {1u, 2u, 5u, 8u}) {
            SCOPED_TRACE("L " + std::to_string(window) + " T "
                         + std::to_string(tiles));
            // T zero-tailed streams back to back, the executor's layout
            // of one (sample, column) across its row tiles.
            const std::size_t words = sc::detail::wordsForLength(window);
            std::vector<sc::Bitstream> streams;
            std::vector<std::uint64_t> packed;
            for (std::size_t t = 0; t < tiles; ++t) {
                streams.push_back(
                    sc::Bitstream::bernoulli(window, rng.uniform(), rng));
                packed.insert(packed.end(), streams[t].words().begin(),
                              streams[t].words().end());
            }
            std::vector<sc::StreamView> views;
            for (std::size_t t = 0; t < tiles; ++t)
                views.push_back({packed.data() + t * words, window});
            for (const bool exact : {true, false}) {
                for (const double drop : {0.0, 0.5, 1.0}) {
                    const sc::AccumulationModule mod(tiles, window, exact,
                                                     drop);
                    // Independent reference: the counters' per-cycle
                    // count summed over the window.
                    const sc::ParallelCounter exactCounter(tiles);
                    const sc::ApproxParallelCounter approxCounter(tiles,
                                                                  drop);
                    std::size_t perCycle = 0;
                    std::vector<std::uint8_t> bits(tiles);
                    for (std::size_t l = 0; l < window; ++l) {
                        for (std::size_t t = 0; t < tiles; ++t)
                            bits[t] = streams[t].bit(l);
                        perCycle += exact ? exactCounter.count(bits)
                                          : approxCounter.count(bits);
                    }
                    for (const simd::Arm arm : simd::availableArms()) {
                        ASSERT_TRUE(simd::setActiveArm(arm));
                        const std::size_t count = mod.rawCount(packed.data());
                        EXPECT_EQ(count, perCycle)
                            << simd::armName(arm) << " exact " << exact
                            << " drop " << drop;
                        EXPECT_EQ(mod.rawCount(views), perCycle);
                        EXPECT_EQ(mod.decideFromCount(count),
                                  mod.accumulate(views));
                        EXPECT_EQ(mod.decodeFromCount(count),
                                  mod.decodedSum(views));
                    }
                }
            }
        }
    }
}

// --- threaded executor exactness ---

TEST(ThreadedExecutorTest, BitExactAcrossThreadCounts)
{
    Rng setup(41);
    const MappedLayer layer = makeLayer(setup);
    const std::vector<int> acts = randomActs(24, setup);

    const TileExecutor sequential(16, false, 0.5, 1);
    Rng rng_seq(123);
    const std::vector<int> ref = sequential.forward(layer, acts, rng_seq);
    Rng dec_seq(321);
    const std::vector<double> ref_dec =
        sequential.forwardDecoded(layer, acts, dec_seq);

    for (const std::size_t threads : {2u, 8u}) {
        const TileExecutor exec(16, false, 0.5, threads);
        EXPECT_EQ(exec.threads(), threads);
        Rng rng(123);
        EXPECT_EQ(exec.forward(layer, acts, rng), ref)
            << threads << " threads";
        Rng dec(321);
        EXPECT_EQ(exec.forwardDecoded(layer, acts, dec), ref_dec)
            << threads << " threads";
    }
}

TEST(ThreadedExecutorTest, BatchOfNEqualsNSingleForwards)
{
    Rng setup(42);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 5; ++b)
        batch.push_back(randomActs(24, setup));

    const TileExecutor exec(8, true, 0.0, 4);
    Rng batched_rng(99);
    const auto batched = exec.forward(layer, batch, batched_rng);
    ASSERT_EQ(batched.size(), batch.size());

    Rng single_rng(99);
    for (std::size_t b = 0; b < batch.size(); ++b)
        EXPECT_EQ(exec.forward(layer, batch[b], single_rng), batched[b])
            << "sample " << b;
}

TEST(ThreadedExecutorTest, DecodedBatchEqualsSingles)
{
    Rng setup(43);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 4; ++b)
        batch.push_back(randomActs(24, setup));

    const TileExecutor exec(16, false, 0.25, 2);
    Rng batched_rng(77);
    const auto batched = exec.forwardDecoded(layer, batch, batched_rng);

    Rng single_rng(77);
    for (std::size_t b = 0; b < batch.size(); ++b) {
        const auto one =
            exec.forwardDecoded(layer, batch[b], single_rng);
        ASSERT_EQ(one.size(), batched[b].size());
        for (std::size_t o = 0; o < one.size(); ++o)
            EXPECT_DOUBLE_EQ(batched[b][o], one[o])
                << "sample " << b << " output " << o;
    }
}

TEST(ThreadedExecutorTest, BatchResultIndependentOfThreadCount)
{
    Rng setup(44);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 6; ++b)
        batch.push_back(randomActs(24, setup));

    const TileExecutor sequential(16, false, 0.5, 1);
    Rng ref_rng(7);
    const auto ref = sequential.forward(layer, batch, ref_rng);
    for (const std::size_t threads : {2u, 8u}) {
        const TileExecutor exec(16, false, 0.5, threads);
        Rng rng(7);
        EXPECT_EQ(exec.forward(layer, batch, rng), ref)
            << threads << " threads";
    }
}

TEST(ThreadedExecutorTest, WrongSizeSampleThrowsInEveryBuild)
{
    // A checked error in every build, not an assert: unchecked, the
    // short sample's activation vector is read past its end.
    Rng setup(49);
    const MappedLayer layer = makeLayer(setup);
    const TileExecutor exec(8, false, 0.25, 1);
    const std::vector<std::vector<int>> batch = {randomActs(24, setup),
                                                 randomActs(23, setup)};
    EXPECT_THROW(exec.forwardSeeded(layer, batch, {1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(exec.forwardDecodedSeeded(layer, batch, {1, 2}),
                 std::invalid_argument);
}

TEST(ThreadedExecutorTest, ActivationOutsideTernaryThrowsInEveryBuild)
{
    // Checked in every build, not an assert: unchecked, an activation
    // of 2 doubles its row's column current in Release.
    Rng setup(50);
    const MappedLayer layer = makeLayer(setup);
    const TileExecutor exec(8, false, 0.25, 1);
    std::vector<std::vector<int>> batch = {randomActs(24, setup),
                                           randomActs(24, setup)};
    batch[1][5] = 2;
    for (const bool decoded : {false, true}) {
        try {
            if (decoded)
                exec.forwardDecodedSeeded(layer, batch, {1, 2});
            else
                exec.forwardSeeded(layer, batch, {1, 2});
            ADD_FAILURE() << "activation 2 was accepted";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("sample 1"), std::string::npos) << what;
            EXPECT_NE(what.find("activation 5"), std::string::npos)
                << what;
            EXPECT_NE(what.find("is 2"), std::string::npos) << what;
        }
    }
    batch[1][5] = -3;
    Rng rng(3);
    EXPECT_THROW(exec.forward(layer, batch, rng), std::invalid_argument);
    batch[1][5] = 0; // an undriven padding row is valid
    EXPECT_NO_THROW(exec.forwardSeeded(layer, batch, {1, 2}));
}

TEST(ThreadedExecutorTest, ConstructorRejectsZeroWindowAndBadDropFraction)
{
    // A zero window used to reach the decoded readout's divide by L
    // (NaN scores); a drop fraction outside [0, 1] the APC's size_t
    // cast of floor(pairs * f).
    EXPECT_THROW(TileExecutor(0), std::invalid_argument);
    EXPECT_THROW(TileExecutor(0, true, 0.25, 1), std::invalid_argument);
    for (const double bad :
         {-0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(TileExecutor(8, false, bad, 1), std::invalid_argument)
            << bad;
        EXPECT_THROW(TileExecutor(8, true, bad, 1), std::invalid_argument)
            << bad;
    }
    EXPECT_NO_THROW(TileExecutor(8, false, 0.0, 1));
    EXPECT_NO_THROW(TileExecutor(8, false, 1.0, 1));
}

// --- fused executor against the two-phase reference ---

namespace {

std::uint64_t
referenceMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The executor's per-(sample, tile) stream seed. */
std::uint64_t
referenceTileSeed(std::uint64_t root, std::size_t rt, std::size_t ct)
{
    return referenceMix(
        root
        ^ referenceMix((static_cast<std::uint64_t>(rt) << 32)
                       ^ (static_cast<std::uint64_t>(ct) + 1)));
}

struct ReferenceForward
{
    std::vector<std::vector<int>> bits;
    std::vector<std::vector<double>> decoded;
    aqfp::LedgerCounts counts;
};

/**
 * One layer forward the two-phase way, from public calls only: every
 * (rowTile, colTile) observes all Cs columns of every sample with
 * observeBatchSeeded (its tile counts, summed into `counts`, read back
 * from the counter streams: the draws actually consumed), then every
 * (sample, column) is merged across the row tiles.
 */
ReferenceForward
referenceForward(const MappedLayer &layer,
                 const std::vector<std::vector<int>> &batch,
                 const std::vector<std::uint64_t> &roots,
                 std::size_t window, bool exact, double drop)
{
    const std::size_t samples = batch.size();
    ReferenceForward ref;
    ref.bits.assign(samples, std::vector<int>(layer.fanOut));
    ref.decoded.assign(samples, std::vector<double>(layer.fanOut));
    ref.counts.samples = samples;
    std::vector<std::vector<sc::BitstreamBatch>> observed;
    for (std::size_t rt = 0; rt < layer.rowTiles; ++rt) {
        const std::size_t r0 = rt * layer.cs;
        const std::size_t rows = std::min(layer.cs, layer.fanIn - r0);
        std::vector<std::vector<int>> slices;
        for (const auto &sample : batch)
            slices.emplace_back(sample.begin() + r0,
                                sample.begin() + r0 + rows);
        for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
            std::vector<std::uint64_t> seeds;
            for (const std::uint64_t root : roots)
                seeds.push_back(referenceTileSeed(root, rt, ct));
            aqfp::TileCounts tile;
            observed.push_back(layer.tile(rt, ct).observeBatchSeeded(
                slices, window, seeds, &tile));
            ref.counts.tileObservations += tile.observations;
            ref.counts.crossbarCycles += tile.cycles;
            ref.counts.bernoulliDraws += tile.bernoulliDraws;
        }
    }
    const sc::AccumulationModule accum(layer.rowTiles, window, exact,
                                       drop);
    std::vector<sc::StreamView> column(layer.rowTiles);
    for (std::size_t b = 0; b < samples; ++b)
        for (std::size_t o = 0; o < layer.fanOut; ++o) {
            const std::size_t ct = o / layer.cs;
            for (std::size_t rt = 0; rt < layer.rowTiles; ++rt)
                column[rt] = observed[rt * layer.colTiles + ct]
                                     [o % layer.cs]
                                         .view(b);
            ref.bits[b][o] = accum.accumulate(column);
            ref.decoded[b][o] = accum.decodedSum(column);
        }
    const std::uint64_t merges =
        static_cast<std::uint64_t>(samples) * layer.fanOut;
    ref.counts.apcAccumulations = merges;
    ref.counts.apcInputBits = merges * accum.mergeInputBits();
    ref.counts.columnGroupSteps =
        static_cast<std::uint64_t>(samples) * layer.colTiles * window;
    ref.counts.bufferReadBits =
        static_cast<std::uint64_t>(samples) * layer.fanIn;
    ref.counts.bufferWriteBits = merges;
    return ref;
}

} // namespace

TEST(FusedExecutorTest, MatchesTwoPhaseReferenceAcrossGeometries)
{
    // Seeded geometries: fan-in below, at and across tile edges; a
    // partial last column group; every window length class (one bit,
    // sub-word, exactly one word, one bit past a word); batch sizes
    // that straddle chunk edges at 1, 3 and 4 threads.
    const std::size_t windows[] = {1, 7, 64, 65};
    const std::size_t batches[] = {1, 2, 31, 257};
    std::size_t saturatedLow = 0, saturatedHigh = 0;
    std::size_t geometry = 0;
    for (const std::size_t cs : {4u, 16u, 72u}) {
        for (const std::size_t fanIn :
             {std::size_t{1}, cs - 1, cs + 1, 3 * cs + 5}) {
            const std::size_t window = windows[geometry % 4];
            const std::size_t samples =
                batches[(geometry + geometry / 4) % 4];
            const bool exact = geometry % 2 == 1;
            const double drop = exact ? 0.25 : 0.5;
            const std::size_t fanOut = cs + cs / 2 + 1;
            Rng rng(1000 + geometry);
            ++geometry;

            const CrossbarMapper mapper(cs, atten(), 2.4);
            MappedLayer layer =
                mapper.map(randomSignedMatrix(fanOut, fanIn, rng));
            std::vector<double> vth(fanOut);
            for (std::size_t o = 0; o < fanOut; ++o)
                vth[o] = o % 5 == 0   ? 1e6   // p saturates to exactly 0
                    : o % 5 == 1      ? -1e6  // ... and to exactly 1
                                      : rng.normal() * 2.0;
            CrossbarMapper::setThresholds(layer, vth);
            for (std::size_t t = 0; t < layer.tileCount(); ++t) {
                layer.tiles[t].injectStuckCellsSeeded(0.1, 77 + t);
                layer.tiles[t].applyGrayZoneVariation(0.3, rng);
            }

            std::vector<std::vector<int>> batch(samples);
            std::vector<std::uint64_t> roots(samples);
            for (std::size_t b = 0; b < samples; ++b) {
                for (std::size_t i = 0; i < fanIn; ++i) {
                    const double u = rng.uniform();
                    batch[b].push_back(u < 0.2 ? 0 : u < 0.6 ? -1 : 1);
                }
                roots[b] = rng.raw()();
                const auto probs =
                    layer.tile(0, 0).columnProbabilities(batch[b]);
                for (const double p : probs) {
                    saturatedLow += p == 0.0;
                    saturatedHigh += p == 1.0;
                }
            }

            const ReferenceForward ref =
                referenceForward(layer, batch, roots, window, exact, drop);
            for (const std::size_t threads : {1u, 3u, 4u}) {
                SCOPED_TRACE("Cs " + std::to_string(cs) + " fanIn "
                             + std::to_string(fanIn) + " L "
                             + std::to_string(window) + " batch "
                             + std::to_string(samples) + " exact "
                             + std::to_string(exact) + " threads "
                             + std::to_string(threads));
                const TileExecutor exec(window, exact, drop, threads);
                aqfp::HardwareLedger ledger;
                EXPECT_EQ(exec.forwardSeeded(layer, batch, roots, &ledger),
                          ref.bits);
                EXPECT_EQ(ledger.totals(), ref.counts);
                // Decoded values are compared exactly: both sides
                // decode the same integer count.
                EXPECT_EQ(exec.forwardDecodedSeeded(layer, batch, roots),
                          ref.decoded);
            }
        }
    }
    EXPECT_GT(saturatedLow, 0u);
    EXPECT_GT(saturatedHigh, 0u);
}

TEST(FusedExecutorTest, ThresholdMemoFollowsRowTileNeurons)
{
    // One column group of seven row tiles whose neurons run A B A A C B B:
    // B has varied gray-zone widths (equal draws, so equal neurons on
    // every B tile), C shifted thresholds. The executor's threshold memo
    // must be reset at every change of neurons and may carry over
    // between distinct tiles with equal ones (A A, B B). 300 samples
    // span several sample blocks per task, so the memo also crosses
    // from the last row tile (B) of one block to the first (A) of the
    // next.
    const std::size_t cs = 8, rowTiles = 7, fanOut = 8, samples = 300;
    Rng rng(2024);
    const CrossbarMapper mapper(cs, atten(), 2.4);
    MappedLayer layer =
        mapper.map(randomSignedMatrix(fanOut, rowTiles * cs, rng));
    std::vector<double> vth(fanOut);
    for (auto &v : vth)
        v = rng.normal() * 2.0;
    CrossbarMapper::setThresholds(layer, vth);
    for (const std::size_t rt : {1u, 5u, 6u}) {
        Rng variation(9);
        layer.tile(rt, 0).applyGrayZoneVariation(0.5, variation);
    }
    CrossbarArray &shifted = layer.tile(4, 0);
    for (std::size_t c = 0; c < cs; ++c)
        shifted.setColumnThreshold(c, shifted.neuron(c).ithUa() + 0.5);
    for (std::size_t c = 0; c < cs; ++c) {
        EXPECT_TRUE(layer.tile(2, 0).neuron(c) == layer.tile(3, 0).neuron(c));
        EXPECT_TRUE(layer.tile(5, 0).neuron(c) == layer.tile(6, 0).neuron(c));
        EXPECT_FALSE(layer.tile(0, 0).neuron(c) == layer.tile(1, 0).neuron(c));
        EXPECT_FALSE(layer.tile(3, 0).neuron(c) == layer.tile(4, 0).neuron(c));
    }

    std::vector<std::vector<int>> batch(samples);
    std::vector<std::uint64_t> roots(samples);
    for (std::size_t b = 0; b < samples; ++b) {
        for (std::size_t i = 0; i < layer.fanIn; ++i) {
            const double u = rng.uniform();
            batch[b].push_back(u < 0.2 ? 0 : u < 0.6 ? -1 : 1);
        }
        roots[b] = rng.raw()();
    }
    for (const std::size_t window : {7u, 65u}) {
        for (const bool exact : {true, false}) {
            const ReferenceForward ref =
                referenceForward(layer, batch, roots, window, exact, 0.5);
            for (const std::size_t threads : {1u, 3u, 4u}) {
                SCOPED_TRACE("L " + std::to_string(window) + " exact "
                             + std::to_string(exact) + " threads "
                             + std::to_string(threads));
                const TileExecutor exec(window, exact, 0.5, threads);
                EXPECT_EQ(exec.forwardSeeded(layer, batch, roots),
                          ref.bits);
                EXPECT_EQ(exec.forwardDecodedSeeded(layer, batch, roots),
                          ref.decoded);
            }
        }
    }
}

TEST(ThreadedExecutorTest, EmptyBatchIsANoOp)
{
    Rng setup(45);
    const MappedLayer layer = makeLayer(setup);
    const TileExecutor exec(4);
    Rng rng(1);
    const auto before = rng.raw()();
    Rng rng2(1);
    const std::vector<std::vector<int>> empty_batch;
    EXPECT_TRUE(exec.forward(layer, empty_batch, rng2).empty());
    // An empty batch must not consume any randomness.
    EXPECT_EQ(rng2.raw()(), before);
}

// --- batched layer forwards ---

namespace {

/** The (1, ...) samples stacked along dimension 0. */
Tensor
stacked(const std::vector<Tensor> &samples)
{
    Shape shape = samples.front().shape();
    shape[0] = samples.size();
    Tensor out(shape);
    const std::size_t stride = samples.front().size();
    for (std::size_t b = 0; b < samples.size(); ++b)
        std::copy(samples[b].data(), samples[b].data() + stride,
                  out.data() + b * stride);
    return out;
}

/** Row @p b of a forwarded batch equals forward of sample @p b alone. */
void
expectBatchMatchesPerSample(nn::Module &layer,
                            const std::vector<Tensor> &samples)
{
    const Tensor batched = layer.forward(stacked(samples), false);
    ASSERT_EQ(batched.dim(0), samples.size());
    const std::size_t stride = batched.size() / samples.size();
    for (std::size_t b = 0; b < samples.size(); ++b) {
        const Tensor one = layer.forward(samples[b], false);
        ASSERT_EQ(one.size(), stride);
        for (std::size_t i = 0; i < stride; ++i)
            EXPECT_NEAR(batched[b * stride + i], one[i], 1e-6f)
                << "sample " << b << " element " << i;
    }
}

} // namespace

TEST(NnForwardBatchTest, BinaryLinearBatchMatchesPerSample)
{
    Rng rng(52);
    nn::BinaryLinear layer(6, 3, rng);
    std::vector<Tensor> samples;
    for (int b = 0; b < 4; ++b)
        samples.push_back(Tensor::randn({1, 6}, rng));
    expectBatchMatchesPerSample(layer, samples);
}

TEST(NnForwardBatchTest, BinaryConvBatchMatchesPerSample)
{
    Rng rng(53);
    nn::BinaryConv2d conv(2, 3, 3, 1, 1, rng);
    std::vector<Tensor> samples;
    for (int b = 0; b < 3; ++b)
        samples.push_back(Tensor::randn({1, 2, 5, 5}, rng));
    expectBatchMatchesPerSample(conv, samples);
}

TEST(NnForwardBatchTest, SequentialBatchMatchesPerSample)
{
    Rng rng(54);
    nn::Sequential net;
    net.emplace<nn::BinaryLinear>(8, 5, rng);
    net.emplace<nn::BinaryLinear>(5, 2, rng);
    std::vector<Tensor> samples;
    for (int b = 0; b < 4; ++b)
        samples.push_back(Tensor::randn({1, 8}, rng));
    expectBatchMatchesPerSample(net, samples);
}

TEST(ThreadedExecutorTest, LedgerTotalsSurviveThreadReconfiguration)
{
    // The hardware ledger must report identical totals through every
    // concurrency path an executor can be built with — sequential, a
    // private pool, and the process-wide shared pool.
    Rng setup(48);
    const MappedLayer layer = makeLayer(setup);
    std::vector<std::vector<int>> batch;
    for (int b = 0; b < 5; ++b)
        batch.push_back(randomActs(24, setup));

    aqfp::LedgerCounts ref;
    {
        const TileExecutor sequential(16, false, 0.25, 1);
        aqfp::HardwareLedger ledger;
        Rng rng(12);
        sequential.forward(layer, batch, rng, &ledger);
        ref = ledger.totals();
        EXPECT_EQ(ref.samples, 5u);
    }
    // A private pool, then shard 0 of the shared pool.
    for (const std::size_t threads : {3u, 0u}) {
        const TileExecutor exec(16, false, 0.25, threads);
        aqfp::HardwareLedger ledger;
        Rng rng(12);
        exec.forward(layer, batch, rng, &ledger);
        EXPECT_EQ(ledger.totals(), ref) << threads << " threads";
    }
}

TEST(ThreadedExecutorTest, StochasticQualityUnchangedByThreading)
{
    // The threaded path must still converge to the latent sign — a
    // sanity check that per-tile seeding did not break the statistics.
    Rng setup(46);
    const MappedLayer layer = makeLayer(setup);
    const std::vector<int> acts = randomActs(24, setup);
    const TileExecutor exec(32, true, 0.0, 4);
    const auto sums = exec.latentSums(layer, acts);

    Rng rng(8);
    std::vector<int> agree(20, 0);
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        const auto outs = exec.forward(layer, acts, rng);
        for (std::size_t o = 0; o < 20; ++o)
            if ((sums[o] >= 0) == (outs[o] == 1))
                ++agree[o];
    }
    for (std::size_t o = 0; o < 20; ++o)
        if (std::abs(sums[o]) >= 4.0)
            EXPECT_GT(agree[o], trials * 3 / 4)
                << "output " << o << " latent " << sums[o];
}
