/**
 * @file
 * Topology-aware sharded executor tests: cpulist parsing, topology
 * detection sanity, explicit shard/thread splits, the striped
 * parallelForSharded driver and the parallelForThreads fan-out policy
 * (full coverage, exception rethrow, per-task ShardBinding), the
 * SUPERBNN_NUMA / SUPERBNN_PIN /
 * SUPERBNN_THREADS resolution point with warn-once fallbacks, and the
 * determinism contract the whole layer rests on: evaluator scores,
 * service responses, and the yield surface are bit-identical across
 * every NUMA x PIN x thread-count setting.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/hardware_eval.h"
#include "core/scenario_sweep.h"
#include "crossbar/tile_executor.h"
#include "serve/inference_service.h"
#include "util/cpu_topology.h"
#include "util/env.h"
#include "util/sharded_executor_pool.h"
#include "yield_surface_util.h"

using namespace superbnn;
using namespace superbnn::core;
using namespace superbnn::util;

namespace {

/** Deterministic float in [-1, 1) from an index hash. */
float
hashedFloat(std::size_t i)
{
    const std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL;
    return static_cast<float>(h % 2048) / 1024.0f - 1.0f;
}

/** A (1, dim) sample whose values are a pure function of @p tag. */
Tensor
flatSample(std::size_t dim, std::size_t tag)
{
    Tensor t(Shape{1, dim});
    for (std::size_t i = 0; i < dim; ++i)
        t[i] = hashedFloat(tag * 7919 + i);
    return t;
}

/** The tiny 32-24-16-4 MLP shared with the serve suite. */
RandomizedMlp
makeTinyMlp()
{
    Rng rng(1234);
    return RandomizedMlp(32, {24, 16}, 4, AqfpBehavior{8, 2.4, 0.0},
                         aqfp::AttenuationModel(), rng);
}

/** Shared-pool (threads = 0) evaluator over the tiny MLP. */
std::unique_ptr<core::HardwareEvaluator>
makeSharedPoolEvaluator()
{
    auto eval = std::make_unique<core::HardwareEvaluator>(
        aqfp::AttenuationModel(),
        core::HardwareConfig{8, 8, 2.4, false, 0.25, 0, 8});
    eval->mapMlp(makeTinyMlp());
    return eval;
}

/** A deterministic request plan over the MLP input space. */
struct Plan
{
    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
};

Plan
makePlan(std::size_t n)
{
    Plan plan;
    for (std::size_t i = 0; i < n; ++i) {
        plan.samples.push_back(flatSample(32, i));
        plan.seeds.push_back(0xABCDULL + i * 17);
    }
    return plan;
}

/**
 * Environment fixture for the knob tests: saves SUPERBNN_NUMA /
 * SUPERBNN_PIN / SUPERBNN_THREADS, clears them, and resets the shared
 * pool so each test starts (and the suite ends) at the defaults.
 */
class ShardedPoolEnvTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        save("SUPERBNN_NUMA");
        save("SUPERBNN_PIN");
        save("SUPERBNN_THREADS");
        ShardedExecutorPool::reset();
    }

    void TearDown() override
    {
        for (const auto &kv : saved_) {
            if (kv.second.first)
                ::setenv(kv.first.c_str(), kv.second.second.c_str(), 1);
            else
                ::unsetenv(kv.first.c_str());
        }
        ShardedExecutorPool::reset();
    }

    /** setenv (value != nullptr) or unsetenv, then drop the pool. */
    static void knobs(const char *numa, const char *pin,
                      const char *threads)
    {
        set("SUPERBNN_NUMA", numa);
        set("SUPERBNN_PIN", pin);
        set("SUPERBNN_THREADS", threads);
        ShardedExecutorPool::reset();
    }

  private:
    static void set(const char *name, const char *value)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    void save(const char *name)
    {
        const char *v = std::getenv(name);
        saved_[name] = {v != nullptr, v ? v : ""};
        ::unsetenv(name);
    }

    std::map<std::string, std::pair<bool, std::string>> saved_;
};

} // namespace

// ---------------------------------------------------------------------
// cpulist parsing and topology detection

TEST(CpuTopologyTest, ParseCpuListHandlesSinglesRangesAndNoise)
{
    EXPECT_EQ(parseCpuList("0"), (std::vector<int>{0}));
    EXPECT_EQ(parseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(parseCpuList("0,2,4"), (std::vector<int>{0, 2, 4}));
    EXPECT_EQ(parseCpuList("0-1,8-9"), (std::vector<int>{0, 1, 8, 9}));
    // The sysfs file ends in a newline; whitespace must not matter.
    EXPECT_EQ(parseCpuList(" 0-2 \n"), (std::vector<int>{0, 1, 2}));
    // Duplicates and overlapping ranges collapse, output is sorted.
    EXPECT_EQ(parseCpuList("3,1,1-2"), (std::vector<int>{1, 2, 3}));
    // Malformed tokens are skipped, valid neighbours survive.
    EXPECT_EQ(parseCpuList("x,1,5-3,2"), (std::vector<int>{1, 2}));
    EXPECT_TRUE(parseCpuList("").empty());
    EXPECT_TRUE(parseCpuList(" \n").empty());
}

TEST(CpuTopologyTest, DetectAlwaysYieldsARunnableNode)
{
    // On any host — sysfs or not, Linux or not — detection must land
    // on at least one node with at least one runnable CPU, because
    // the sharded pool sizes itself from this.
    const CpuTopology topo = CpuTopology::detect();
    ASSERT_GE(topo.nodes.size(), 1u);
    EXPECT_GE(topo.totalCpus(), 1u);
    for (const CpuTopology::Node &node : topo.nodes) {
        EXPECT_GE(node.id, 0);
        EXPECT_FALSE(node.cpus.empty());
    }
}

// ---------------------------------------------------------------------
// explicit construction and the striped driver

TEST(ShardedExecutorPoolTest, ExplicitSplitSpreadsThreadsEvenly)
{
    const CpuTopology topo = CpuTopology::detect();
    const ShardedExecutorPool pool(3, 8, false, topo);
    EXPECT_EQ(pool.shardCount(), 3u);
    EXPECT_EQ(pool.threadCount(), 8u);
    // 8 over 3 shards: 3 + 3 + 2, never a zero-thread shard.
    EXPECT_EQ(pool.shard(0)->threadCount(), 3u);
    EXPECT_EQ(pool.shard(1)->threadCount(), 3u);
    EXPECT_EQ(pool.shard(2)->threadCount(), 2u);
    // shard() wraps modulo shardCount().
    EXPECT_EQ(pool.shard(3).get(), pool.shard(0).get());

    // More shards than threads: every shard still gets one worker.
    const ShardedExecutorPool wide(4, 2, false, topo);
    EXPECT_EQ(wide.shardCount(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(wide.shard(i)->threadCount(), 1u);

    // Degenerate requests clamp instead of failing.
    const ShardedExecutorPool one(0, 1, false, topo);
    EXPECT_EQ(one.shardCount(), 1u);
}

namespace {

/// The loop drivers under test: kStriped = the explicit pool's
/// parallelForSharded; otherwise parallelForThreads at that count.
constexpr std::size_t kStriped = ~std::size_t{0};
constexpr std::size_t kDrivers[] = {kStriped, 0, 1, 3};

void
runLoop(ShardedExecutorPool &pool, std::size_t threads, std::size_t n,
        const std::function<void(std::size_t)> &body)
{
    if (threads == kStriped)
        pool.parallelForSharded(n, body);
    else
        parallelForThreads(threads, n, body);
}

} // namespace

TEST(ShardedExecutorPoolTest, ParallelForShardedRunsEveryIndexOnce)
{
    ShardedExecutorPool pool(3, 6, false, CpuTopology::detect());
    for (const std::size_t threads : kDrivers) {
        for (const std::size_t n : {0UL, 1UL, 2UL, 3UL, 101UL}) {
            std::vector<std::atomic<int>> hits(n == 0 ? 1 : n);
            for (auto &h : hits)
                h.store(0);
            runLoop(pool, threads, n,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << "threads " << threads
                                             << " index " << i << " of " << n;
        }
    }
}

TEST(ShardedExecutorPoolTest, ParallelForShardedRethrowsAndCompletes)
{
    ShardedExecutorPool pool(2, 4, false, CpuTopology::detect());
    for (const std::size_t threads : kDrivers) {
        std::vector<std::atomic<int>> hits(64);
        for (auto &h : hits)
            h.store(0);
        EXPECT_THROW(runLoop(pool, threads, 64,
                             [&](std::size_t i) {
                                 hits[i].fetch_add(1);
                                 if (i == 17)
                                     throw std::runtime_error("boom");
                             }),
                     std::runtime_error);
        // Same contract as ThreadPool::parallelFor: the barrier holds
        // and every index still ran exactly once.
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "threads " << threads << " index " << i;
    }
}

TEST(ShardedExecutorPoolTest, TasksSeeTheirShardBinding)
{
    EXPECT_EQ(ShardBinding::currentPool(), nullptr);

    ShardedExecutorPool pool(3, 3, false, CpuTopology::detect());
    const std::size_t k = pool.shardCount();
    std::vector<std::atomic<int>> bad(1);
    bad[0].store(0);
    pool.parallelForSharded(30, [&](std::size_t i) {
        // Index i is striped to shard i mod k, and the binding routes
        // nested shared-pool work to that shard's own pool.
        if (ShardBinding::currentPool().get() != pool.shard(i % k).get())
            bad[0].fetch_add(1);
    });
    EXPECT_EQ(bad[0].load(), 0);
    EXPECT_EQ(ShardBinding::currentPool(), nullptr);
}

TEST(ShardedExecutorPoolTest, SingleIndexShardKeepsItsWorkers)
{
    // One index per shard (an InferenceService sub-batch each): the
    // nested loop on the bound shard must reach that shard's worker, not
    // run inline on the driver. Each nested index waits for its sibling,
    // which only a second thread can start.
    ShardedExecutorPool pool(2, 4, false, CpuTopology::detect());
    ASSERT_EQ(pool.shard(0)->threadCount(), 2u);
    std::vector<std::atomic<int>> arrived(2), paired(2);
    for (std::size_t j = 0; j < 2; ++j) {
        arrived[j].store(0);
        paired[j].store(0);
    }
    pool.parallelForSharded(2, [&](std::size_t j) {
        ShardBinding::currentPool()->parallelFor(2, [&, j](std::size_t) {
            arrived[j].fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (arrived[j].load() < 2
                   && std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            if (arrived[j].load() == 2)
                paired[j].fetch_add(1);
        });
    });
    EXPECT_EQ(paired[0].load(), 2);
    EXPECT_EQ(paired[1].load(), 2);
}

TEST(ShardedExecutorPoolTest, ShardBindingsNestInnerWins)
{
    ShardedExecutorPool pool(2, 2, false, CpuTopology::detect());
    {
        const ShardBinding outer(pool.shard(0));
        EXPECT_EQ(ShardBinding::currentPool().get(), pool.shard(0).get());
        {
            const ShardBinding inner(pool.shard(1));
            EXPECT_EQ(ShardBinding::currentPool().get(),
                      pool.shard(1).get());
        }
        EXPECT_EQ(ShardBinding::currentPool().get(),
                  pool.shard(0).get());
    }
    EXPECT_EQ(ShardBinding::currentPool(), nullptr);
}

TEST(ShardedExecutorPoolTest, PinnedPoolStillComputes)
{
    // Pinning is a best-effort hint: whether or not the affinity call
    // succeeds on this host, a pinned pool must execute work exactly
    // like an unpinned one.
    ShardedExecutorPool pool(2, 4, true, CpuTopology::detect());
    std::atomic<long> sum{0};
    pool.parallelForSharded(100, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
}

// ---------------------------------------------------------------------
// environment resolution (SUPERBNN_NUMA / SUPERBNN_PIN / SUPERBNN_THREADS)

TEST_F(ShardedPoolEnvTest, NumaOffForcesOneShard)
{
    knobs("off", nullptr, "4");
    const auto pool = ShardedExecutorPool::shared();
    EXPECT_EQ(pool->shardCount(), 1u);
    EXPECT_EQ(pool->threadCount(), 4u);
    // A shared-pool executor runs on shard 0 of the same instance.
    EXPECT_EQ(crossbar::TileExecutor(8).threads(),
              pool->shard(0)->threadCount());
}

TEST_F(ShardedPoolEnvTest, NumaAutoFollowsDetectedTopology)
{
    knobs("auto", nullptr, nullptr);
    EXPECT_EQ(ShardedExecutorPool::shared()->shardCount(),
              CpuTopology::detect().nodes.size());
    // Unset behaves exactly like auto.
    knobs(nullptr, nullptr, nullptr);
    EXPECT_EQ(ShardedExecutorPool::shared()->shardCount(),
              CpuTopology::detect().nodes.size());
}

TEST_F(ShardedPoolEnvTest, NumaIntegerForcesShardCount)
{
    knobs("3", nullptr, "5");
    const auto pool = ShardedExecutorPool::shared();
    EXPECT_EQ(pool->shardCount(), 3u);
    EXPECT_EQ(pool->threadCount(), 5u);
    EXPECT_EQ(pool->shard(0)->threadCount(), 2u);
    EXPECT_EQ(pool->shard(1)->threadCount(), 2u);
    EXPECT_EQ(pool->shard(2)->threadCount(), 1u);
}

TEST_F(ShardedPoolEnvTest, InvalidNumaWarnsOnceAndFallsBackToAuto)
{
    knobs("banana", nullptr, nullptr);
    EXPECT_EQ(ShardedExecutorPool::shared()->shardCount(),
              CpuTopology::detect().nodes.size());
    knobs("0", nullptr, nullptr); // below the >= 1 floor
    EXPECT_EQ(ShardedExecutorPool::shared()->shardCount(),
              CpuTopology::detect().nodes.size());
}

TEST_F(ShardedPoolEnvTest, ResolutionPointIsSharedNotGetenv)
{
    knobs("2", nullptr, nullptr);
    const auto pool = ShardedExecutorPool::shared();
    EXPECT_EQ(pool->shardCount(), 2u);
    // Changing the environment without reset() has no effect ...
    ::setenv("SUPERBNN_NUMA", "off", 1);
    EXPECT_EQ(ShardedExecutorPool::shared().get(), pool.get());
    EXPECT_EQ(ShardedExecutorPool::shared()->shardCount(), 2u);
    // ... and reset() re-reads it. The old handle stays alive.
    ShardedExecutorPool::reset();
    EXPECT_EQ(ShardedExecutorPool::shared()->shardCount(), 1u);
    EXPECT_EQ(pool->shardCount(), 2u);
}

TEST_F(ShardedPoolEnvTest, EnvFlagParsesPinValues)
{
    ::unsetenv("SUPERBNN_PIN");
    EXPECT_FALSE(envFlag("SUPERBNN_PIN", false));
    EXPECT_TRUE(envFlag("SUPERBNN_PIN", true));
    ::setenv("SUPERBNN_PIN", "1", 1);
    EXPECT_TRUE(envFlag("SUPERBNN_PIN", false));
    ::setenv("SUPERBNN_PIN", "0", 1);
    EXPECT_FALSE(envFlag("SUPERBNN_PIN", true));
    ::setenv("SUPERBNN_PIN", "yes", 1); // invalid: warn once, fallback
    EXPECT_FALSE(envFlag("SUPERBNN_PIN", false));
    ::unsetenv("SUPERBNN_PIN");
}

TEST_F(ShardedPoolEnvTest, PinnedSharedPoolSmoke)
{
    knobs("2", "1", "4");
    const auto pool = ShardedExecutorPool::shared();
    std::atomic<long> sum{0};
    pool->parallelForSharded(64, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 2016);
}

// ---------------------------------------------------------------------
// the determinism contract across NUMA x PIN x threads

namespace {

/** The knob grid every deterministic surface is pinned across. */
struct KnobSetting
{
    const char *numa;
    const char *pin;
    const char *threads;
};

const KnobSetting kKnobGrid[] = {
    {"off", "0", "1"}, {"off", "1", "8"}, {"auto", "0", "8"},
    {"auto", "1", "1"}, {"2", "0", "8"},  {"2", "1", "8"},
};

std::string
knobName(const KnobSetting &s)
{
    return std::string("NUMA=") + s.numa + " PIN=" + s.pin
           + " THREADS=" + s.threads;
}

} // namespace

TEST_F(ShardedPoolEnvTest, EvaluatorScoresIdenticalAcrossKnobs)
{
    const Plan plan = makePlan(9);
    knobs("off", "0", "1");
    const std::vector<std::vector<double>> baseline =
        makeSharedPoolEvaluator()->classScoresSeeded(plan.samples,
                                                     plan.seeds);
    ASSERT_EQ(baseline.size(), plan.samples.size());
    for (const KnobSetting &s : kKnobGrid) {
        knobs(s.numa, s.pin, s.threads);
        const auto scores = makeSharedPoolEvaluator()->classScoresSeeded(
            plan.samples, plan.seeds);
        EXPECT_EQ(scores, baseline) << knobName(s);
    }
}

TEST_F(ShardedPoolEnvTest, ServiceResponsesIdenticalAcrossKnobs)
{
    // One full megabatch per run (maxBatch == plan size, generous
    // linger) so the batch composition — and with it the per-request
    // ledger share — is itself deterministic; the responses must then
    // be bit-identical however many shards the batch was split over.
    const Plan plan = makePlan(8);
    serve::ServiceConfig cfg;
    cfg.maxBatch = plan.samples.size();
    cfg.maxLingerMicros = 200000;
    cfg.maxQueue = 2 * plan.samples.size();

    const auto runOnce = [&](const KnobSetting &s) {
        knobs(s.numa, s.pin, s.threads);
        const auto eval = makeSharedPoolEvaluator();
        serve::InferenceService service(*eval, cfg);
        std::vector<std::future<serve::InferenceResponse>> futures;
        for (std::size_t i = 0; i < plan.samples.size(); ++i)
            futures.push_back(
                service.submit(plan.samples[i], plan.seeds[i]));
        std::vector<serve::InferenceResponse> out;
        for (auto &f : futures)
            out.push_back(f.get());
        return out;
    };

    const std::vector<serve::InferenceResponse> baseline =
        runOnce({"off", "0", "1"});
    for (const KnobSetting &s : kKnobGrid) {
        const std::vector<serve::InferenceResponse> got = runOnce(s);
        ASSERT_EQ(got.size(), baseline.size()) << knobName(s);
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].predicted, baseline[i].predicted)
                << knobName(s) << " request " << i;
            EXPECT_EQ(got[i].scores, baseline[i].scores)
                << knobName(s) << " request " << i;
            EXPECT_EQ(got[i].counts, baseline[i].counts)
                << knobName(s) << " request " << i;
            EXPECT_EQ(got[i].energyAj, baseline[i].energyAj)
                << knobName(s) << " request " << i;
            EXPECT_EQ(got[i].hardwareLatencyUs,
                      baseline[i].hardwareLatencyUs)
                << knobName(s) << " request " << i;
            EXPECT_EQ(got[i].batchSize, plan.samples.size())
                << knobName(s) << " request " << i;
        }
    }
}

TEST_F(ShardedPoolEnvTest, YieldSurfaceIdenticalAcrossKnobs)
{
    // The sweep's shared-pool fan-out (threads = 0) now stripes
    // (corner, chip) tasks across shards; the JSON surface must not
    // move by a byte. A trimmed custom sweep keeps the test quick.
    knobs("off", "0", "1");
    const std::string baseline =
        core::toJson(yield_surface_util::runCustomSweep(3, 2, 0));
    for (const KnobSetting &s : kKnobGrid) {
        knobs(s.numa, s.pin, s.threads);
        EXPECT_EQ(core::toJson(yield_surface_util::runCustomSweep(3, 2,
                                                                  0)),
                  baseline)
            << knobName(s);
    }
}
