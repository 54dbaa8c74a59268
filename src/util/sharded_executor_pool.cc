#include "util/sharded_executor_pool.h"

#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "util/env.h"

namespace superbnn::util {

namespace {

/**
 * SUPERBNN_NUMA resolved against the detected topology: auto (default)
 * -> one shard per node, off -> 1, <n> -> n; invalid values warn once
 * and fall back to auto, mirroring envSize().
 */
std::size_t
resolveShardCount(const CpuTopology &topo)
{
    const std::size_t auto_shards =
        topo.nodes.empty() ? 1 : topo.nodes.size();
    const char *env = std::getenv("SUPERBNN_NUMA");
    if (env == nullptr)
        return auto_shards;
    const std::string v(env);
    if (v == "auto")
        return auto_shards;
    if (v == "off")
        return 1;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (end != v.c_str() && *end == '\0' && v[0] != '-' && n >= 1)
        return static_cast<std::size_t>(n);
    envWarnOnce("SUPERBNN_NUMA", env, "auto, off, or an integer >= 1",
                "auto");
    return auto_shards;
}

std::mutex &
poolMutex()
{
    static std::mutex m;
    return m;
}

std::shared_ptr<ShardedExecutorPool> &
poolSlot()
{
    static std::shared_ptr<ShardedExecutorPool> slot;
    return slot;
}

thread_local ShardBinding *tls_binding = nullptr;

} // namespace

ShardedExecutorPool::ShardedExecutorPool(std::size_t shard_count,
                                         std::size_t threads_total,
                                         bool pin,
                                         const CpuTopology &topo)
{
    const std::size_t shards =
        shard_count == 0 ? 1 : shard_count;
    const std::size_t total = threads_total == 0
                                  ? ThreadPool::defaultThreadCount()
                                  : threads_total;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        // Even split with the remainder spread over the first shards;
        // never below one thread (an oversharded tiny host still gets
        // a working — if inline — pool per shard).
        std::size_t threads = total / shards;
        if (i < total % shards)
            ++threads;
        if (threads == 0)
            threads = 1;
        std::vector<int> pin_cpus;
        if (pin && !topo.nodes.empty())
            pin_cpus = topo.nodes[i % topo.nodes.size()].cpus;
        shards_.push_back(
            std::make_shared<ThreadPool>(threads, pin_cpus));
    }
}

std::shared_ptr<ShardedExecutorPool>
ShardedExecutorPool::shared()
{
    const std::lock_guard<std::mutex> lock(poolMutex());
    std::shared_ptr<ShardedExecutorPool> &slot = poolSlot();
    if (!slot) {
        const CpuTopology topo = CpuTopology::detect();
        slot = std::make_shared<ShardedExecutorPool>(
            resolveShardCount(topo), ThreadPool::defaultThreadCount(),
            envFlag("SUPERBNN_PIN", false), topo);
    }
    return slot;
}

void
ShardedExecutorPool::reset()
{
    const std::lock_guard<std::mutex> lock(poolMutex());
    poolSlot().reset();
}

std::size_t
ShardedExecutorPool::threadCount() const
{
    std::size_t total = 0;
    for (const std::shared_ptr<ThreadPool> &pool : shards_)
        total += pool->threadCount();
    return total;
}

void
ShardedExecutorPool::parallelForSharded(
    std::size_t n, const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    const std::size_t k = shards_.size();
    if (k == 1 || n == 1) {
        // Single shard (NUMA=off, single-node auto) is exactly the
        // flat pool — no striping, no extra driver threads.
        shards_[0]->parallelFor(n, body);
        return;
    }
    // Shard j owns indices j, j+k, j+2k, ... — round-robin striping
    // so adjacent work spreads across nodes. One driver per shard;
    // the caller drives shard 0. Each *task* executes under a
    // ShardBinding so nested shared-pool loops stay node-local.
    std::vector<std::exception_ptr> errors(k);
    auto drive = [&](std::size_t j) {
        const std::size_t count = j < n ? (n - 1 - j) / k + 1 : 0;
        if (count == 0)
            return;
        try {
            if (count == 1) {
                // Inside the shard pool's own parallelFor, nested loops
                // on that pool would run inline on this one thread.
                const ShardBinding bind(shards_[j]);
                body(j);
                return;
            }
            shards_[j]->parallelFor(count, [&, j](std::size_t t) {
                const ShardBinding bind(shards_[j]);
                body(j + t * k);
            });
        } catch (...) {
            errors[j] = std::current_exception();
        }
    };
    std::vector<std::thread> drivers;
    drivers.reserve(k - 1);
    for (std::size_t j = 1; j < k; ++j)
        drivers.emplace_back(drive, j);
    drive(0);
    for (std::thread &t : drivers)
        t.join();
    for (const std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);
}

void
parallelForThreads(std::size_t threads, std::size_t n,
                   const std::function<void(std::size_t)> &body)
{
    if (threads == 0) {
        ShardedExecutorPool::shared()->parallelForSharded(n, body);
        return;
    }
    // A 1-thread pool spawns no workers, so threads == 1 is the inline
    // loop with the pool's exception contract.
    ThreadPool(threads).parallelFor(n, body);
}

ShardBinding::ShardBinding(std::shared_ptr<ThreadPool> pool)
    : pool_(std::move(pool)), prev_(tls_binding)
{
    tls_binding = this;
}

ShardBinding::~ShardBinding()
{
    tls_binding = prev_;
}

const std::shared_ptr<ThreadPool> &
ShardBinding::currentPool()
{
    static const std::shared_ptr<ThreadPool> unbound;
    return tls_binding == nullptr ? unbound : tls_binding->pool_;
}

} // namespace superbnn::util
