/**
 * @file
 * Google-benchmark microbenchmarks of the simulator kernels: gray-zone
 * sampling, the SC accumulation module, the tile executor, per-arm
 * XNOR+popcount and Bernoulli fill, and the tensor matmul underlying
 * training — plus self-timed sweeps: shared-pool vs private-pool
 * executor construction, sharded fan-out, threads x batch, and the SIMD
 * dispatch arms.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <benchmark/benchmark.h>

#include "aqfp/grayzone.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "sc/accumulation.h"
#include "sc/bitstream.h"
#include "simd/kernels.h"
#include "tensor/tensor_ops.h"
#include "util/sharded_executor_pool.h"

using namespace superbnn;

namespace {

void
BM_GrayZoneSample(benchmark::State &state)
{
    const aqfp::GrayZoneModel model(2.4, 0.0);
    Rng rng(1);
    double iin = 0.7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.sampleBit(iin, rng));
        iin = -iin;
    }
}
BENCHMARK(BM_GrayZoneSample);

void
BM_AccumulationModule(benchmark::State &state)
{
    const std::size_t tiles = static_cast<std::size_t>(state.range(0));
    const std::size_t window = 16;
    sc::AccumulationModule mod(tiles, window);
    Rng rng(3);
    std::vector<sc::Bitstream> streams;
    for (std::size_t t = 0; t < tiles; ++t)
        streams.push_back(
            sc::encode(0.2, window, sc::Encoding::Bipolar, rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(mod.accumulate(streams));
}
BENCHMARK(BM_AccumulationModule)->Arg(4)->Arg(16)->Arg(64);

void
BM_TileExecutorForward(benchmark::State &state)
{
    const std::size_t cs = 16;
    const std::size_t window = static_cast<std::size_t>(state.range(0));
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(cs, atten, 2.4);
    Rng rng(4);
    Tensor w({64, 128});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    // threads pinned to 1: this is the sequential kernel baseline (the
    // threaded sweep lives in BM_TileExecutorForwardBatch).
    const crossbar::TileExecutor exec(window, false, 0.25, 1);
    std::vector<int> acts(128);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.forward(layer, acts, rng));
}
BENCHMARK(BM_TileExecutorForward)->Arg(1)->Arg(8)->Arg(32);

void
BM_TileExecutorForwardLedger(benchmark::State &state)
{
    // Same workload as BM_TileExecutorForward at window 16, with a
    // HardwareLedger attached: the delta against that baseline is the
    // full cost of the instrumented energy accounting (a handful of
    // integer adds per task — it should be noise).
    const std::size_t cs = 16;
    const std::size_t window = 16;
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(cs, atten, 2.4);
    Rng rng(4);
    Tensor w({64, 128});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    const crossbar::TileExecutor exec(window, false, 0.25, 1);
    std::vector<int> acts(128);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    aqfp::HardwareLedger ledger;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            exec.forward(layer, acts, rng, &ledger));
}
BENCHMARK(BM_TileExecutorForwardLedger);

void
BM_TileExecutorForwardBatch(benchmark::State &state)
{
    const std::size_t threads = static_cast<std::size_t>(state.range(0));
    const std::size_t batch_size =
        static_cast<std::size_t>(state.range(1));
    const std::size_t cs = 16;
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(cs, atten, 2.4);
    Rng rng(14);
    Tensor w({64, 128});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    crossbar::CrossbarMapper::setThresholds(
        layer, std::vector<double>(64, 0.0));
    const crossbar::TileExecutor exec(16, false, 0.25, threads);
    std::vector<std::vector<int>> batch(batch_size,
                                        std::vector<int>(128));
    for (auto &sample : batch)
        for (auto &a : sample)
            a = rng.bernoulli(0.5) ? 1 : -1;
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.forward(layer, batch, rng));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_TileExecutorForwardBatch)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 8})
    ->Args({4, 32});

void
BM_XnorPopcountPacked(benchmark::State &state)
{
    const std::size_t window = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    const sc::Bitstream a = sc::Bitstream::bernoulli(window, 0.3, rng);
    const sc::Bitstream b = sc::Bitstream::bernoulli(window, 0.6, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.xnorPopcount(b));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * window);
}
BENCHMARK(BM_XnorPopcountPacked)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

/**
 * XNOR+popcount pinned to one dispatch arm; registered dynamically in
 * main() once per arm the host actually supports, so the arm
 * comparison shows up in the machine-readable benchmark output as well
 * as the self-timed sweep below.
 */
void
BM_XnorPopcountArm(benchmark::State &state, simd::Arm arm)
{
    const std::size_t window = static_cast<std::size_t>(state.range(0));
    const simd::Arm previous = simd::activeArm();
    simd::setActiveArm(arm);
    Rng rng(6);
    const sc::Bitstream a = sc::Bitstream::bernoulli(window, 0.3, rng);
    const sc::Bitstream b = sc::Bitstream::bernoulli(window, 0.6, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.xnorPopcount(b));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * window);
    simd::setActiveArm(previous);
}

/**
 * Counter-based Bernoulli fill pinned to one dispatch arm; registered
 * dynamically in main() per available arm. The stream seed is fixed,
 * the counter advances across iterations — exactly the executor's
 * observe pattern.
 */
void
BM_BernoulliFillArm(benchmark::State &state, simd::Arm arm)
{
    const std::size_t window = static_cast<std::size_t>(state.range(0));
    const simd::Arm previous = simd::activeArm();
    simd::setActiveArm(arm);
    std::vector<std::uint64_t> words(
        sc::detail::wordsForLength(window));
    sc::detail::CounterStream stream{0x5eedULL, 0};
    for (auto _ : state) {
        sc::detail::bernoulliFill(words.data(), window, 0.37, stream);
        benchmark::DoNotOptimize(words.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * window);
    simd::setActiveArm(previous);
}

void
BM_MatMul(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(matmul(a, b));
    state.SetItemsProcessed(state.iterations() * n * n * n * 2);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

/**
 * Self-timed shared-pool comparison: construct-and-run many executors
 * (the fig11 / co-optimizer sweep pattern) with a private pool each
 * versus all of them on shard 0 of the process-wide
 * ShardedExecutorPool (threads = 0). The
 * difference is pure thread spawn/teardown cost.
 */
void
reportExecutorPoolReuse()
{
    using clock = std::chrono::steady_clock;
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(16, atten, 2.4);
    Rng rng(19);
    Tensor w({32, 64});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    crossbar::CrossbarMapper::setThresholds(
        layer, std::vector<double>(32, 0.0));
    std::vector<int> acts(64);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;

    const std::size_t executors = 64;
    const std::size_t pool_threads = 2;
    setenv("SUPERBNN_THREADS", "2", 1);
    util::ShardedExecutorPool::reset();

    std::printf("\n==== executor construction: private pools vs shared "
                "executor pool (%zu executors, %zu threads) ====\n",
                executors, pool_threads);
    std::printf("%10s %14s %9s\n", "mode", "executors/s", "speedup");
    double private_rate = 0.0;
    for (const bool shared : {false, true}) {
        Rng fwd(23);
        const auto t0 = clock::now();
        for (std::size_t e = 0; e < executors; ++e) {
            crossbar::TileExecutor exec(
                16, false, 0.25,
                shared ? 0 : pool_threads);
            benchmark::DoNotOptimize(exec.forward(layer, acts, fwd));
        }
        const double secs =
            std::chrono::duration<double>(clock::now() - t0).count();
        const double rate = static_cast<double>(executors) / secs;
        if (!shared)
            private_rate = rate;
        std::printf("%10s %14.1f %8.2fx\n",
                    shared ? "shared" : "private", rate,
                    rate / private_rate);
    }
    unsetenv("SUPERBNN_THREADS");
    util::ShardedExecutorPool::reset();
}

/**
 * Self-timed sharded-vs-flat fan-out table: the same independent
 * (sample, forward) task list driven through explicit
 * ShardedExecutorPool instances — 1 shard (the flat baseline: exactly
 * ThreadPool::parallelFor), then 2 and 4 shards at the same total
 * thread budget, each with and without worker pinning. Environment
 * knobs are not consulted, so the table is reproducible on any host;
 * on single-socket machines the sharded rows mostly price the striped
 * driver's overhead, while NUMA hosts additionally show the locality
 * win.
 */
void
reportShardedFanOut()
{
    using clock = std::chrono::steady_clock;
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(16, atten, 2.4);
    Rng rng(21);
    Tensor w({64, 128});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    crossbar::CrossbarMapper::setThresholds(
        layer, std::vector<double>(64, 0.0));
    std::vector<int> acts(128);
    for (auto &a : acts)
        a = rng.bernoulli(0.5) ? 1 : -1;
    const crossbar::TileExecutor exec(16, false, 0.25, 1);

    const util::CpuTopology topo = util::CpuTopology::detect();
    const std::size_t threads_total =
        std::min<std::size_t>(4, std::max<std::size_t>(
                                     2, topo.totalCpus()));
    const std::size_t tasks = 512;

    std::printf("\n==== sharded vs flat fan-out: %zu forward tasks, "
                "%zu threads total (%zu node(s) detected) ====\n",
                tasks, threads_total, topo.nodes.size());
    std::printf("%8s %8s %5s %12s %9s\n", "shards", "threads", "pin",
                "tasks/s", "speedup");
    double flat_rate = 0.0;
    for (const std::size_t shards : {1u, 2u, 4u}) {
        for (const bool pin : {false, true}) {
            util::ShardedExecutorPool pool(shards, threads_total, pin,
                                           topo);
            const auto t0 = clock::now();
            pool.parallelForSharded(tasks, [&](std::size_t t) {
                Rng task_rng(t);
                benchmark::DoNotOptimize(
                    exec.forward(layer, acts, task_rng));
            });
            const double secs =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            const double rate = static_cast<double>(tasks) / secs;
            if (flat_rate == 0.0)
                flat_rate = rate;
            // threadCount() can exceed the requested budget: every
            // shard gets at least one worker, so shards > threads
            // oversubscribes (visibly, in this column).
            std::printf("%8zu %8zu %5s %12.1f %8.2fx\n", shards,
                        pool.threadCount(), pin ? "yes" : "no", rate,
                        rate / flat_rate);
        }
    }
}

/**
 * Self-timed threads x batch sweep of the executor forward path on the
 * two table workloads. Each configuration runs the same total number of
 * samples; the speedup column is relative to the sequential
 * single-sample configuration (threads=1, batch=1), so the table shows
 * directly what threading and batching buy on the paper's workloads.
 */
void
reportThreadBatchSweep()
{
    using clock = std::chrono::steady_clock;
    const aqfp::AttenuationModel atten;
    const std::size_t cs = 16;
    const std::size_t window = 16;
    const crossbar::CrossbarMapper mapper(cs, atten, 2.4);
    Rng rng(15);

    struct Workload
    {
        const char *name;
        std::vector<crossbar::MappedLayer> layers;
        std::size_t fanIn;
    };

    auto signedLayer = [&](std::size_t out, std::size_t in) {
        Tensor w({out, in});
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
        crossbar::MappedLayer layer = mapper.map(w);
        crossbar::CrossbarMapper::setThresholds(
            layer, std::vector<double>(out, 0.0));
        return layer;
    };

    std::vector<Workload> workloads;
    {
        // Table 3's MNIST MLP (784-64-10 as trained by table3_mnist).
        Workload mlp{"table3 MNIST MLP 784-64-10", {}, 784};
        mlp.layers.push_back(signedLayer(64, 784));
        mlp.layers.push_back(signedLayer(10, 64));
        workloads.push_back(std::move(mlp));
    }
    {
        // One CIFAR conv layer of table2's CNN as the crossbar sees it:
        // a 3x3, 16->16 channel filter bank is a (16, 144) mapped layer
        // driven once per spatial position; batching turns the
        // positions of many samples into one executor pass.
        Workload conv{"table2 CIFAR conv3x3 16ch (patch rows)", {}, 144};
        conv.layers.push_back(signedLayer(16, 144));
        workloads.push_back(std::move(conv));
    }

    const std::size_t total_samples = 64;
    for (const Workload &wl : workloads) {
        std::printf("\n==== executor threads x batch: %s "
                    "(Cs=%zu, L=%zu) ====\n",
                    wl.name, cs, window);
        std::printf("%8s %6s %12s %9s\n", "threads", "batch",
                    "samples/s", "speedup");
        double base_rate = 0.0;
        for (const std::size_t threads : {1u, 2u, 4u}) {
            for (const std::size_t batch_size : {1u, 8u, 32u}) {
                if (threads == 1 && batch_size == 32)
                    continue; // redundant row
                crossbar::TileExecutor exec(window, false, 0.25,
                                            threads);
                Rng data_rng(16);
                std::vector<std::vector<int>> batch(
                    batch_size, std::vector<int>(wl.fanIn));
                for (auto &sample : batch)
                    for (auto &a : sample)
                        a = data_rng.bernoulli(0.5) ? 1 : -1;
                const std::size_t reps =
                    (total_samples + batch_size - 1) / batch_size;
                const auto t0 = clock::now();
                for (std::size_t r = 0; r < reps; ++r) {
                    std::vector<std::vector<int>> acts = batch;
                    for (const auto &layer : wl.layers)
                        acts = exec.forward(layer, acts, data_rng);
                    benchmark::DoNotOptimize(acts);
                }
                const double secs =
                    std::chrono::duration<double>(clock::now() - t0)
                        .count();
                const double rate =
                    static_cast<double>(reps * batch_size) / secs;
                if (base_rate == 0.0)
                    base_rate = rate;
                std::printf("%8zu %6zu %12.1f %8.2fx\n", threads,
                            batch_size, rate, rate / base_rate);
            }
        }
    }
}

/**
 * Self-timed dispatch-arm sweep of the XNOR+popcount kernel: every arm
 * the host supports, at each SC window, against the scalar arm. The
 * speedup column at window 1024 is the headline number for the SIMD
 * layer.
 */
void
reportSimdArmSweep()
{
    using clock = std::chrono::steady_clock;
    const auto arms = simd::availableArms();
    const simd::Arm previous = simd::activeArm();
    std::printf("\n==== XNOR+popcount dispatch arms (vs scalar) ====\n");
    std::printf("%8s", "window");
    for (const simd::Arm arm : arms)
        std::printf(" %10s %8s", simd::armName(arm), "speedup");
    std::printf("\n");
    Rng rng(8);
    for (const std::size_t window : {64u, 256u, 1024u, 4096u}) {
        const sc::Bitstream a =
            sc::Bitstream::bernoulli(window, 0.3, rng);
        const sc::Bitstream b =
            sc::Bitstream::bernoulli(window, 0.6, rng);
        const std::size_t total_bits = 1u << 28;
        const std::size_t iters = total_bits / window;
        std::printf("%8zu", window);
        double scalar_s = 0.0;
        for (const simd::Arm arm : arms) {
            simd::setActiveArm(arm);
            const auto t0 = clock::now();
            for (std::size_t i = 0; i < iters; ++i)
                benchmark::DoNotOptimize(a.xnorPopcount(b));
            const double secs =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            if (arm == simd::Arm::Scalar)
                scalar_s = secs;
            const double bits = static_cast<double>(iters)
                * static_cast<double>(window);
            std::printf(" %10.2f %7.1fx", bits / secs / 1e9,
                        scalar_s / secs);
        }
        std::printf("\n");
    }
    simd::setActiveArm(previous);
}

/**
 * Self-timed dispatch-arm sweep of the executor forward path on the
 * Table-2/Table-3 workloads (sequential, batch 8, the kernel-bound
 * configuration): end-to-end samples/s per arm, speedup vs scalar.
 */
void
reportSimdWorkloadSweep()
{
    using clock = std::chrono::steady_clock;
    const aqfp::AttenuationModel atten;
    const std::size_t cs = 16;
    const std::size_t window = 16;
    const crossbar::CrossbarMapper mapper(cs, atten, 2.4);
    Rng rng(17);

    auto signedLayer = [&](std::size_t out, std::size_t in) {
        Tensor w({out, in});
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
        crossbar::MappedLayer layer = mapper.map(w);
        crossbar::CrossbarMapper::setThresholds(
            layer, std::vector<double>(out, 0.0));
        return layer;
    };

    struct Workload
    {
        const char *name;
        std::vector<crossbar::MappedLayer> layers;
        std::size_t fanIn;
    };
    std::vector<Workload> workloads;
    {
        Workload mlp{"table3 MNIST MLP 784-64-10", {}, 784};
        mlp.layers.push_back(signedLayer(64, 784));
        mlp.layers.push_back(signedLayer(10, 64));
        workloads.push_back(std::move(mlp));
    }
    {
        Workload conv{"table2 CIFAR conv3x3 16ch (patch rows)", {}, 144};
        conv.layers.push_back(signedLayer(16, 144));
        workloads.push_back(std::move(conv));
    }

    const simd::Arm previous = simd::activeArm();
    const std::size_t batch_size = 8;
    const std::size_t total_samples = 64;
    for (const Workload &wl : workloads) {
        std::printf("\n==== executor dispatch arms: %s "
                    "(Cs=%zu, L=%zu, batch=%zu) ====\n",
                    wl.name, cs, window, batch_size);
        std::printf("%8s %12s %9s\n", "arm", "samples/s", "speedup");
        double scalar_rate = 0.0;
        for (const simd::Arm arm : simd::availableArms()) {
            simd::setActiveArm(arm);
            crossbar::TileExecutor exec(window, false, 0.25, 1);
            Rng data_rng(18);
            std::vector<std::vector<int>> batch(
                batch_size, std::vector<int>(wl.fanIn));
            for (auto &sample : batch)
                for (auto &a : sample)
                    a = data_rng.bernoulli(0.5) ? 1 : -1;
            const std::size_t reps =
                (total_samples + batch_size - 1) / batch_size;
            const auto t0 = clock::now();
            for (std::size_t r = 0; r < reps; ++r) {
                std::vector<std::vector<int>> acts = batch;
                for (const auto &layer : wl.layers)
                    acts = exec.forward(layer, acts, data_rng);
                benchmark::DoNotOptimize(acts);
            }
            const double secs =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            const double rate =
                static_cast<double>(reps * batch_size) / secs;
            if (arm == simd::Arm::Scalar)
                scalar_rate = rate;
            std::printf("%8s %12.1f %8.2fx\n", simd::armName(arm),
                        rate, rate / scalar_rate);
        }
    }
    simd::setActiveArm(previous);
}

} // namespace

int
main(int argc, char **argv)
{
    // The summaries are for interactive full runs only: filter/list
    // invocations and machine-readable output modes (--benchmark_format,
    // --benchmark_out*) are driven by tooling that parses stdout and
    // should get neither the extra tables nor the self-timed sweeps.
    bool full_run = true;
    for (int i = 1; i < argc; ++i) {
        // CI shortcut: print only the sharded-vs-flat fan-out table
        // (no google-benchmark run), so the artifact job gets the
        // table without paying for the whole self-timed sweep set.
        if (std::strcmp(argv[i], "--superbnn-sharded-table") == 0) {
            reportShardedFanOut();
            return 0;
        }
        if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0
            || std::strncmp(argv[i], "--benchmark_list_tests", 22) == 0
            || std::strncmp(argv[i], "--benchmark_format", 18) == 0
            || std::strncmp(argv[i], "--benchmark_out", 15) == 0)
            full_run = false;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // One instance per arm this host supports (static registration
    // would emit skip errors for missing ISAs).
    for (const simd::Arm arm : simd::availableArms()) {
        const std::string xnor_name =
            std::string("BM_XnorPopcountArm/") + simd::armName(arm);
        benchmark::RegisterBenchmark(xnor_name.c_str(),
                                     BM_XnorPopcountArm, arm)
            ->Arg(1024)
            ->Arg(4096);
        const std::string fill_name =
            std::string("BM_BernoulliFillArm/") + simd::armName(arm);
        benchmark::RegisterBenchmark(fill_name.c_str(),
                                     BM_BernoulliFillArm, arm)
            ->Arg(64)
            ->Arg(1024);
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (full_run) {
        reportSimdArmSweep();
        reportExecutorPoolReuse();
        reportShardedFanOut();
        reportThreadBatchSweep();
        reportSimdWorkloadSweep();
    }
    return 0;
}
