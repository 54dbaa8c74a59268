/**
 * @file
 * Per-layer diagnostics of the traced run. Each figure times one public
 * call into a layer from outside, at the batch shape its workload runs:
 * the MLP layers at the closed-loop megabatch (16), the CNN layers at the
 * eval batch (8 images, i.e. 8192 / 2048 patches for conv1 / conv2).
 */

#include <atomic>

#include "aqfp/energy.h"
#include "alloc_counter.h"
#include "core/bn_matching.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "sc/accumulation.h"
#include "simd/kernels.h"
#include "stats.h"
#include "trace.h"
#include "util/sharded_executor_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Batch = std::vector<std::vector<int>>;

/// Wall budget per timed call site: enough repeats for a stable median.
constexpr double kBudgetS = 0.15;

/**
 * Median nanoseconds of @p fn over repeated calls, each inside a span
 * named @p name: at least @p min_reps calls, then more until the budget
 * is spent, at most @p max_reps.
 */
template <typename F>
double
medianCallNs(const char *name, std::size_t min_reps, std::size_t max_reps,
             F &&fn)
{
    std::vector<double> ns;
    const auto start = Clock::now();
    while (ns.size() < min_reps
           || (ns.size() < max_reps
               && secondsBetween(start, Clock::now()) < kBudgetS)) {
        trace::Span span(name);
        fn();
        ns.push_back(span.finish());
    }
    return median(ns);
}

std::vector<int>
binarize(const Tensor &t)
{
    std::vector<int> out(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        out[i] = t[i] >= 0.0f ? 1 : -1;
    return out;
}

/** 3x3 receptive-field patches (zero padding) of channel-major maps. */
Batch
gatherPatches(const Batch &maps, std::size_t channels, std::size_t side)
{
    Batch patches;
    patches.reserve(maps.size() * side * side);
    for (const std::vector<int> &m : maps) {
        for (std::size_t y = 0; y < side; ++y) {
            for (std::size_t x = 0; x < side; ++x) {
                std::vector<int> patch;
                patch.reserve(channels * 9);
                for (std::size_t c = 0; c < channels; ++c) {
                    for (int ky = -1; ky <= 1; ++ky) {
                        for (int kx = -1; kx <= 1; ++kx) {
                            const long iy = static_cast<long>(y) + ky;
                            const long ix = static_cast<long>(x) + kx;
                            const long s = static_cast<long>(side);
                            patch.push_back(
                                iy < 0 || ix < 0 || iy >= s || ix >= s
                                    ? 0
                                    : m[(c * side + iy) * side + ix]);
                        }
                    }
                }
                patches.push_back(std::move(patch));
            }
        }
    }
    return patches;
}

/** Per-patch conv outputs -> flipped, 2x2-max-pooled channel-major maps. */
Batch
poolOutputs(const Batch &outs, std::size_t images, std::size_t side,
            std::size_t channels, const std::vector<bool> &flip)
{
    const std::size_t half = side / 2;
    Batch maps(images, std::vector<int>(channels * half * half, -1));
    for (std::size_t b = 0; b < images; ++b)
        for (std::size_t y = 0; y < side; ++y)
            for (std::size_t x = 0; x < side; ++x)
                for (std::size_t c = 0; c < channels; ++c) {
                    const int v = outs[(b * side + y) * side + x][c];
                    int &cell = maps[b][(c * half + y / 2) * half + x / 2];
                    cell = std::max(cell, flip[c] ? -v : v);
                }
    return maps;
}

std::vector<std::uint64_t>
rootsFor(std::size_t n, std::uint64_t seed)
{
    SeedStream s(seed);
    std::vector<std::uint64_t> roots(n);
    for (auto &r : roots)
        r = s.next();
    return roots;
}

/** One mapped layer with the executor samples its workload feeds it. */
struct LayerCase
{
    const char *name;
    crossbar::MappedLayer layer;
    Batch batch;
    std::size_t window;
    bool decoded; ///< head: APC count readout instead of the comparator
};

Batch
forwardOnce(const LayerCase &c, const std::vector<bool> &flip)
{
    const crossbar::TileExecutor exec(c.window, false, 0.25, 0);
    Batch out = exec.forwardSeeded(c.layer, c.batch,
                                   rootsFor(c.batch.size(), 17));
    for (auto &sample : out)
        for (std::size_t j = 0; j < flip.size(); ++j)
            if (flip[j])
                sample[j] = -sample[j];
    return out;
}

std::vector<LayerCase>
mlpLayers(const MlpWorkload &work)
{
    const aqfp::AttenuationModel atten;
    const core::HardwareConfig hw = mlpConfig();
    const crossbar::CrossbarMapper mapper(hw.crossbarSize, atten,
                                          hw.deltaIinUa);
    const core::MlpCellRef &cell = work.mlp->cells().at(0);
    const core::FoldedBn folded =
        core::foldBatchNorm(*cell.bn, cell.linear->alpha().value);
    LayerCase fc1{"mlp.fc1", mapper.map(cell.linear->signedWeights()), {},
                  hw.window, false};
    crossbar::CrossbarMapper::setThresholds(fc1.layer, folded.vth);
    for (std::size_t i = 0; i < ServeBench::kInFlight; ++i)
        fc1.batch.push_back(binarize(work.dataset.test.sample(i)));
    LayerCase head{"mlp.head", mapper.map(work.mlp->head().signedWeights()),
                   forwardOnce(fc1, folded.flip), hw.window, true};
    return {std::move(fc1), std::move(head)};
}

std::vector<LayerCase>
cnnLayers(const CnnWorkload &work)
{
    const aqfp::AttenuationModel atten;
    const core::HardwareConfig hw = cnnConfig();
    const crossbar::CrossbarMapper mapper(hw.crossbarSize, atten,
                                          hw.deltaIinUa);
    const auto &cells = work.cnn->cells();
    std::size_t side = work.cnn->config().inputSide;
    std::size_t channels = work.cnn->config().inputChannels;
    Batch maps;
    for (std::size_t i = 0; i < EvalCnnBench::kBatch; ++i)
        maps.push_back(binarize(work.data.test.sample(i)));

    static const char *const names[] = {"cnn.conv1", "cnn.conv2"};
    std::vector<LayerCase> cases;
    for (std::size_t li = 0; li < cells.size() && li < 2; ++li) {
        const core::FoldedBn folded = core::foldBatchNorm(
            *cells[li].bn, cells[li].conv->alpha().value);
        LayerCase c{names[li], mapper.map(cells[li].conv->signedWeightMatrix()),
                    gatherPatches(maps, channels, side), hw.window, false};
        crossbar::CrossbarMapper::setThresholds(c.layer, folded.vth);
        channels = cells[li].conv->outChannels();
        maps = poolOutputs(forwardOnce(c, {}), EvalCnnBench::kBatch, side,
                           channels, folded.flip);
        side /= 2;
        cases.push_back(std::move(c));
    }
    cases.push_back({"cnn.head", mapper.map(work.cnn->head().signedWeights()),
                     std::move(maps), hw.window, true});
    return cases;
}

void
measureLayer(const LayerCase &c, Outcome &out)
{
    const trace::Span layerSpan(c.name);
    const std::string suffix = std::string(".") + c.name;
    const crossbar::TileExecutor pooled(c.window, false, 0.25, 0);
    const crossbar::TileExecutor sequential(c.window, false, 0.25, 1);
    const std::size_t samples = c.batch.size();
    const std::vector<std::uint64_t> roots = rootsFor(samples, 29);
    const auto forward = [&](const crossbar::TileExecutor &exec,
                             aqfp::HardwareLedger *ledger) {
        if (c.decoded)
            (void)exec.forwardDecodedSeeded(c.layer, c.batch, roots, ledger);
        else
            (void)exec.forwardSeeded(c.layer, c.batch, roots, ledger);
    };
    const double forwardNs = medianCallNs(
        "crossbar.forward_seeded", 3, 1000, [&] { forward(pooled, nullptr); });
    aqfp::HardwareLedger ledger;
    forward(pooled, &ledger);
    const double cycles =
        static_cast<double>(ledger.totals().crossbarCycles);
    std::uint64_t allocs = 0;
    {
        // Sequential executor: counts the executor's own allocations,
        // not the pool's task bookkeeping, so they repeat exactly.
        const AllocationScope scope;
        forward(sequential, nullptr);
        allocs = scope.count();
    }

    // Each row tile sees its slice of every sample, as the executor
    // hands it over.
    const crossbar::MappedLayer &L = c.layer;
    std::vector<Batch> slices(L.rowTiles, Batch(samples));
    for (std::size_t rt = 0; rt < L.rowTiles; ++rt) {
        const std::size_t r0 = rt * L.cs;
        const std::size_t rows = std::min(L.cs, L.fanIn - r0);
        for (std::size_t b = 0; b < samples; ++b)
            slices[rt][b].assign(c.batch[b].begin() + r0,
                                 c.batch[b].begin() + r0 + rows);
    }
    const std::vector<std::uint64_t> seeds = rootsFor(samples, 31);
    const double tileObs =
        static_cast<double>(L.tileCount() * samples);
    const double observeNs =
        medianCallNs("crossbar.observe_batch_seeded", 3, 1000, [&] {
            for (std::size_t t = 0; t < L.tileCount(); ++t)
                (void)L.tiles[t].observeBatchSeeded(
                    slices[t / L.colTiles], c.window, seeds);
        });
    const double sumsNs =
        medianCallNs("crossbar.column_sums_batch", 3, 1000, [&] {
            for (std::size_t t = 0; t < L.tileCount(); ++t)
                (void)L.tiles[t].columnSumsBatch(slices[t / L.colTiles]);
        });

    // Merge: column group 0's streams across every row tile.
    std::vector<std::vector<sc::BitstreamBatch>> observed;
    for (std::size_t rt = 0; rt < L.rowTiles; ++rt)
        observed.push_back(
            L.tile(rt, 0).observeBatchSeeded(slices[rt], c.window, seeds));
    const sc::AccumulationModule accum(L.rowTiles, c.window, false, 0.25);
    const std::size_t cols = std::min(L.cs, L.fanOut);
    std::vector<sc::StreamView> views(L.rowTiles);
    std::size_t sink = 0;
    const double mergeNs = medianCallNs("sc.accumulate", 3, 1000, [&] {
        for (std::size_t b = 0; b < samples; ++b)
            for (std::size_t col = 0; col < cols; ++col) {
                for (std::size_t rt = 0; rt < L.rowTiles; ++rt)
                    views[rt] = observed[rt][col].view(b);
                sink += c.decoded ? accum.rawCount(views)
                                  : static_cast<std::size_t>(
                                      accum.accumulate(views) > 0);
            }
    });
    static std::atomic<std::size_t> g_sink{0};
    g_sink.fetch_add(sink, std::memory_order_relaxed);

    out.add("crossbar.forward_ns_per_sample" + suffix,
            forwardNs / static_cast<double>(samples), "ns");
    out.add("crossbar.ns_per_cycle" + suffix, forwardNs / cycles, "ns");
    out.add("crossbar.observe_ns_per_tile" + suffix, observeNs / tileObs,
            "ns");
    out.add("crossbar.column_sums_ns_per_tile" + suffix, sumsNs / tileObs,
            "ns");
    out.add("crossbar.allocs_per_sample" + suffix,
            static_cast<double>(allocs) / static_cast<double>(samples),
            "count");
    out.add("sc.merge_ns_per_column" + suffix,
            mergeNs / static_cast<double>(samples * cols), "ns");
}

/** Host ns per simulated crossbar cycle of a geometry replay (one
 *  position per layer, as bench/energy_table_json replays them). */
double
replayNsPerCycle(const aqfp::WorkloadSpec &workload)
{
    const aqfp::AttenuationModel atten;
    const crossbar::TileExecutor exec(32, false, 0.25, 0);
    double ns = 0.0;
    double cycles = 0.0;
    for (const aqfp::LayerSpec &spec : workload.layers) {
        const crossbar::MappedLayer layer =
            crossbar::geometryLayer(spec.fanIn, spec.fanOut, 16, atten);
        const std::vector<int> acts(layer.fanIn, 1);
        aqfp::HardwareLedger ledger;
        Rng rng(1);
        (void)exec.forward(layer, acts, rng, &ledger);
        cycles += static_cast<double>(ledger.totals().crossbarCycles);
        ns += medianCallNs("crossbar.replay_forward", 3, 3, [&] {
            Rng r(1);
            (void)exec.forward(layer, acts, r, nullptr);
        });
    }
    return ns / cycles;
}

/** Exact per-image counts of one batched call on @p eval. */
aqfp::LedgerCounts
perImageCounts(const core::HardwareEvaluator &eval,
               const std::vector<Tensor> &batch)
{
    std::vector<std::uint64_t> seeds(batch.size(), 7);
    const aqfp::LedgerCounts before = eval.totalLedgerCounts();
    (void)eval.classScoresSeeded(batch, seeds);
    aqfp::LedgerCounts per;
    (void)countsPerImage(before, eval.totalLedgerCounts(), batch.size(),
                         per);
    return per;
}

void
addCounts(Outcome &out, const std::string &workload,
          const aqfp::LedgerCounts &per_image)
{
    out.add("aqfp.crossbar_cycles_per_image." + workload,
            static_cast<double>(per_image.crossbarCycles), "count");
    out.add("aqfp.bernoulli_draws_per_image." + workload,
            static_cast<double>(per_image.bernoulliDraws), "count");
    out.add("aqfp.tile_observations_per_image." + workload,
            static_cast<double>(per_image.tileObservations), "count");
}

} // namespace

void
layerDiagnostics(const ServeBench &serve, const EvalCnnBench &cnn,
                 const YieldSweepBench &sweep, Outcome &out)
{
    const trace::Span span("layers");
    const core::HardwareEvaluator &mlpEval = serve.evaluator();
    const core::HardwareEvaluator &cnnEval = cnn.evaluator();

    // core: batched scores at the serving batch sizes and the CNN batch.
    std::vector<Tensor> mlpInputs, cnnInputs;
    for (std::size_t i = 0; i < 16; ++i)
        mlpInputs.push_back(serve.work().dataset.test.sample(i));
    for (std::size_t i = 0; i < EvalCnnBench::kBatch; ++i)
        cnnInputs.push_back(cnn.work().data.test.sample(i));
    for (const std::size_t b : {1, 4, 16}) {
        const std::vector<Tensor> batch(mlpInputs.begin(),
                                        mlpInputs.begin() + b);
        std::vector<std::uint64_t> seeds(b);
        for (std::size_t i = 0; i < b; ++i)
            seeds[i] = 0x5EEDULL + i;
        const double ns = medianCallNs("core.classScoresSeeded", 5, 2000, [&] {
            (void)mlpEval.classScoresSeeded(batch, seeds);
        });
        out.add("core.scores_us_per_sample.b" + std::to_string(b),
                ns / 1e3 / static_cast<double>(b), "us");
    }
    {
        std::vector<std::uint64_t> seeds(cnnInputs.size());
        for (std::size_t i = 0; i < seeds.size(); ++i)
            seeds[i] = EvalCnnBench::imageSeed(i);
        const double ns = medianCallNs("core.classScoresSeeded", 3, 200, [&] {
            (void)cnnEval.classScoresSeeded(cnnInputs, seeds);
        });
        out.add("core.cnn_scores_us_per_image",
                ns / 1e3 / static_cast<double>(cnnInputs.size()), "us");
    }
    const YieldSweepBench::ChipPhases chip = sweep.timeChipPhases(24, 3);
    out.add("core.sweep.map_us_per_chip", chip.mapUs, "us");
    out.add("core.sweep.inject_us_per_chip", chip.injectUs, "us");
    out.add("core.sweep.eval_us_per_chip", chip.evalUs, "us");

    // crossbar + sc: every mapped layer of both models.
    std::vector<LayerCase> cases = mlpLayers(serve.work());
    for (LayerCase &c : cnnLayers(cnn.work()))
        cases.push_back(std::move(c));
    for (const LayerCase &c : cases)
        measureLayer(c, out);
    out.add("crossbar.replay.vgg_small.ns_per_cycle",
            replayNsPerCycle(aqfp::workloads::vggSmall()), "ns");
    out.add("crossbar.replay.resnet18.ns_per_cycle",
            replayNsPerCycle(aqfp::workloads::resnet18()), "ns");
    out.add("crossbar.replay.mnist_mlp.ns_per_cycle",
            replayNsPerCycle(aqfp::workloads::mnistMlp()), "ns");

    // sc/simd: the active arm's counter-based Bernoulli fill.
    {
        const simd::KernelSet &k = simd::active();
        std::vector<std::uint64_t> words(16);
        std::uint64_t sink = 0;
        const double ns = medianCallNs("simd.generate_threshold_words", 5,
                                       2000, [&] {
            for (std::uint64_t i = 0; i < 100; ++i) {
                k.generateThresholdWords(words.data(), 1000, 0x5EEDULL,
                                         i * 1000, 1ULL << 63);
                sink ^= words[i % 16];
            }
        });
        static std::atomic<std::uint64_t> g_sink{0};
        g_sink.fetch_xor(sink, std::memory_order_relaxed);
        out.add("sc.fill_ns_per_kdraw", ns / 100.0, "ns");
    }

    // aqfp: pricing, and the exact simulated counts per image.
    const double reportsNs = medianCallNs("aqfp.energy_reports", 5, 500, [&] {
        (void)mlpEval.energyReports(5.0);
    });
    out.add("aqfp.energy_reports_us", reportsNs / 1e3, "us");
    addCounts(out, "serve", perImageCounts(mlpEval, mlpInputs));
    addCounts(out, "eval-cnn", perImageCounts(cnnEval, cnnInputs));
    aqfp::LedgerCounts chipPerImage;
    (void)countsPerImage({}, chip.counts,
                         yield_surface_util::demoOptions().evalSamples,
                         chipPerImage);
    addCounts(out, "yield-sweep", chipPerImage);

    // util: fork-join overhead of the shared pool on trivial tasks.
    const auto pool = util::ShardedExecutorPool::shared()->shard(0);
    std::atomic<std::size_t> hits{0};
    for (const std::size_t n : {1, 16, 256}) {
        const double ns = medianCallNs("util.parallel_for", 50, 2000, [&] {
            pool->parallelFor(n, [&](std::size_t i) {
                hits.fetch_add(i, std::memory_order_relaxed);
            });
        });
        out.add("util.parallel_for_us.n" + std::to_string(n), ns / 1e3, "us");
    }
}

} // namespace perfbench
