#include "crossbar/tile_executor.h"

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/sharded_executor_pool.h"

namespace superbnn::crossbar {

namespace {

/** SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Seed of the RNG stream that tile (rt, ct) uses for one sample. Mixing
 * the per-sample root with the tile coordinates decorrelates the
 * streams and — because the seed depends only on (root, rt, ct), never
 * on execution order — makes the forward pass independent of the
 * thread count.
 */
inline std::uint64_t
tileSeed(std::uint64_t root, std::size_t rt, std::size_t ct)
{
    return splitmix64(
        root
        ^ splitmix64((static_cast<std::uint64_t>(rt) << 32)
                     ^ (static_cast<std::uint64_t>(ct) + 1)));
}

/**
 * The pool a `threads` setting resolves to: shard 0 of the shared pool
 * (whose size was fixed from SUPERBNN_THREADS when it was first
 * created — see util::ShardedExecutorPool::shared), none for
 * sequential, or a private pool of an explicit size (thread-count
 * sweeps, tests pinning concurrency).
 */
std::shared_ptr<util::ThreadPool>
resolvePool(std::size_t threads)
{
    if (threads == 0)
        return util::ShardedExecutorPool::shared()->shard(0);
    if (threads == 1)
        return nullptr;
    return std::make_shared<util::ThreadPool>(threads);
}

} // namespace

TileExecutor::TileExecutor(std::size_t window, bool use_exact_apc,
                           double drop_fraction, std::size_t threads)
    : window_(window), useExact(use_exact_apc), dropFraction(drop_fraction),
      pool(resolvePool(threads)), sharedPool(threads == 0)
{
    assert(window >= 1);
}

std::size_t
TileExecutor::threads() const
{
    return pool ? pool->threadCount() : 1;
}

void
TileExecutor::runParallel(
    std::size_t n, const std::function<void(std::size_t)> &task) const
{
    // A shared-pool executor called from a shard-bound thread (an
    // InferenceService sub-batch, a parallelForSharded task) runs on
    // that shard's pool so nested loops stay node-local. Results are
    // identical either way — only locality changes.
    if (sharedPool) {
        const std::shared_ptr<util::ThreadPool> &bound =
            util::ShardBinding::currentPool();
        if (bound) {
            bound->parallelFor(n, task);
            return;
        }
    }
    if (pool) {
        pool->parallelFor(n, task);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
    }
}

namespace {

/**
 * The root draws the Rng-based overloads consume: one raw draw per
 * sample, in sample order, before any parallel work — so RNG
 * consumption is identical to N consecutive single forwards.
 */
std::vector<std::uint64_t>
drawRoots(Rng &rng, std::size_t samples)
{
    std::vector<std::uint64_t> roots(samples);
    for (auto &r : roots)
        r = rng.raw()();
    return roots;
}

void
requireMatchingRoots(std::size_t samples, std::size_t roots)
{
    if (samples != roots)
        throw std::invalid_argument(
            "TileExecutor: per-sample root count ("
            + std::to_string(roots) + ") must match the batch size ("
            + std::to_string(samples) + ")");
}

/** Checked in every build: a short sample would be read past its end. */
void
requireFanIn(const MappedLayer &layer,
             const std::vector<std::vector<int>> &batch)
{
    for (std::size_t b = 0; b < batch.size(); ++b)
        if (batch[b].size() != layer.fanIn)
            throw std::invalid_argument(
                "TileExecutor: sample " + std::to_string(b) + " has "
                + std::to_string(batch[b].size())
                + " activations, the layer's fan-in is "
                + std::to_string(layer.fanIn));
}

} // namespace

void
TileExecutor::observeTiles(
    const MappedLayer &layer, const std::vector<std::vector<int>> &batch,
    const std::vector<std::uint64_t> &roots,
    std::vector<std::vector<sc::BitstreamBatch>> &observed,
    aqfp::HardwareLedger *ledger) const
{
    const std::size_t samples = batch.size();
    const std::size_t tiles = layer.rowTiles * layer.colTiles;
    observed.assign(tiles, {});
    // Each task fills only its own tile's slot; the calling thread
    // records them after the barrier, so no task touches the ledger.
    std::vector<aqfp::TileCounts> counts(ledger ? tiles : 0);
    runParallel(tiles, [&](std::size_t t) {
        const std::size_t rt = t / layer.colTiles;
        const std::size_t ct = t % layer.colTiles;
        const std::size_t r0 = rt * layer.cs;
        const std::size_t rows = std::min(layer.cs, layer.fanIn - r0);
        std::vector<std::vector<int>> slices(samples);
        std::vector<std::uint64_t> seeds(samples);
        for (std::size_t b = 0; b < samples; ++b) {
            slices[b].assign(batch[b].begin() + r0,
                             batch[b].begin() + r0 + rows);
            seeds[b] = tileSeed(roots[b], rt, ct);
        }
        observed[t] = layer.tile(rt, ct).observeBatchSeeded(
            slices, window_, seeds, ledger ? &counts[t] : nullptr);
    });
    if (!ledger)
        return;
    ledger->beginForward(layer.rowTiles, layer.colTiles, samples);
    for (std::size_t t = 0; t < tiles; ++t)
        ledger->recordTile(t / layer.colTiles, t % layer.colTiles,
                           counts[t]);
}

void
TileExecutor::mergeColumns(
    const MappedLayer &layer, std::size_t samples,
    const std::vector<std::vector<sc::BitstreamBatch>> &observed,
    const sc::AccumulationModule &accum, aqfp::HardwareLedger *ledger,
    const std::function<void(std::size_t, std::size_t,
                             const std::vector<sc::StreamView> &)> &emit)
    const
{
    // One task per (sample, column group); each writes a disjoint
    // slice of the output through emit.
    runParallel(samples * layer.colTiles, [&](std::size_t t) {
        const std::size_t b = t / layer.colTiles;
        const std::size_t ct = t % layer.colTiles;
        const std::size_t c0 = ct * layer.cs;
        const std::size_t cols = std::min(layer.cs, layer.fanOut - c0);
        std::vector<sc::StreamView> column(layer.rowTiles);
        for (std::size_t c = 0; c < cols; ++c) {
            for (std::size_t rt = 0; rt < layer.rowTiles; ++rt)
                column[rt] =
                    observed[rt * layer.colTiles + ct][c].view(b);
            emit(b, c0 + c, column);
        }
    });
    if (!ledger)
        return;
    // Merge activity is value-independent, so it is recorded once in
    // closed form: only real columns are merged (a partial tail group
    // merges fewer than Cs), and every (sample, column group) still
    // serializes for one full window of cycles.
    const std::uint64_t merges =
        static_cast<std::uint64_t>(samples) * layer.fanOut;
    ledger->recordMerge(merges, merges * accum.mergeInputBits(),
                        static_cast<std::uint64_t>(samples)
                            * layer.colTiles * window_);
    ledger->recordBuffer(static_cast<std::uint64_t>(samples) * layer.fanIn,
                         merges);
}

std::vector<std::vector<int>>
TileExecutor::forwardSeeded(const MappedLayer &layer,
                            const std::vector<std::vector<int>> &batch,
                            const std::vector<std::uint64_t> &roots,
                            aqfp::HardwareLedger *ledger) const
{
    requireFanIn(layer, batch);
    requireMatchingRoots(batch.size(), roots.size());
    const std::size_t samples = batch.size();
    std::vector<std::vector<int>> out(
        samples, std::vector<int>(layer.fanOut, -1));
    if (samples == 0)
        return out;

    std::vector<std::vector<sc::BitstreamBatch>> observed;
    observeTiles(layer, batch, roots, observed, ledger); // barrier inside

    const sc::AccumulationModule accum(layer.rowTiles, window_, useExact,
                                       dropFraction);
    mergeColumns(layer, samples, observed, accum, ledger,
                 [&](std::size_t b, std::size_t col,
                     const std::vector<sc::StreamView> &column) {
                     out[b][col] = accum.accumulate(column);
                 });
    return out;
}

std::vector<std::vector<int>>
TileExecutor::forward(const MappedLayer &layer,
                      const std::vector<std::vector<int>> &batch,
                      Rng &rng, aqfp::HardwareLedger *ledger) const
{
    return forwardSeeded(layer, batch, drawRoots(rng, batch.size()),
                         ledger);
}

std::vector<int>
TileExecutor::forward(const MappedLayer &layer,
                      const std::vector<int> &activations, Rng &rng,
                      aqfp::HardwareLedger *ledger) const
{
    auto batched = forward(
        layer, std::vector<std::vector<int>>{activations}, rng, ledger);
    return std::move(batched[0]);
}

std::vector<std::vector<double>>
TileExecutor::forwardDecodedSeeded(
    const MappedLayer &layer,
    const std::vector<std::vector<int>> &batch,
    const std::vector<std::uint64_t> &roots,
    aqfp::HardwareLedger *ledger) const
{
    requireFanIn(layer, batch);
    requireMatchingRoots(batch.size(), roots.size());
    const std::size_t samples = batch.size();
    std::vector<std::vector<double>> out(
        samples, std::vector<double>(layer.fanOut, 0.0));
    if (samples == 0)
        return out;

    std::vector<std::vector<sc::BitstreamBatch>> observed;
    observeTiles(layer, batch, roots, observed, ledger);

    const sc::AccumulationModule accum(layer.rowTiles, window_, useExact,
                                       dropFraction);
    mergeColumns(layer, samples, observed, accum, ledger,
                 [&](std::size_t b, std::size_t col,
                     const std::vector<sc::StreamView> &column) {
                     out[b][col] = accum.decodedSum(column);
                 });
    return out;
}

std::vector<std::vector<double>>
TileExecutor::forwardDecoded(const MappedLayer &layer,
                             const std::vector<std::vector<int>> &batch,
                             Rng &rng, aqfp::HardwareLedger *ledger) const
{
    return forwardDecodedSeeded(layer, batch,
                                drawRoots(rng, batch.size()), ledger);
}

std::vector<double>
TileExecutor::forwardDecoded(const MappedLayer &layer,
                             const std::vector<int> &activations,
                             Rng &rng, aqfp::HardwareLedger *ledger) const
{
    auto batched = forwardDecoded(
        layer, std::vector<std::vector<int>>{activations}, rng, ledger);
    return std::move(batched[0]);
}

std::vector<double>
TileExecutor::latentSums(const MappedLayer &layer,
                         const std::vector<int> &activations) const
{
    assert(activations.size() == layer.fanIn);
    std::vector<double> out(layer.fanOut, 0.0);
    for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
        const std::size_t c0 = ct * layer.cs;
        const std::size_t cols = std::min(layer.cs, layer.fanOut - c0);
        for (std::size_t rt = 0; rt < layer.rowTiles; ++rt) {
            const std::size_t r0 = rt * layer.cs;
            const std::size_t rows = std::min(layer.cs, layer.fanIn - r0);
            std::vector<int> slice(activations.begin() + r0,
                                   activations.begin() + r0 + rows);
            const std::vector<int> sums =
                layer.tile(rt, ct).columnSums(slice);
            for (std::size_t c = 0; c < cols; ++c)
                out[c0 + c] += sums[c];
        }
    }
    for (std::size_t o = 0; o < layer.fanOut; ++o)
        out[o] -= layer.thresholds[o];
    return out;
}

std::vector<double>
TileExecutor::singleTileProbabilities(
    const MappedLayer &layer, const std::vector<int> &activations) const
{
    assert(layer.rowTiles == 1);
    assert(activations.size() == layer.fanIn);
    std::vector<double> out(layer.fanOut, 0.0);
    for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
        const std::size_t c0 = ct * layer.cs;
        const std::size_t cols = std::min(layer.cs, layer.fanOut - c0);
        const auto probs = layer.tile(0, ct).columnProbabilities(
            activations);
        for (std::size_t c = 0; c < cols; ++c)
            out[c0 + c] = probs[c];
    }
    return out;
}

} // namespace superbnn::crossbar
