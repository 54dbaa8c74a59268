#include "crossbar/tile_executor.h"

#include <algorithm>
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
    if (window == 0)
        throw std::invalid_argument(
            "TileExecutor: window must be >= 1 (the SC bitstream must "
            "span at least one cycle)");
    if (!(drop_fraction >= 0.0 && drop_fraction <= 1.0))
        throw std::invalid_argument(
            "TileExecutor: dropFraction must be a finite value in "
            "[0, 1] (got " + std::to_string(drop_fraction) + ")");
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

/**
 * Checked in every build: a short sample would be read past its end,
 * and an activation outside {-1, 0, +1} would scale its row's current
 * and index past the executor's threshold memo.
 */
void
requireFanIn(const MappedLayer &layer,
             const std::vector<std::vector<int>> &batch)
{
    for (std::size_t b = 0; b < batch.size(); ++b) {
        if (batch[b].size() != layer.fanIn)
            throw std::invalid_argument(
                "TileExecutor: sample " + std::to_string(b) + " has "
                + std::to_string(batch[b].size())
                + " activations, the layer's fan-in is "
                + std::to_string(layer.fanIn));
        for (std::size_t i = 0; i < batch[b].size(); ++i)
            if (batch[b][i] < -1 || batch[b][i] > 1)
                throw std::invalid_argument(
                    "TileExecutor: sample " + std::to_string(b)
                    + " activation " + std::to_string(i) + " is "
                    + std::to_string(batch[b][i])
                    + " (must be -1, 0 or +1)");
    }
}

/// Upper bound on a task's stream buffer (words): one block of samples'
/// streams for the task's column group stays within L1.
constexpr std::size_t kBlockWords = 4096;

/// Memo tag of a (column, sum) pair whose threshold is not computed
/// yet; thresholdFor never returns it (see sc::detail::kOnesThreshold).
constexpr std::uint64_t kUnset = sc::detail::kOnesThreshold - 1;

/**
 * Samples per task. A pool gets about four tasks per thread across the
 * column groups, so a layer with one column group and thousands of
 * patches (conv1) still spreads over every thread; a sequential
 * executor runs one task per column group. Row tiles are never split
 * across tasks, so a batch with fewer samples x column groups than
 * threads leaves threads idle (BENCH_16.json "threads" has the
 * single-request check).
 */
std::size_t
chunkSize(std::size_t samples, std::size_t col_tiles, std::size_t threads)
{
    if (threads <= 1)
        return samples;
    const std::size_t chunks = std::clamp<std::size_t>(
        (4 * threads + col_tiles - 1) / col_tiles, 1, samples);
    return (samples + chunks - 1) / chunks;
}

} // namespace

void
TileExecutor::forwardFused(
    const MappedLayer &layer, const std::vector<std::vector<int>> &batch,
    const std::vector<std::uint64_t> &roots,
    const sc::AccumulationModule &accum, aqfp::HardwareLedger *ledger,
    const std::function<void(std::size_t, std::size_t,
                             const std::vector<sc::StreamView> &)> &emit)
    const
{
    const std::size_t samples = batch.size();
    const std::size_t rowTiles = layer.rowTiles;
    const std::size_t cs = layer.cs;
    const std::size_t words = sc::detail::wordsForLength(window_);
    const std::size_t span = 2 * cs + 1; // column sums lie in [-cs, cs]
    const std::size_t chunk = chunkSize(samples, layer.colTiles, threads());
    const std::size_t chunks = (samples + chunk - 1) / chunk;
    runParallel(chunks * layer.colTiles, [&](std::size_t task) {
        const std::size_t ct = task % layer.colTiles;
        const std::size_t first = (task / layer.colTiles) * chunk;
        const std::size_t last = std::min(samples, first + chunk);
        const std::size_t c0 = ct * cs;
        // Only the columns an APC reads are filled; a partial last
        // column group leaves the rest of its tiles' columns unread.
        const std::size_t cols = std::min(cs, layer.fanOut - c0);
        // Streams of one block of samples, [sample][column][rowTile],
        // so each merge reads its row tiles' words contiguously.
        const std::size_t perSample = cols * rowTiles * words;
        const std::size_t block =
            std::min(last - first, std::max<std::size_t>(
                                       1, kBlockWords / perSample));
        std::vector<std::uint64_t> streams(block * perSample);
        std::vector<int> sums(cs);
        // Thresholds of the current row tile by (column, sum + cs),
        // filled on first use; `touched` lists the filled slots so the
        // next row tile resets only those. Conv patches repeat a pair
        // ~90% of the time, MLP layers 35-40%, one-sample blocks never
        // (BENCH_16.json "memo").
        std::vector<std::uint64_t> memo(cols * span, kUnset);
        std::vector<std::size_t> touched;
        touched.reserve(std::min(memo.size(), block * cols));
        std::vector<sc::StreamView> column(rowTiles);
        for (std::size_t b0 = first; b0 < last; b0 += block) {
            const std::size_t b1 = std::min(last, b0 + block);
            for (std::size_t rt = 0; rt < rowTiles; ++rt) {
                const CrossbarArray &tile = layer.tile(rt, ct);
                const std::size_t r0 = rt * cs;
                for (const std::size_t slot : touched)
                    memo[slot] = kUnset;
                touched.clear();
                for (std::size_t b = b0; b < b1; ++b) {
                    std::fill(sums.begin(), sums.end(), 0);
                    tile.addColumnSums(sums.data(), batch[b].data() + r0,
                                       std::min(cs, layer.fanIn - r0));
                    const std::uint64_t seed = tileSeed(roots[b], rt, ct);
                    std::uint64_t *dst =
                        streams.data() + (b - b0) * perSample + rt * words;
                    for (std::size_t c = 0; c < cols; ++c) {
                        const std::size_t slot =
                            c * span + static_cast<std::size_t>(
                                sums[c] + static_cast<int>(cs));
                        if (memo[slot] == kUnset) {
                            memo[slot] = sc::detail::thresholdFor(
                                tile.neuron(c).probOne(
                                    static_cast<double>(sums[c])
                                    * tile.unitCurrentUa()));
                            touched.push_back(slot);
                        }
                        // Column c's window sits at counter c * L of
                        // the tile stream, as in observeBatchSeeded.
                        sc::detail::thresholdFill(
                            dst + c * rowTiles * words, window_,
                            memo[slot], seed, c * window_);
                    }
                }
            }
            for (std::size_t b = b0; b < b1; ++b)
                for (std::size_t c = 0; c < cols; ++c) {
                    const std::uint64_t *src = streams.data()
                        + (b - b0) * perSample + c * rowTiles * words;
                    for (std::size_t rt = 0; rt < rowTiles; ++rt)
                        column[rt] =
                            sc::StreamView{src + rt * words, window_};
                    emit(b, c0 + c, column);
                }
        }
    });
    if (!ledger)
        return;
    // Activity is value-independent, so it is recorded after the
    // barrier in closed form. The hardware observes every column of a
    // tile for the window (Cs * L draws per sample), even the columns
    // no APC reads and the host therefore skips.
    const std::uint64_t n = samples;
    const aqfp::TileCounts perTile{n, n * window_, n * cs * window_};
    ledger->beginForward(rowTiles, layer.colTiles, samples);
    for (std::size_t rt = 0; rt < rowTiles; ++rt)
        for (std::size_t ct = 0; ct < layer.colTiles; ++ct)
            ledger->recordTile(rt, ct, perTile);
    // Only real columns are merged (a partial tail group merges fewer
    // than Cs), and every (sample, column group) still serializes for
    // one full window of cycles.
    const std::uint64_t merges = n * layer.fanOut;
    ledger->recordMerge(merges, merges * accum.mergeInputBits(),
                        n * layer.colTiles * window_);
    ledger->recordBuffer(n * layer.fanIn, merges);
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

    const sc::AccumulationModule accum(layer.rowTiles, window_, useExact,
                                       dropFraction);
    forwardFused(layer, batch, roots, accum, ledger,
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

    const sc::AccumulationModule accum(layer.rowTiles, window_, useExact,
                                       dropFraction);
    forwardFused(layer, batch, roots, accum, ledger,
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
