#include "crossbar/tile_executor.h"

#include <algorithm>
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

/** Checked in every build: a short vector would be read past its end. */
void
requireActivations(const MappedLayer &layer, std::size_t count,
                   const char *caller)
{
    if (count != layer.fanIn)
        throw std::invalid_argument(
            std::string("TileExecutor::") + caller + ": "
            + std::to_string(count) + " activations, the layer's fan-in is "
            + std::to_string(layer.fanIn));
}

/** A vector overload over a flat pass: rows packed in, rows out. */
template <typename T, typename Pass>
std::vector<std::vector<T>>
adapt(const MappedLayer &layer, const std::vector<std::vector<int>> &batch,
      const Pass &pass)
{
    requireFanIn(layer, batch);
    std::vector<int> flat(batch.size() * layer.fanIn);
    for (std::size_t b = 0; b < batch.size(); ++b)
        std::copy(batch[b].begin(), batch[b].end(),
                  flat.begin() + b * layer.fanIn);
    std::vector<T> out(batch.size() * layer.fanOut);
    pass(InputView{flat.data(), batch.size(), layer.fanIn}, out.data());
    std::vector<std::vector<T>> rows;
    rows.reserve(batch.size());
    for (auto at = out.begin(); at != out.end(); at += layer.fanOut)
        rows.emplace_back(at, at + layer.fanOut);
    return rows;
}

/// Upper bound on a task's stream buffer (words): one block of samples'
/// streams for the task's column group stays within L1.
constexpr std::size_t kBlockWords = 4096;

/// Memo tag of a (column, sum) pair whose threshold is not computed
/// yet; thresholdFor never returns it (see sc::detail::kOnesThreshold).
constexpr std::uint64_t kUnset = sc::detail::kOnesThreshold - 1;

/// Whether columns [0, cols) of tiles a and b have the same threshold at
/// every sum: thresholdFor(probOne(sum * unit)) reads nothing else.
bool
sameThresholds(const CrossbarArray &a, const CrossbarArray &b,
               std::size_t cols)
{
    if (a.unitCurrentUa() != b.unitCurrentUa())
        return false;
    for (std::size_t c = 0; c < cols; ++c)
        if (!(a.neuron(c) == b.neuron(c)))
            return false;
    return true;
}

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

template <typename Emit>
void
TileExecutor::forwardFused(const MappedLayer &layer, const InputView &in,
                           const std::vector<std::uint64_t> &roots,
                           aqfp::HardwareLedger *ledger,
                           const Emit &emit) const
{
    requireMatchingRoots(in.rows, roots.size());
    if (in.rows == 0)
        return;
    const sc::AccumulationModule accum(layer.rowTiles, window_, useExact,
                                       dropFraction);
    const std::size_t samples = in.rows;
    const std::size_t rowTiles = layer.rowTiles;
    const std::size_t cs = layer.cs;
    const std::size_t fanIn = layer.fanIn;
    const std::size_t words = sc::detail::wordsForLength(window_);
    const std::size_t span = 2 * cs + 1; // column sums lie in [-cs, cs]
    const std::size_t chunk = chunkSize(samples, layer.colTiles, threads());
    const std::size_t chunks = (samples + chunk - 1) / chunk;
    const auto task = [&](std::size_t task) {
        const std::size_t ct = task % layer.colTiles;
        const std::size_t first = (task / layer.colTiles) * chunk;
        const std::size_t last = std::min(samples, first + chunk);
        const std::size_t c0 = ct * cs;
        // Only the columns an APC reads are filled; a partial last
        // column group leaves the rest of its tiles' columns unread.
        const std::size_t cols = std::min(cs, layer.fanOut - c0);
        const std::size_t perSample = cols * rowTiles * words;
        const std::size_t block =
            std::min(last - first, std::max<std::size_t>(
                                       1, kBlockWords / perSample));
        // One word buffer holds the streams of one block of samples,
        // [sample][column][rowTile] so each merge counts its row tiles'
        // words as one contiguous run; then the thresholds by
        // (column, sum + cs), filled on first use. The memo is kept
        // across row tiles and sample blocks while the tile's column
        // neurons and unit current equal those it was filled from
        // (setThresholds gives every row tile of a column the same
        // neuron), and reset when they differ (gray-zone variation).
        const std::size_t memoSize = cols * span;
        std::vector<std::uint64_t> scratch(block * perSample + memoSize);
        std::uint64_t *const streams = scratch.data();
        std::uint64_t *const memo = streams + block * perSample;
        const CrossbarArray *memoTile = nullptr;
        std::vector<int> sums(cs);
        // The block's gathered patches; direct rows are read in place.
        std::vector<int> gathered(in.patches ? block * fanIn : 0);
        for (std::size_t b0 = first; b0 < last; b0 += block) {
            const std::size_t b1 = std::min(last, b0 + block);
            for (std::size_t b = b0; in.patches && b < b1; ++b) {
                const std::size_t image = b / in.positions;
                const int *src = in.data + image * in.stride;
                const std::int32_t *offsets =
                    in.patches + (b - image * in.positions) * fanIn;
                int *row = gathered.data() + (b - b0) * fanIn;
                for (std::size_t i = 0; i < fanIn; ++i)
                    row[i] = offsets[i] < 0 ? 0 : src[offsets[i]];
            }
            for (std::size_t rt = 0; rt < rowTiles; ++rt) {
                const CrossbarArray &tile = layer.tile(rt, ct);
                const std::size_t r0 = rt * cs;
                if (!memoTile || !sameThresholds(*memoTile, tile, cols))
                    std::fill(memo, memo + memoSize, kUnset);
                memoTile = &tile;
                for (std::size_t b = b0; b < b1; ++b) {
                    const int *row = in.patches
                        ? gathered.data() + (b - b0) * fanIn
                        : in.data + b * in.stride;
                    std::fill(sums.begin(), sums.end(), 0);
                    tile.addColumnSums(sums.data(), row + r0,
                                       std::min(cs, fanIn - r0));
                    const std::uint64_t seed = tileSeed(roots[b], rt, ct);
                    std::uint64_t *dst =
                        streams + (b - b0) * perSample + rt * words;
                    for (std::size_t c = 0; c < cols; ++c) {
                        const std::size_t slot =
                            c * span + static_cast<std::size_t>(
                                sums[c] + static_cast<int>(cs));
                        if (memo[slot] == kUnset)
                            memo[slot] = sc::detail::thresholdFor(
                                tile.neuron(c).probOne(
                                    static_cast<double>(sums[c])
                                    * tile.unitCurrentUa()));
                        // Column c's window sits at counter c * L of
                        // the tile stream, as in observeBatchSeeded.
                        sc::detail::thresholdFill(
                            dst + c * rowTiles * words, window_,
                            memo[slot], seed, c * window_);
                    }
                }
            }
            for (std::size_t b = b0; b < b1; ++b) {
                const std::size_t image = b / in.positions;
                const std::size_t at = image * layer.fanOut * in.positions
                    + (b - image * in.positions);
                const std::uint64_t *src = streams + (b - b0) * perSample;
                for (std::size_t c = 0; c < cols; ++c, src += rowTiles * words)
                    emit(accum, c0 + c, at + (c0 + c) * in.positions,
                         accum.rawCount(src));
            }
        }
    };
    // A one-reference capture fits std::function's local storage, so
    // dispatching allocates nothing.
    runParallel(chunks * layer.colTiles,
                [&task](std::size_t t) { task(t); });
    // Activity is value-independent, so it is recorded after the
    // barrier in closed form.
    if (ledger)
        ledger->add(aqfp::forwardCounts(fanIn, layer.fanOut, cs, window_,
                                        samples));
}

void
TileExecutor::forward(const MappedLayer &layer, const InputView &in,
                      const std::vector<std::uint64_t> &roots, int *out,
                      const std::vector<bool> *flip,
                      aqfp::HardwareLedger *ledger) const
{
    forwardFused(layer, in, roots, ledger,
                 [&](const sc::AccumulationModule &accum, std::size_t col,
                     std::size_t at, std::size_t count) {
                     const int v = accum.decideFromCount(count);
                     out[at] = flip && (*flip)[col] ? -v : v;
                 });
}

void
TileExecutor::forwardDecoded(const MappedLayer &layer, const InputView &in,
                             const std::vector<std::uint64_t> &roots,
                             double *out,
                             aqfp::HardwareLedger *ledger) const
{
    forwardFused(layer, in, roots, ledger,
                 [&](const sc::AccumulationModule &accum, std::size_t,
                     std::size_t at, std::size_t count) {
                     out[at] = accum.decodeFromCount(count);
                 });
}

std::vector<std::vector<int>>
TileExecutor::forwardSeeded(const MappedLayer &layer,
                            const std::vector<std::vector<int>> &batch,
                            const std::vector<std::uint64_t> &roots,
                            aqfp::HardwareLedger *ledger) const
{
    return adapt<int>(layer, batch, [&](const InputView &in, int *out) {
        forward(layer, in, roots, out, nullptr, ledger);
    });
}

std::vector<std::vector<double>>
TileExecutor::forwardDecodedSeeded(
    const MappedLayer &layer, const std::vector<std::vector<int>> &batch,
    const std::vector<std::uint64_t> &roots,
    aqfp::HardwareLedger *ledger) const
{
    return adapt<double>(layer, batch,
                         [&](const InputView &in, double *out) {
                             forwardDecoded(layer, in, roots, out, ledger);
                         });
}

std::vector<std::vector<int>>
TileExecutor::forward(const MappedLayer &layer,
                      const std::vector<std::vector<int>> &batch,
                      Rng &rng, aqfp::HardwareLedger *ledger) const
{
    return forwardSeeded(layer, batch, drawRoots(rng, batch.size()),
                         ledger);
}

std::vector<std::vector<double>>
TileExecutor::forwardDecoded(const MappedLayer &layer,
                             const std::vector<std::vector<int>> &batch,
                             Rng &rng, aqfp::HardwareLedger *ledger) const
{
    return forwardDecodedSeeded(layer, batch,
                                drawRoots(rng, batch.size()), ledger);
}

std::vector<int>
TileExecutor::forward(const MappedLayer &layer,
                      const std::vector<int> &activations, Rng &rng,
                      aqfp::HardwareLedger *ledger) const
{
    return std::move(forward(
        layer, std::vector<std::vector<int>>{activations}, rng, ledger)[0]);
}

std::vector<double>
TileExecutor::forwardDecoded(const MappedLayer &layer,
                             const std::vector<int> &activations,
                             Rng &rng, aqfp::HardwareLedger *ledger) const
{
    return std::move(forwardDecoded(
        layer, std::vector<std::vector<int>>{activations}, rng, ledger)[0]);
}

std::vector<double>
TileExecutor::latentSums(const MappedLayer &layer,
                         const std::vector<int> &activations) const
{
    requireActivations(layer, activations.size(), "latentSums");
    std::vector<double> out(layer.fanOut, 0.0);
    std::vector<int> sums(layer.cs);
    for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
        const std::size_t c0 = ct * layer.cs;
        std::fill(sums.begin(), sums.end(), 0);
        for (std::size_t rt = 0; rt < layer.rowTiles; ++rt)
            layer.tile(rt, ct).addColumnSums(
                sums.data(), activations.data() + rt * layer.cs,
                std::min(layer.cs, layer.fanIn - rt * layer.cs));
        for (std::size_t c = 0; c < std::min(layer.cs, layer.fanOut - c0); ++c)
            out[c0 + c] = sums[c] - layer.thresholds[c0 + c];
    }
    return out;
}

std::vector<double>
TileExecutor::singleTileProbabilities(
    const MappedLayer &layer, const std::vector<int> &activations) const
{
    if (layer.rowTiles != 1)
        throw std::invalid_argument(
            "TileExecutor::singleTileProbabilities: the layer has "
            + std::to_string(layer.rowTiles)
            + " row tiles, exactly 1 is required");
    requireActivations(layer, activations.size(),
                       "singleTileProbabilities");
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
