/**
 * @file
 * Execution of a mapped BNN layer over its crossbar tiles with the
 * SC-based accumulation module (paper Fig. 6b, Fig. 7).
 *
 * For each output column group, every row tile observes its column
 * neurons for L cycles (producing stochastic-number bitstreams); the
 * AccumulationModule APC-sums the per-cycle bits across row tiles and a
 * comparator yields the binary activation driving the next layer.
 *
 * Execution is threaded, batched and fused, the way the accumulation
 * module consumes a column group's streams as the row tiles produce
 * them. One parallel task covers a contiguous chunk of samples for one
 * column group: for each row tile it computes the tile's column sums
 * straight from the samples (gathering a conv layer's patches from the
 * activation map itself, see InputView), fills only the columns an APC
 * reads into a task-local word buffer, and then merges every (sample,
 * column) across the row tiles while those words are still in cache,
 * writing the outputs into the caller's buffer. Tasks run on a
 * util::ThreadPool — by default shard 0 of the process-wide
 * util::ShardedExecutorPool, so any number of executors reuse one set
 * of worker threads — about four per pool thread. Determinism does not
 * depend on the thread count or the chunking: every (sample, tile)
 * draws from its own counter-based RNG stream
 * (sc::detail::CounterStream) whose 8-byte seed mixes one root draw
 * per sample (taken from the caller's Rng in sample order) with the
 * tile coordinates, and column c's window sits at counter c * L of
 * that stream, exactly as in CrossbarArray::observeBatchSeeded.
 * Consequences:
 *
 *  - any thread count, pool sharing arrangement, and SIMD dispatch arm
 *    produces bit-identical outputs, and
 *  - a batched forward of N samples is bit-identical to N consecutive
 *    single-sample forwards from the same starting Rng state (each
 *    single forward consumes exactly one root draw).
 *
 * Forward passes can additionally add their hardware activity (tile
 * cycles, Bernoulli draws, APC merges, serialization steps, buffer
 * traffic: aqfp::forwardCounts of the pass) to an aqfp::HardwareLedger,
 * which aqfp::energy prices with the Table-1 cost model — the
 * instrumented counterpart of the analytic energy estimator.
 */

#ifndef SUPERBNN_CROSSBAR_TILE_EXECUTOR_H
#define SUPERBNN_CROSSBAR_TILE_EXECUTOR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "aqfp/ledger.h"
#include "crossbar/mapper.h"
#include "sc/accumulation.h"
#include "util/thread_pool.h"

namespace superbnn::crossbar {

/**
 * A non-owning view of one executor input: `rows` samples of
 * layer.fanIn activations in {-1, 0, +1}. Without a patch map, sample s
 * is the row at data + s * stride. With one, data holds
 * rows / positions images of `stride` elements each, and sample
 * s = image * positions + pos is the receptive field at position pos:
 * its activation i is image[patches[pos * fanIn + i]], or 0 (a padding
 * row, driven with no current) where that offset is -1.
 */
struct InputView
{
    const int *data = nullptr;
    std::size_t rows = 0;
    std::size_t stride = 0;
    const std::int32_t *patches = nullptr; ///< positions x fanIn offsets
    std::size_t positions = 1;
};

/** Executes MappedLayers on the simulated hardware. */
class TileExecutor
{
  public:
    /**
     * @param window         SC observation window length L
     * @param use_exact_apc  ablation: exact instead of approximate APC
     * @param drop_fraction  APC approximation aggressiveness
     * @param threads        executor concurrency, resolved here once
     *                       and fixed for the executor's lifetime:
     *                       0 (default) = shard 0 of
     *                       util::ShardedExecutorPool::shared() (which
     *                       reads SUPERBNN_THREADS when first created),
     *                       rerouted to the bound shard on a thread
     *                       holding a util::ShardBinding; 1 =
     *                       sequential; N > 1 = a private pool of N
     *                       threads. Outputs are bit-identical across
     *                       all settings.
     * @throws std::invalid_argument when @p window is 0 or
     *         @p drop_fraction is not a finite value in [0, 1]
     */
    explicit TileExecutor(std::size_t window, bool use_exact_apc = false,
                          double drop_fraction = 0.25,
                          std::size_t threads = 0);

    /**
     * One stochastic forward pass of @p layer (thresholds installed)
     * over in.rows samples: the pass every other overload adapts.
     * Sample s (image s / in.positions, position pos = s % in.positions)
     * writes its +/-1 output of column col, negated where (*flip)[col],
     * to out[image * fanOut * positions + col * positions + pos], a conv
     * layer's output map, channel-major per image (out[s * fanOut + col]
     * for direct rows). Tasks gather their patches themselves, read
     * direct rows in place and write disjoint outputs.
     *
     * Sample s's outputs depend ONLY on (layer, its input, roots[s]),
     * never on which other samples share the call: the request-level
     * determinism hook the inference service batches through (see
     * docs/SERVING.md).
     *
     * Nothing is scanned: the caller guarantees in's extent, values in
     * {-1, 0, +1}, a fanOut-long flip mask and room for every output
     * (HardwareEvaluator checks its inputs once, at its boundary;
     * executor outputs are +/-1 by construction).
     *
     * @param roots   one raw 64-bit root draw per sample
     * @param flip    optional per-column sign flips
     * @param ledger  optional hardware-activity ledger: when non-null the
     *                pass adds aqfp::forwardCounts(fanIn, fanOut, Cs, L,
     *                in.rows) to it
     * @throws std::invalid_argument when roots.size() != in.rows
     */
    void forward(const MappedLayer &layer, const InputView &in,
                 const std::vector<std::uint64_t> &roots, int *out,
                 const std::vector<bool> *flip,
                 aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * forward's multi-bit twin, used for the classifier head: instead of
     * the final comparator, the APC count register is read out and
     * decoded to the accumulated bipolar value (minus the installed
     * thresholds), written at the same index without flips. Still fully
     * stochastic — it runs on the same observed bitstreams.
     * @throws std::invalid_argument as forward
     */
    void forwardDecoded(const MappedLayer &layer, const InputView &in,
                        const std::vector<std::uint64_t> &roots,
                        double *out,
                        aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * Adapters over the two passes above for vectors of +/-1 samples,
     * each of length layer.fanIn, returning one output vector (length
     * layer.fanOut) per sample, without flips. They take outside data,
     * so they check it in every build. The Seeded overloads take one
     * root per sample as the passes do; the Rng overloads draw them as
     * `rng.raw()()` in sample order.
     *
     * @throws std::invalid_argument when roots.size() != batch.size(), a
     *         sample's length is not layer.fanIn, or an activation is not
     *         -1, 0 or +1 (the message names the sample, index and value)
     */
    std::vector<std::vector<int>>
    forwardSeeded(const MappedLayer &layer,
                  const std::vector<std::vector<int>> &batch,
                  const std::vector<std::uint64_t> &roots,
                  aqfp::HardwareLedger *ledger = nullptr) const;
    std::vector<std::vector<double>>
    forwardDecodedSeeded(const MappedLayer &layer,
                         const std::vector<std::vector<int>> &batch,
                         const std::vector<std::uint64_t> &roots,
                         aqfp::HardwareLedger *ledger = nullptr) const;
    std::vector<std::vector<int>>
    forward(const MappedLayer &layer,
            const std::vector<std::vector<int>> &batch, Rng &rng,
            aqfp::HardwareLedger *ledger = nullptr) const;
    std::vector<std::vector<double>>
    forwardDecoded(const MappedLayer &layer,
                   const std::vector<std::vector<int>> &batch, Rng &rng,
                   aqfp::HardwareLedger *ledger = nullptr) const;
    std::vector<int> forward(const MappedLayer &layer,
                             const std::vector<int> &activations,
                             Rng &rng,
                             aqfp::HardwareLedger *ledger = nullptr) const;
    std::vector<double>
    forwardDecoded(const MappedLayer &layer,
                   const std::vector<int> &activations, Rng &rng,
                   aqfp::HardwareLedger *ledger = nullptr) const;

    /**
     * Latent pre-binarization sums: sum_i a_i * w_ij - vth_j, the ideal
     * (noise-free) value each output's comparison is centred on. Used by
     * tests to verify the stochastic path converges to the ideal one.
     * @throws std::invalid_argument when activations.size() != fanIn
     */
    std::vector<double>
    latentSums(const MappedLayer &layer,
               const std::vector<int> &activations) const;

    /**
     * Exact probability that each output fires +1 in single-shot mode
     * (window 1, one row tile): its column neuron's Eq.-1 probability.
     * @throws std::invalid_argument when the layer has more than one row
     *         tile or activations.size() != fanIn
     */
    std::vector<double>
    singleTileProbabilities(const MappedLayer &layer,
                            const std::vector<int> &activations) const;

    /** Effective concurrency (1 when running sequentially). */
    std::size_t threads() const;

  private:
    const std::size_t window_;
    const bool useExact;
    const double dropFraction;
    /// The pool resolved at construction — shard 0 of the shared pool
    /// (threads = 0), a private pool (threads = N), or null
    /// (threads = 1, sequential). Sharing is safe: a parallelFor
    /// issued while another executor's loop is in flight runs inline
    /// rather than racing or blocking (see ThreadPool::parallelFor).
    const std::shared_ptr<util::ThreadPool> pool;
    /// threads = 0: a live util::ShardBinding on the calling thread
    /// reroutes runParallel to the bound shard, keeping nested work
    /// node-local. Private pools are never rerouted.
    const bool sharedPool;

    /** parallelFor through the pool, or a plain loop without one. */
    void runParallel(std::size_t n,
                     const std::function<void(std::size_t)> &task) const;

    /**
     * The fused pass behind forward and forwardDecoded: one task per
     * (sample chunk, column group) gathers its samples' patches (when
     * @p in has a patch map), observes the group's row tiles and merges
     * each (sample, column) across them; @p emit(accum, col, at, count)
     * consumes each column's APC window count, `at` being its output
     * index. Thresholds are memoized by (column, column sum) across the
     * row tiles and sample blocks whose column neurons and unit current
     * match, so each distinct pair pays one erf. The pass's
     * aqfp::forwardCounts are added to @p ledger after the barrier
     * (they do not depend on values).
     */
    template <typename Emit>
    void forwardFused(const MappedLayer &layer, const InputView &in,
                      const std::vector<std::uint64_t> &roots,
                      aqfp::HardwareLedger *ledger,
                      const Emit &emit) const;
};

} // namespace superbnn::crossbar

#endif // SUPERBNN_CROSSBAR_TILE_EXECUTOR_H
