/**
 * @file
 * Hardware-in-the-loop evaluation: runs a trained SupeRBNN model on the
 * crossbar + stochastic-computing simulator (paper Fig. 7: weights
 * pre-stored per crossbar, BN matched into neuron thresholds, SC-based
 * accumulation between crossbars, binary activations between layers).
 *
 * This is the measurement path behind Figures 10 and 11 and the accuracy
 * columns of Tables 2 and 3.
 */

#ifndef SUPERBNN_CORE_HARDWARE_EVAL_H
#define SUPERBNN_CORE_HARDWARE_EVAL_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "aqfp/energy.h"
#include "aqfp/ledger.h"
#include "core/bn_matching.h"
#include "core/hardware_plan.h"
#include "core/models.h"
#include "crossbar/mapper.h"
#include "crossbar/model_cache.h"
#include "crossbar/tile_executor.h"
#include "data/dataset.h"

namespace superbnn::core {

/**
 * Seed of the stuck-cell fault mask of tile (rt, ct) of mapped layer
 * @p layer (head = number of hidden layers) on chip @p chip_index of a
 * Monte-Carlo population rooted at @p master_seed. A pure SplitMix64
 * chain of its arguments — independent of draw order, thread count, or
 * which corner the chip is evaluated at — so the same chip index
 * carries the same physical fault pattern everywhere it appears.
 */
std::uint64_t faultMaskSeed(std::uint64_t master_seed,
                            std::uint64_t chip_index, std::size_t layer,
                            std::size_t rt, std::size_t ct);

// HardwareConfig (the legacy single-point configuration) and the
// per-layer HardwarePlan live in core/hardware_plan.h, included above
// so every historical `#include "core/hardware_eval.h"` site still
// sees HardwareConfig.

/**
 * Ledger-priced, reconciled energy accounting for one mapped layer:
 * the raw activity observed while the simulator ran, that activity
 * priced per image with the Table-1 cost model, the analytic
 * prediction for the same geometry, and their component-wise relative
 * differences.
 */
struct LayerEnergyReport
{
    std::string name;
    aqfp::LedgerCounts counts;   ///< observed totals since mapping/reset
    aqfp::EnergyReport measured; ///< ledger-priced, per image
    aqfp::EnergyReport analytic; ///< analytic model, same geometry
    aqfp::EnergyDelta delta;     ///< reconcile(measured, analytic)
    /// False when imagesObserved() was 0: there was nothing to
    /// normalize per image, so `measured` and `delta` are zeroed
    /// placeholders (NOT a measurement of zero energy) while `counts`
    /// and `analytic` are still real.
    bool measuredValid = false;
};

/**
 * Maps a trained model onto simulated AQFP hardware and evaluates it.
 *
 * Every forward pass is instrumented: each evaluation call adds the
 * hardware activity of every mapped layer (and the head),
 * aqfp::forwardCounts of the layer's executor pass, and its image count
 * to the evaluator's per-layer counts, so accuracy evaluation doubles
 * as energy measurement — see energyReports().
 *
 * Concurrency: evaluation calls on the SAME evaluator may run
 * concurrently (the sharded InferenceService runs one sub-batch per
 * NUMA shard). Each call merges its counts under one lock, taken once
 * per call, and totalLedgerCounts(), imagesObserved() and
 * energyReports() read under that lock, so every reader sees whole
 * calls only. A caller that needs its own call's activity takes it from
 * classScoresSeeded's `counts` out-parameter rather than from a
 * difference of totals. Mutating calls (mapMlp/mapCnn,
 * injectVariationSeeded) are never safe to race with evaluation. Where
 * tile loops run is fixed by the plan's `threads` when mapMlp/mapCnn
 * builds the executors (see util/sharded_executor_pool.h).
 */
class HardwareEvaluator
{
  public:
    /**
     * Uniform-plan evaluator: every layer runs at @p config's
     * operating point (the legacy API, bit-identical to the plan
     * constructor with HardwarePlan(config)).
     * @throws std::invalid_argument via HardwareConfig::validate
     */
    HardwareEvaluator(aqfp::AttenuationModel atten, HardwareConfig config);

    /**
     * Per-layer plan evaluator: each mapped cell i (hidden layers in
     * network order, head last) is mapped at plan entry i's (Cs,
     * deltaIin) and executed at its window L_i, with ledger draw
     * accounting following suit (Cs_i * L_i raw draws per tile
     * observation). A uniform (single-entry) plan broadcasts; a
     * multi-entry plan must match the mapped model's cell count
     * (mapMlp/mapCnn throw via HardwarePlan::resolve otherwise).
     * @throws std::invalid_argument via HardwarePlan::validate
     */
    HardwareEvaluator(aqfp::AttenuationModel atten, HardwarePlan plan);

    /** Map a trained MLP (reads weights, folds BN into thresholds). */
    void mapMlp(const RandomizedMlp &model);

    /**
     * mapMlp through a ProgrammedModelCache: each layer's pristine
     * thresholded MappedLayer is built at most once per @p tag (a
     * caller-chosen name identifying the trained weights) and shared
     * via the cache's named section; this evaluator installs a private
     * copy it may then mutate (fault injection). The cache key encodes
     * tag, layer, Cs, and the deltaIin/attenuation-fit bit patterns,
     * so one cache can serve every corner of a sweep; a cache-backed
     * map is bit-identical to a direct mapMlp(model) (warm or cold).
     * A null @p cache degrades to the direct path.
     */
    void mapMlp(const RandomizedMlp &model,
                crossbar::ProgrammedModelCache *cache,
                const std::string &tag);

    /** Map a trained CNN. */
    void mapCnn(const RandomizedCnn &model);

    /**
     * Class scores of one sample: the head crossbar's decoded APC counts
     * scaled by the head's alpha (a small digital post-multiply).
     *
     * Every evaluation entry point (classScores*, predict*, evaluate)
     * checks its input in every build:
     * @throws std::logic_error when no model is mapped
     * @throws std::invalid_argument when a sample's element count is
     *         not inputSize()
     *
     * @param sample  (1, D) or (1, C, H, W) float input
     */
    std::vector<double> classScores(const Tensor &sample, Rng &rng) const;

    /**
     * Batched class scores: the mapped tiles are walked once per layer
     * for the whole batch, and tile observations of all samples run as
     * one parallel phase on the executor's thread pool.
     *
     * Each underlying executor call is bit-exact w.r.t. its own
     * single-sample path, but a multi-layer batched evaluation
     * consumes the Rng's root draws layer-major (layer 1 for all
     * samples, then layer 2, ...) while per-sample classScores calls
     * consume them sample-major — so for networks with more than one
     * layer the sampled noise is differently (though identically
     * distributed) assigned and scores are not bitwise equal to N
     * single calls. Results ARE bit-identical across thread counts for
     * a fixed batching; only the batch split reassigns noise.
     */
    std::vector<std::vector<double>>
    classScores(const std::vector<Tensor> &samples, Rng &rng) const;

    /**
     * Request-pinned batched class scores: sample i draws all of its
     * noise from its own Rng stream seeded with @p seeds[i], one
     * stream per request, instead of sharing one Rng across the batch.
     *
     * Contract (the serving layer's determinism guarantee, see
     * docs/SERVING.md): entry i is bit-identical to
     * `classScores(samples[i], Rng(seeds[i]))` — for ANY batch
     * composition, batch size, thread count, and SIMD arm. This is
     * what the shared-Rng batched overload cannot give (it assigns
     * root draws layer-major across the batch); here each request's
     * draw sequence is pinned to its seed, so coalescing requests into
     * executor megabatches never changes any response.
     *
     * Mixed model kinds are supported (MLP and CNN evaluators both
     * route through it). Adds to the same per-layer counts as every
     * other evaluation entry point.
     *
     * @param counts  optional out-parameter: receives exactly this
     *                call's activity, summed over every mapped layer
     *                and the head (what the call added to
     *                totalLedgerCounts(), whatever else runs
     *                concurrently)
     * @throws std::invalid_argument when seeds.size() != samples.size()
     */
    std::vector<std::vector<double>>
    classScoresSeeded(const std::vector<Tensor> &samples,
                      const std::vector<std::uint64_t> &seeds,
                      aqfp::LedgerCounts *counts = nullptr) const;

    /** Argmax of classScores. */
    std::size_t predict(const Tensor &sample, Rng &rng) const;

    /** Batched argmax of classScores. */
    std::vector<std::size_t>
    predict(const std::vector<Tensor> &samples, Rng &rng) const;

    /**
     * Argmax of classScoresSeeded (same per-request determinism
     * contract): entry i equals `predict(samples[i], Rng(seeds[i]))`
     * bit-exactly regardless of batch composition or thread count.
     * @throws std::invalid_argument when seeds.size() != samples.size()
     */
    std::vector<std::size_t>
    predictSeeded(const std::vector<Tensor> &samples,
                  const std::vector<std::uint64_t> &seeds) const;

    /**
     * Accuracy over (a subset of) a dataset, evaluated in batches of
     * HardwareConfig::evalBatch samples so programmed tiles are reused
     * across the batch.
     * @param max_samples cap (0 = all)
     */
    double evaluate(const data::Dataset &dataset, std::size_t max_samples,
                    Rng &rng) const;

    /**
     * Elements per sample the mapped model takes (D for an MLP,
     * C * H * W for a CNN); 0 before mapMlp/mapCnn.
     */
    std::size_t inputSize() const;

    /** Total crossbar tiles across all mapped layers. */
    std::size_t totalCrossbars() const;

    /**
     * Per-layer energy/latency reports priced from the activity
     * observed since mapping (or the last resetLedgers()),
     * normalized per image, plus the analytic prediction for each
     * layer's geometry and the reconciliation delta. The mapped layers
     * come first (in network order), the classifier head last.
     *
     * When no samples have been evaluated since mapping / the last
     * resetLedgers(), there is nothing to normalize per image: the
     * reports come back with real counts (all zero) and analytic
     * predictions but zeroed measured/delta components and
     * LayerEnergyReport::measuredValid == false, instead of dividing
     * by an image count of zero.
     *
     * @param frequency_ghz  AQFP clock rate the counts are priced at
     * @throws std::logic_error when no model is mapped
     */
    std::vector<LayerEnergyReport>
    energyReports(double frequency_ghz = 5.0) const;

    /** Images evaluated since mapping / the last resetLedgers(). */
    std::uint64_t imagesObserved() const;

    /** Zero every layer's counts and the image counter. */
    void resetLedgers();

    /**
     * Robustness experiments and Monte-Carlo yield sweeps: apply
     * fabrication gray-zone variation and/or stuck-cell faults to
     * every mapped tile (including the head). Every tile's stuck-cell
     * mask is seeded per
     * faultMaskSeed(master_seed, chip_index, layer, rt, ct) through
     * the counter-stream path (crossbar::CrossbarArray::
     * injectStuckCellsSeeded), and each tile's gray-zone variation
     * draws from its own Rng derived from the same seed — so the
     * injected chip instance is a pure function of
     * (mapped model, master_seed, chip_index), byte-identical at any
     * thread count and independent of every other chip. Returns the
     * number of stuck cells injected.
     *
     * @throws std::invalid_argument when @p gray_zone_sigma is negative
     *         or non-finite, or @p stuck_cell_fraction is non-finite or
     *         outside [0, 1]; nothing is mutated then
     */
    std::size_t injectVariationSeeded(double gray_zone_sigma,
                                      double stuck_cell_fraction,
                                      std::uint64_t master_seed,
                                      std::uint64_t chip_index);

    /**
     * Sum of every layer's counts (mapped layers + head): the
     * whole-chip observed activity since mapping / the last
     * resetLedgers(). Deterministic integers — the yield sweep's
     * per-chip attribution.
     */
    aqfp::LedgerCounts totalLedgerCounts() const;

    /**
     * Legacy single-config view (HardwarePlan::representative of the
     * active plan): exact for uniform plans, first-entry representative
     * for heterogeneous ones.
     */
    const HardwareConfig &config() const { return cfg; }

  private:
    /** A hidden layer and its input map (1 x 1 x fanIn for fc layers). */
    struct MappedCell
    {
        crossbar::MappedLayer layer;
        std::vector<bool> flip;
        std::size_t inChannels = 0;
        std::size_t inSide = 1;
        bool pooled = false;
        /// Conv only: the source offset of every (position, patch row)
        /// in the input map, -1 for padding (see crossbar::InputView).
        std::vector<std::int32_t> patches;
    };

    enum class Kind { None, Mlp, Cnn };

    aqfp::AttenuationModel atten;
    HardwarePlan plan_;
    HardwareConfig cfg; ///< plan_.representative(), the legacy view
    /// plan_ resolved against the mapped model (one entry per cell,
    /// head last); filled by mapMlp/mapCnn.
    std::vector<LayerHardwareConfig> resolved_;
    /// One TileExecutor per DISTINCT window among resolved_ (a uniform
    /// plan builds exactly one, with the same arguments as the legacy
    /// path); execIndex_[i] is cell i's executor.
    std::vector<crossbar::TileExecutor> executors_;
    std::vector<std::size_t> execIndex_;
    Kind kind = Kind::None;
    std::vector<MappedCell> mapped;
    crossbar::MappedLayer headMapped;
    std::vector<float> headAlpha;
    /// Guards counts_ and images_. Mutable: observation during const
    /// evaluation is bookkeeping, not model state.
    mutable std::mutex countsMutex_;
    /// Observed activity per mapped layer plus the head (last).
    mutable std::vector<aqfp::LedgerCounts> counts_;
    mutable std::uint64_t images_ = 0;
    /**
     * Resolve plan_ against @p cell_count cells and (re)build the
     * per-distinct-window executors + cell->executor index.
     * @throws std::invalid_argument via HardwarePlan::resolve
     */
    void resolvePlan(std::size_t cell_count);
    /** The executor running mapped cell @p i (head = mapped.size()). */
    const crossbar::TileExecutor &executorFor(std::size_t i) const
    {
        return executors_[execIndex_[i]];
    }
    /** LayerSpec mirroring mapped layer @p i (head = mapped.size()). */
    aqfp::LayerSpec layerSpec(std::size_t i) const;

    /**
     * Where an executor pass's per-sample root draws come from: a
     * shared Rng assigns them layer-major across the whole batch (the
     * historical batched contract), while per-request engines pin each
     * sample's draw sequence to its own request seed (the serving
     * contract behind classScoresSeeded: batched == singleton
     * bit-exactly). Defined in the .cc.
     */
    struct RootSource;

    /**
     * The +/-1 executor inputs of @p samples, flat [samples][inputSize],
     * after the checks every evaluation entry point documents
     * (@p caller names it in the error): the evaluation path's only scan.
     */
    std::vector<int> binarizeInputs(const std::vector<Tensor> &samples,
                                    const char *caller) const;
    /**
     * Run one evaluation call of @p samples flat @p inputs through every
     * mapped layer and the head, then add each layer's forwardCounts
     * and the image count to counts_/images_ under the lock; the call's
     * summed activity goes to @p counts when non-null.
     */
    std::vector<std::vector<double>>
    runBatch(std::vector<int> inputs, std::size_t samples,
             RootSource &roots, aqfp::LedgerCounts *counts) const;
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_HARDWARE_EVAL_H
