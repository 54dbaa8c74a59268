/**
 * @file
 * Per-layer heterogeneous hardware operating points.
 *
 * The paper's Section 5.4 co-optimization picks ONE (Cs, deltaIin, L)
 * point for the whole network, and until PR 9 the stack hard-coded
 * that assumption in a single global HardwareConfig. The ledger (PR 5)
 * shows the assumption leaves energy on the table: partial tail column
 * groups make the measured SC term scale with each layer's
 * fanOut / (colTiles * Cs) ratio, so the energy-optimal Cs/L genuinely
 * differs per layer. A HardwarePlan therefore carries one
 * LayerHardwareConfig per mapped network cell (hidden layers in order,
 * classifier head last) plus the execution knobs every layer shares,
 * and the whole evaluation stack (mapper, executor windows, ledger
 * pricing, scenario sweep, explorer) resolves against it.
 *
 * Uniform-plan adapter contract: HardwarePlan(HardwareConfig) is a
 * single-entry broadcast plan, and every code path driven by it is
 * bit-identical to the legacy single-config path — scores, ledger
 * counts and energy reports included. Heterogeneous plans obey the
 * same determinism contract as everything else: results are
 * bit-identical across thread counts, SIMD arms, batch splits and
 * warm/cold model caches.
 */

#ifndef SUPERBNN_CORE_HARDWARE_PLAN_H
#define SUPERBNN_CORE_HARDWARE_PLAN_H

#include <cstddef>
#include <vector>

namespace superbnn::core {

/**
 * Hardware simulation configuration (the legacy one-global-point API,
 * still the way every uniform call site spells an operating point).
 *
 * Remains an aggregate on purpose — call sites brace-initialize it
 * positionally — so validation is a member the consuming constructors
 * (HardwareEvaluator, HardwarePlan, ScenarioSweep) invoke rather than
 * a user-declared constructor.
 */
struct HardwareConfig
{
    std::size_t crossbarSize = 16;   ///< Cs
    std::size_t window = 16;         ///< SC bitstream length L
    double deltaIinUa = 2.4;         ///< neuron gray-zone width
    bool exactApc = false;           ///< ablation: exact parallel counter
    double dropFraction = 0.25;      ///< APC approximation level
    /// Executor concurrency, fixed when the executors are built:
    /// 0 (default) = shard 0 of util::ShardedExecutorPool::shared()
    /// (sized from SUPERBNN_THREADS / hardware threads when that pool
    /// is first created), 1 = sequential, N > 1 = a private N-thread
    /// pool (see crossbar::TileExecutor).
    std::size_t threads = 0;
    /// Samples evaluated per batched executor pass in evaluate().
    std::size_t evalBatch = 8;

    /**
     * Reject configurations that would be downstream UB instead of a
     * simulation: crossbarSize == 0, window == 0, evalBatch == 0, a
     * non-finite / non-positive deltaIinUa, or a dropFraction that is
     * not a finite value in [0, 1].
     * @throws std::invalid_argument naming the offending field
     */
    void validate() const;
};

/**
 * The operating point of ONE mapped layer of a HardwarePlan: the three
 * co-optimized knobs that may differ per layer. Everything else
 * (APC mode, drop fraction, threading, eval batching) is execution
 * machinery shared by the whole plan.
 */
struct LayerHardwareConfig
{
    std::size_t crossbarSize = 16; ///< Cs of this layer's tiles
    std::size_t window = 16;       ///< SC bitstream length L of this layer
    double deltaIinUa = 2.4;       ///< this layer's neuron gray-zone width

    /**
     * Same rejection rules as HardwareConfig::validate for the three
     * per-layer fields.
     * @throws std::invalid_argument naming the offending field
     */
    void validate() const;
};

bool operator==(const LayerHardwareConfig &a, const LayerHardwareConfig &b);
bool operator!=(const LayerHardwareConfig &a, const LayerHardwareConfig &b);

/**
 * A resolved per-layer hardware plan: one LayerHardwareConfig per
 * network cell (hidden layers in network order, classifier head last)
 * plus the shared execution knobs.
 *
 * A single-entry plan is a BROADCAST: it applies its one point to every
 * cell of whatever model is mapped (the uniform adapter for the legacy
 * HardwareConfig API). A multi-entry plan must match the mapped
 * model's cell count exactly — resolve() throws otherwise, naming both
 * counts.
 *
 * Construction validates every entry and the shared knobs (satellite
 * contract: malformed plans throw std::invalid_argument naming the
 * field instead of reaching downstream UB). Members stay public for
 * ergonomic tweaking after construction; revalidation happens at the
 * consuming constructor (HardwareEvaluator / ScenarioSweep).
 */
struct HardwarePlan
{
    /// Per-cell operating points; size 1 = broadcast to every cell.
    std::vector<LayerHardwareConfig> layers;
    bool exactApc = false;      ///< shared: exact parallel counter
    double dropFraction = 0.25; ///< shared: APC approximation level
    /// Shared executor concurrency (same convention as HardwareConfig).
    std::size_t threads = 0;
    /// Shared samples per batched executor pass in evaluate().
    std::size_t evalBatch = 8;

    /** The uniform default plan (HardwareConfig{} broadcast). */
    HardwarePlan();

    /**
     * Uniform-plan adapter: broadcast @p config's operating point to
     * every layer and take its execution knobs.
     * @throws std::invalid_argument via HardwareConfig::validate
     */
    explicit HardwarePlan(const HardwareConfig &config);

    /**
     * Heterogeneous plan: one entry per network cell (hidden layers in
     * order, head last). @p shared contributes ONLY the execution
     * knobs (exactApc, dropFraction, threads, evalBatch); its
     * crossbarSize/window/deltaIinUa are ignored in favor of the
     * per-layer entries.
     * @throws std::invalid_argument on an empty entry list, an invalid
     *         entry, or invalid shared knobs (field-naming message)
     */
    explicit HardwarePlan(std::vector<LayerHardwareConfig> layer_points,
                          const HardwareConfig &shared = HardwareConfig{});

    /** True for a single-entry broadcast plan. */
    bool uniform() const { return layers.size() == 1; }

    /**
     * Re-run construction validation (for plans mutated after
     * construction). @throws std::invalid_argument naming the field
     */
    void validate() const;

    /**
     * The per-cell operating points for a model of @p cell_count cells
     * (mapped hidden layers + head): a broadcast copy for a uniform
     * plan, the entries themselves when the counts match.
     * @throws std::invalid_argument when a multi-entry plan's size does
     *         not equal @p cell_count (message carries both counts)
     */
    std::vector<LayerHardwareConfig> resolve(std::size_t cell_count) const;

    /**
     * Legacy single-config view: entry 0's operating point plus the
     * shared knobs. Exact for a uniform plan; for a heterogeneous plan
     * it is only a representative (the first layer's point) — callers
     * needing per-layer truth must use layers/resolve().
     */
    HardwareConfig representative() const;
};

bool operator==(const HardwarePlan &a, const HardwarePlan &b);
bool operator!=(const HardwarePlan &a, const HardwarePlan &b);

} // namespace superbnn::core

#endif // SUPERBNN_CORE_HARDWARE_PLAN_H
