/**
 * @file
 * Accelerator-level energy / performance model for the AQFP randomized BNN
 * accelerator (paper Sections 5.4, 6.2, 6.6; Tables 2 and 3; Fig. 12).
 *
 * The model composes:
 *  - the per-crossbar Table-1 cost model (JJ count, per-cycle energy),
 *  - the crossbar tiling of each BNN layer (fan-in rows x fan-out columns
 *    split into Cs x Cs tiles),
 *  - the SC accumulation module (APCs + accumulator + comparator) that
 *    merges row tiles,
 *  - buffer-chain memory for activations,
 *  - the L-cycle observation window of the stochastic-number conversion,
 *  - adiabatic frequency scaling (energy/JJ/cycle proportional to f), and
 *  - the 400x cryocooler overhead for 4.2 K operation.
 *
 * Dataflow assumption: row tiles of one column group evaluate in parallel
 * (their outputs are SC-accumulated); column groups are serialized. This
 * makes time/image = sum over layers of positions * colTiles * L cycles
 * while energy counts every active crossbar-cycle.
 */

#ifndef SUPERBNN_AQFP_ENERGY_H
#define SUPERBNN_AQFP_ENERGY_H

#include <cstddef>
#include <string>
#include <vector>

#include "aqfp/cell_library.h"
#include "aqfp/crossbar_hw.h"
#include "aqfp/ledger.h"

namespace superbnn::aqfp {

/** One binary layer of a workload, reduced to its matmul geometry. */
struct LayerSpec
{
    std::string name;
    std::size_t fanIn = 0;      ///< rows of the weight matrix (C*k*k)
    std::size_t fanOut = 0;     ///< columns (output channels / units)
    std::size_t positions = 1;  ///< output spatial positions per image

    /**
     * Multiply-accumulates per image for this layer. Throws
     * std::overflow_error when fanIn * fanOut * positions does not fit
     * a std::size_t (a silently wrapped MAC count would corrupt every
     * derived TOPS/W figure).
     */
    std::size_t macs() const;

    /**
     * Binary ops per image: 2 * macs() (the paper's convention),
     * guarded by the same overflow check.
     */
    std::size_t ops() const;

    /**
     * Validate the geometry: fanIn, fanOut and positions must all be
     * nonzero (a zero field describes no computable layer and would
     * silently zero out energy and ops). Throws std::invalid_argument.
     */
    void validate() const;

    /** Helper: convolution layer geometry. */
    static LayerSpec conv(std::string name, std::size_t in_ch,
                          std::size_t out_ch, std::size_t kernel,
                          std::size_t out_h, std::size_t out_w);

    /** Helper: fully connected layer geometry. */
    static LayerSpec fc(std::string name, std::size_t in_features,
                        std::size_t out_features);
};

/** A whole network as seen by the hardware model. */
struct WorkloadSpec
{
    std::string name;
    std::vector<LayerSpec> layers;

    /** Total MACs per image (overflow-checked like LayerSpec::macs). */
    std::size_t totalMacs() const;
    /** Total binary ops per image (2 ops per MAC, the paper's convention). */
    std::size_t totalOps() const;
    /** Total weight bits (for memory sizing). */
    std::size_t totalWeightBits() const;

    /**
     * Widest intermediate activation in bits (max of fanOut * positions
     * over the layers) — sizes the buffer-chain activation memory in
     * both the analytic and the ledger-priced model.
     */
    std::size_t maxActivationBits() const;

    /**
     * Validate every layer (see LayerSpec::validate) and require at
     * least one layer. Throws std::invalid_argument.
     */
    void validate() const;
};

/** Hardware configuration knobs co-optimized by the framework. */
struct AcceleratorConfig
{
    std::size_t crossbarSize = 16;   ///< Cs
    std::size_t bitstreamLength = 32;///< SC observation window L
    double frequencyGhz = 5.0;       ///< AQFP clock rate
    double deltaIinUa = 2.4;         ///< comparator gray-zone width
};

/**
 * Energy/performance numbers for one (workload, config) pair — or for
 * one layer: per-layer reports (EnergyModel::evaluateLayer,
 * EnergyModel::priceLedger) carry the layer's share of energy, cycles
 * and JJs, with totalJj covering the layer's crossbars and SC modules
 * only; the workload-level report adds the shared activation buffer
 * memory once.
 */
struct EnergyReport
{
    std::size_t opsPerImage = 0;
    double crossbarEnergyAj = 0.0;   ///< crossbar array energy per image
    double scModuleEnergyAj = 0.0;   ///< SC accumulation module per image
    double memoryEnergyAj = 0.0;     ///< activation/weight BCM per image
    double totalEnergyAj = 0.0;      ///< total energy per image (aJ)
    double cyclesPerImage = 0.0;     ///< serialized compute cycles
    double latencyUs = 0.0;          ///< time per image (microseconds)
    double throughputImagesPerMs = 0.0;
    double powerW = 0.0;             ///< average device power (W)
    double topsPerWatt = 0.0;        ///< energy efficiency w/o cooling
    double topsPerWattCooled = 0.0;  ///< including cryocooler overhead
    std::size_t totalJj = 0;         ///< JJ count of the full accelerator
    std::size_t crossbarCount = 0;   ///< resident crossbar tiles
};

/**
 * The accelerator energy/performance estimator.
 */
/**
 * Context for pricing observed ledger counts (EnergyModel::priceLedger):
 * everything the Table-1 cost model needs that the raw counts do not
 * carry — the accelerator configuration, the tiling the accumulation
 * modules were built for, and the normalization of counts to one image.
 */
struct LedgerPricingContext
{
    AcceleratorConfig config;
    std::size_t rowTiles = 1;  ///< APC fan-in (sizes the SC module)
    std::size_t colTiles = 1;  ///< column groups (resident SC modules)
    std::size_t opsPerImage = 0; ///< workload-defined ops (not observed)
    /// Counts are multiplied by this before normalization — the replay
    /// factor when one executor pass stands for `positions` identical
    /// spatial evaluations (1 when every position was really executed).
    double countScale = 1.0;
    double images = 1.0;       ///< images the (scaled) counts cover
    /// Workload-wide activation-buffer size in bits (the analytic
    /// model's memory term uses the widest layer; pass the same value
    /// here so the two models price identical hardware).
    std::size_t maxActBits = 1;
};

/**
 * Relative differences of a ledger-priced report against the analytic
 * prediction, component by component: (measured - analytic) / analytic
 * (0 when both are zero, +/-inf when only the analytic side is).
 */
struct EnergyDelta
{
    double crossbarEnergyRel = 0.0;
    double scModuleEnergyRel = 0.0;
    double memoryEnergyRel = 0.0;
    double totalEnergyRel = 0.0;
    double latencyRel = 0.0;
};

/** Component-wise reconciliation of measured vs analytic reports. */
EnergyDelta reconcile(const EnergyReport &measured,
                      const EnergyReport &analytic);

class EnergyModel
{
  public:
    explicit EnergyModel(CrossbarHardwareModel hw = CrossbarHardwareModel());

    /**
     * Evaluate a workload under a hardware configuration (validates the
     * workload; the sum of evaluateLayer over the layers plus the
     * shared activation buffer).
     */
    EnergyReport evaluate(const WorkloadSpec &workload,
                          const AcceleratorConfig &config) const;

    /**
     * Analytic per-layer report. @p max_act_bits sizes the shared
     * buffer-chain activation memory whose per-cycle slice the layer's
     * serialized cycles are charged for (use
     * WorkloadSpec::maxActivationBits of the enclosing workload).
     * totalJj covers this layer's crossbars and SC modules only.
     */
    EnergyReport evaluateLayer(const LayerSpec &layer,
                               const AcceleratorConfig &config,
                               std::size_t max_act_bits) const;

    /**
     * Ledger-priced per-layer report: the forwardCounts of one
     * single-position sample of @p layer at (Cs, L), priced through
     * layerReplayContext (counts scaled by layer.positions). The
     * measured counterpart of evaluateLayer with identical arguments.
     */
    EnergyReport measureLayer(const LayerSpec &layer,
                              const AcceleratorConfig &config,
                              std::size_t max_act_bits) const;

    /**
     * measureLayer over every layer folded through combineLayerReports:
     * the measured counterpart of evaluate(), sharing its buffer sizing
     * and derived-metric arithmetic (validates the workload).
     */
    EnergyReport measureWorkload(const WorkloadSpec &workload,
                                 const AcceleratorConfig &config) const;

    /**
     * Price activity counts recorded by a HardwareLedger with the same
     * Table-1 cell costs, frequency scaling and cooling overhead the
     * analytic path uses — the "measure, don't model" counterpart of
     * evaluateLayer. Counts are scaled by ctx.countScale and normalized
     * by ctx.images; see tests/test_energy_ledger.cc for the
     * reconciliation contract (exact agreement on the crossbar, memory
     * and latency terms; the SC term counts only real columns where the
     * analytic model charges whole Cs-wide groups).
     *
     * @throws std::invalid_argument when ctx.images or ctx.countScale
     *         is not positive (per-image normalization is undefined)
     */
    EnergyReport priceLedger(const LedgerCounts &counts,
                             const LedgerPricingContext &ctx) const;

    /**
     * Fill a report's derived metrics (total energy, latency,
     * throughput, power, TOPS/W, cooled TOPS/W) from its component
     * energies, cyclesPerImage and opsPerImage. Callers composing
     * reports (e.g. summing per-layer measurements into a workload
     * row) use this so the arithmetic exists in exactly one place.
     */
    void finalizeReport(EnergyReport &rep,
                        const AcceleratorConfig &config) const;

    /**
     * Sum per-layer reports (analytic or ledger-priced) into a
     * workload-level report: component energies, cycles, crossbars and
     * JJs add, derived metrics are recomputed, and the shared
     * activation buffer's JJs are counted once. evaluate() and
     * measureWorkload() fold evaluateLayer() and measureLayer() through
     * it, so the two sides of the reconciliation can never drift.
     */
    EnergyReport
    combineLayerReports(const std::vector<EnergyReport> &layers,
                        const AcceleratorConfig &config,
                        std::size_t ops_per_image,
                        std::size_t max_act_bits) const;

    /**
     * JJ count of the SC accumulation module for one column group:
     * an approximate parallel counter over @p row_tiles inputs, an
     * accumulator register sized for row_tiles * L counts, and the final
     * comparator (Fig. 6b).
     */
    std::size_t scModuleJj(std::size_t row_tiles,
                           std::size_t bitstream_len) const;

    /**
     * Cryocooler overhead for superconducting digital circuits at 4.2 K
     * (paper Section 6.6, citing Holmes et al.): cooling power is about
     * 400x the device dissipation.
     */
    static constexpr double kCoolingFactor = 400.0;

    /**
     * Fraction of the activation buffer memory switching per compute
     * cycle (only the accessed column-group slice is clocked).
     */
    static constexpr double kMemoryActiveFraction = 0.02;

    const CrossbarHardwareModel &hardware() const { return hw; }

  private:
    CrossbarHardwareModel hw;
};

/**
 * Pricing context for the counts of one single-position sample of
 * @p spec under @p config: the tiling is derived from the geometry and
 * counts are scaled by spec.positions (one position stands for all of
 * them — ledger counts are value-independent). EnergyModel::measureLayer
 * and the energy_probe bench price through it.
 */
LedgerPricingContext layerReplayContext(const LayerSpec &spec,
                                        const AcceleratorConfig &config,
                                        std::size_t max_act_bits);

/**
 * Deterministic single-line JSON of a report (fixed key order, %.17g
 * doubles so values round-trip exactly) — the serialization behind the
 * bench artifacts and the golden-file regression test.
 */
std::string toJson(const EnergyReport &rep);

/** Reference BNN workloads used in the paper's evaluation. */
namespace workloads {

/** VGG-small for 32x32 RGB inputs (CIFAR-10 scale), Table 2 rows. */
WorkloadSpec vggSmall();

/** ResNet-18-style workload for 32x32 inputs (Table 2 last row). */
WorkloadSpec resnet18();

/** The JBNN MLP used for the MNIST comparison (Table 3). */
WorkloadSpec mnistMlp();

} // namespace workloads

} // namespace superbnn::aqfp

#endif // SUPERBNN_AQFP_ENERGY_H
