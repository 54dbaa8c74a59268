/**
 * @file
 * Algorithm/hardware co-optimization of the accelerator configuration
 * (paper Section 5.4): crossbar size Cs, gray-zone width deltaIin and SC
 * bitstream length L are chosen by (1) constraining Cs/L to the range
 * meeting the energy-efficiency demand via the energy model, then (2)
 * minimizing the average mismatch error (or maximizing a measured
 * accuracy callback) inside the feasible set.
 *
 * CoOptimizer is the paper-shaped facade; the general machinery —
 * pluggable cost functions (including ledger-measured energy), parallel
 * candidate evaluation, Pareto-front extraction and the mapped-model
 * cache — lives in core/explorer.h, which this facade drives.
 */

#ifndef SUPERBNN_CORE_COOPTIMIZER_H
#define SUPERBNN_CORE_COOPTIMIZER_H

#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "aqfp/energy.h"
#include "core/ame.h"

namespace superbnn::core {

/**
 * The co-optimization search space and constraints.
 *
 * Axis values are enumerated exactly as given (outer-to-inner loop
 * order: crossbarSizes, bitstreamLengths, grayZones), so candidate
 * ordering — and therefore every ranking tie-break — is deterministic.
 */
struct CoOptSpace
{
    std::vector<std::size_t> crossbarSizes = {8, 16, 18, 36, 72};
    std::vector<double> grayZones = {0.8, 1.6, 2.4, 3.2, 4.0};
    std::vector<std::size_t> bitstreamLengths = {1, 2, 4, 8, 16, 32};
    double frequencyGhz = 5.0;
    /// Feasibility constraint: device efficiency must be at least this.
    double minTopsPerWatt = 0.0;
    /// Optional cap on total JJ budget (0 = unlimited).
    std::size_t maxTotalJj = 0;

    /**
     * Validate the space, mirroring WorkloadSpec::validate(): every
     * axis must be non-empty with no duplicate values, crossbar sizes
     * and bitstream lengths must be >= 1, gray zones must be positive
     * and finite, the frequency must be positive and finite, and
     * minTopsPerWatt must be non-negative. Throws std::invalid_argument
     * with a message naming the offending field.
     */
    void validate() const;
};

/** One evaluated candidate. */
struct CoOptCandidate
{
    aqfp::AcceleratorConfig config;
    /// Analytic energy prediction (always computed: feasibility filters
    /// on it before any expensive evaluation runs).
    aqfp::EnergyReport energy;
    double ame = 0.0;
    std::optional<double> accuracy; ///< set when a callback was used
    /// Ledger-measured energy report (set when the explorer ran with
    /// ExploreOptions::measure — see aqfp::EnergyModel::measureWorkload).
    std::optional<aqfp::EnergyReport> measured;
    /// Value of the cost function a ranking was produced under (filled
    /// by DesignSpaceExplorer::ranked/best; 0 until then).
    double cost = 0.0;
};

/** Callback measuring accuracy of one hardware configuration. */
using AccuracyFn =
    std::function<double(const aqfp::AcceleratorConfig &)>;

/**
 * Thrown when a CoOptSpace's constraints exclude every candidate and a
 * single best was requested (bestByAme, optimize,
 * DesignSpaceExplorer::best). enumerate/explore instead return an empty
 * vector, and the tryBestByAme/tryOptimize variants return nullopt.
 */
class NoFeasibleCandidateError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Enumerates, filters and ranks hardware configurations — the paper's
 * Section 5.4 workflow as a thin facade over DesignSpaceExplorer.
 */
class CoOptimizer
{
  public:
    CoOptimizer(aqfp::AttenuationModel atten,
                aqfp::EnergyModel energy_model = aqfp::EnergyModel(),
                AmeOptions ame_options = {});

    /** All feasible candidates for a workload, AME filled in. */
    std::vector<CoOptCandidate>
    enumerate(const aqfp::WorkloadSpec &workload,
              const CoOptSpace &space) const;

    /**
     * Feasible candidate with minimal AME (analytic proxy); the first
     * enumerated candidate wins ties.
     * @throws NoFeasibleCandidateError when the space excludes everything
     */
    CoOptCandidate bestByAme(const aqfp::WorkloadSpec &workload,
                             const CoOptSpace &space) const;

    /** bestByAme that reports an empty feasible set as nullopt. */
    std::optional<CoOptCandidate>
    tryBestByAme(const aqfp::WorkloadSpec &workload,
                 const CoOptSpace &space) const;

    /**
     * Feasible candidate with maximal measured accuracy; ties broken by
     * higher energy efficiency. The callback is invoked once per
     * feasible candidate, sequentially in enumeration order — keep the
     * evaluation subset small.
     * @throws NoFeasibleCandidateError when the space excludes everything
     */
    CoOptCandidate optimize(const aqfp::WorkloadSpec &workload,
                            const CoOptSpace &space,
                            const AccuracyFn &measure) const;

    /** optimize that reports an empty feasible set as nullopt. */
    std::optional<CoOptCandidate>
    tryOptimize(const aqfp::WorkloadSpec &workload,
                const CoOptSpace &space,
                const AccuracyFn &measure) const;

  private:
    aqfp::AttenuationModel atten;
    aqfp::EnergyModel energy;
    AmeOptions ameOptions;
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_COOPTIMIZER_H
