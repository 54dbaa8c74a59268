/**
 * @file
 * Crossbar current-attenuation model (paper Section 4.2, Eq. 2, Fig. 5).
 *
 * Column outputs of the AQFP crossbar merge in the analog domain through a
 * superconductive inductance ladder. As the crossbar size Cs grows, the
 * loop inductance grows and the per-unit output current attenuates. The
 * paper measures this and fits a power law:
 *
 *   I1(Cs) = A * Cs^-B           (Eq. 2)
 *
 * We reproduce the measurement with a circuit-level ladder simulation
 * (current divider over the growing merge inductance) and then perform the
 * same least-squares power-law fit the paper uses.
 */

#ifndef SUPERBNN_AQFP_ATTENUATION_H
#define SUPERBNN_AQFP_ATTENUATION_H

#include <cstddef>
#include <vector>

namespace superbnn::aqfp {

/** One measured point of the attenuation curve. */
struct AttenuationPoint
{
    std::size_t crossbarSize;   ///< Cs (cells per column)
    double outputCurrentUa;     ///< per-unit output current I1 (uA)
};

/** Result of the power-law fit I1(Cs) = A * Cs^-B. */
struct PowerLawFit
{
    double a = 0.0;             ///< amplitude constant A (uA)
    double b = 0.0;             ///< attenuation exponent B (> 0)
    double rmsLogError = 0.0;   ///< RMS residual in log space

    /** Evaluate the fitted curve at crossbar size @p cs. */
    double evaluate(double cs) const;
};

/**
 * Circuit-level ladder model of the analog merge network.
 *
 * Each LiM cell couples its output current into the column line through a
 * mutual inductance; the column line adds one series inductance segment per
 * cell. In a superconducting loop the injected flux divides over the total
 * loop inductance, so the per-unit output current for a column of Cs cells
 * is
 *
 *   I1(Cs) = driveCurrent * coupling * Lout / (Lout + Cs * Lseg)
 *
 * which is the physical mechanism behind the paper's measured curve.
 */
class LadderAttenuationSimulator
{
  public:
    /**
     * @param drive_current_ua  cell drive current, +/-70 uA in the paper
     * @param coupling          effective mutual-coupling ratio
     * @param l_out             output/readout inductance (arbitrary units)
     * @param l_seg             per-cell series inductance (same units)
     */
    explicit LadderAttenuationSimulator(double drive_current_ua = 70.0,
                                        double coupling = 1.45,
                                        double l_out = 1.0,
                                        double l_seg = 0.5);

    /** Per-unit output current I1 (uA) for a column of @p cs cells. */
    double outputCurrent(std::size_t cs) const;

    /**
     * Simulate the full column with an arbitrary +-1 input/weight pattern:
     * the merged output current is (sum of XNOR products) * I1(Cs).
     */
    double mergedCurrent(const std::vector<int> &products) const;

    /**
     * Produce the "measured" attenuation curve for a set of crossbar
     * sizes, optionally with multiplicative measurement noise (to mirror
     * the scatter in the paper's Fig. 5 data points).
     */
    std::vector<AttenuationPoint>
    measure(const std::vector<std::size_t> &sizes,
            double noise_fraction = 0.0,
            unsigned seed = 7) const;

    double driveCurrentUa() const { return driveCurrent; }

  private:
    double driveCurrent;
    double couplingRatio;
    double lOut;
    double lSeg;
};

/**
 * Least-squares power-law fit in log-log space, as used for Eq. 2.
 * Requires at least two points with positive coordinates.
 */
PowerLawFit fitPowerLaw(const std::vector<AttenuationPoint> &points);

/**
 * Convenience wrapper: the calibrated attenuation model used throughout
 * the framework. Combines the ladder simulator with the fitted power law
 * and exposes I1(Cs) and deltaVin(Cs) = deltaIin / I1(Cs) (Eq. 4).
 */
class AttenuationModel
{
  public:
    /** Build from the default ladder simulator fitted over 4..144. */
    AttenuationModel();

    /** Build from a custom fit. */
    explicit AttenuationModel(PowerLawFit fit);

    /**
     * Per-unit output current I1(Cs) in uA (Eq. 2).
     * @throws std::invalid_argument for Cs < 1 or NaN
     */
    double currentForValueOne(double cs) const;

    /**
     * Value-domain gray-zone width deltaVin(Cs) (Eq. 4).
     * @throws std::invalid_argument for deltaIin <= 0 or NaN, and for
     *         Cs < 1 or NaN
     */
    double valueGrayZone(double cs, double delta_iin_ua) const;

    const PowerLawFit &fit() const { return fit_; }

  private:
    PowerLawFit fit_;
};

} // namespace superbnn::aqfp

#endif // SUPERBNN_AQFP_ATTENUATION_H
