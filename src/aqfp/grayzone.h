/**
 * @file
 * AQFP buffer gray-zone model (paper Section 4.2, Eq. 1 and Eq. 3).
 *
 * An AQFP buffer senses the direction of its input current and emits logic
 * '1' (positive output pulse) or '0' (negative pulse). Thermal/quantum
 * fluctuations make the decision stochastic when the input amplitude falls
 * inside a finite "gray-zone" of width deltaIin around the threshold:
 *
 *   P(Iin) = 0.5 + 0.5 * erf( sqrt(pi) * (Iin - Ith) / deltaIin )
 *
 * The same model, rescaled by the crossbar's per-unit output current
 * I1(Cs), gives the value-domain probability used in training (Eq. 3/4):
 *
 *   Pv(Vin) = 0.5 + 0.5 * erf( sqrt(pi) * (Vin - Vth) / deltaVin(Cs) )
 *   deltaVin(Cs) = deltaIin / I1(Cs)
 */

#ifndef SUPERBNN_AQFP_GRAYZONE_H
#define SUPERBNN_AQFP_GRAYZONE_H

#include "tensor/random.h"

namespace superbnn::aqfp {

/**
 * Stochastic switching model of a single AQFP buffer used as the
 * neuron/comparator of a crossbar column.
 */
class GrayZoneModel
{
  public:
    /**
     * @param delta_iin  gray-zone width in micro-amperes (paper: ~2.4 uA at
     *                   4.2 K; randomized switching boundary ~ +/-2 uA)
     * @param ith        comparator threshold current in micro-amperes
     *                   (adjustable; BN matching programs this, Eq. 16)
     * @throws std::invalid_argument when @p delta_iin is not positive
     *         and finite (as setDeltaIin)
     */
    explicit GrayZoneModel(double delta_iin = 2.4, double ith = 0.0);

    /** Probability of emitting logic '1' for input current @p iin (uA). */
    double probOne(double iin) const;

    /**
     * Derivative of the expected bipolar output E[2b-1] = erf(...) with
     * respect to the input current. Used by the randomized-aware STE
     * (Eq. 10): d/dx erf(sqrt(pi)(x-Ith)/D) = (2/D) exp(-pi((x-Ith)/D)^2).
     */
    double expectationGrad(double iin) const;

    /** Draw one output bit: 1 with probability probOne, else 0. */
    int sampleBit(double iin, Rng &rng) const;

    /**
     * Input amplitude beyond which the output is effectively deterministic
     * (|P - {0,1}| < eps). For the default 2.4 uA gray zone this is about
     * +/-2 uA, matching Figure 4.
     */
    double deterministicBoundary(double eps = 0.01) const;

    double deltaIin() const { return deltaIin_; }
    double ith() const { return ith_; }
    void setIth(double ith) { ith_ = ith; }
    /** @throws std::invalid_argument unless @p d is positive and finite */
    void setDeltaIin(double d);

  private:
    double deltaIin_;
    double ith_;
};

} // namespace superbnn::aqfp

#endif // SUPERBNN_AQFP_GRAYZONE_H
