/**
 * @file
 * Weight rectified clamp method (paper Section 5.3, Eq. 17, following
 * ReCU, Xu et al. ICCV 2021).
 *
 * Real-valued shadow weights of a BNN roughly follow a zero-mean Laplace
 * distribution; outliers in the tails almost never flip sign under SGD
 * and become "dead". ReCU clamps the weights to their [tau, 1-tau]
 * quantile range, moving outliers toward the peak so their signs stay
 * trainable. The clamp parameter tau ramps from 0.85 to 0.99 during
 * training (Section 6.1).
 */

#ifndef SUPERBNN_NN_RECU_H
#define SUPERBNN_NN_RECU_H

#include <cstddef>

#include "tensor/tensor.h"

namespace superbnn::nn {

/**
 * Empirical quantile of the tensor's values (linear interpolation).
 * The two order statistics come from nth_element on a copy below 5000
 * values and from a radix select over order-preserving keys above;
 * either returns the floats a full sort would put there (where -0 and
 * +0 tie, the radix select places -0 first).
 * @param q in [0, 1]
 * @throws std::invalid_argument for an empty tensor, a NaN value (the
 *         message names its index), or q outside [0, 1] or NaN
 */
float quantile(const Tensor &values, double q);

/**
 * Apply the rectified clamp in place:
 *   w = max(min(w, Q(tau)), Q(1 - tau))
 * with Q the empirical quantile of @p weights (as quantile() computes
 * it; from 5000 values on, both bounds come from one radix select).
 *
 * @return the pair of clamp bounds used (low, high)
 * @throws std::invalid_argument for tau outside [0.5, 1] or NaN, empty
 *         weights, or a NaN weight (the message names its index)
 */
std::pair<float, float> applyReCU(Tensor &weights, double tau);

/**
 * The paper's tau schedule: starts at 0.85, ramps linearly to 0.99 over
 * the training run.
 */
class ReCUSchedule
{
  public:
    ReCUSchedule(double tau_start = 0.85, double tau_end = 0.99);

    /** Tau for a 0-based epoch out of @p total epochs. */
    double tauAt(std::size_t epoch, std::size_t total) const;

  private:
    double tauStart;
    double tauEnd;
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_RECU_H
