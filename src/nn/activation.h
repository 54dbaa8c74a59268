/**
 * @file
 * Pointwise activation layers: HardTanh (the BNN cell's activation,
 * Fig. 8a) and deterministic Sign binarization with the
 * straight-through estimator (Eq. 6/9).
 */

#ifndef SUPERBNN_NN_ACTIVATION_H
#define SUPERBNN_NN_ACTIVATION_H

#include "nn/module.h"

namespace superbnn::nn {

/** HardTanh: clamp to [-1, 1]; gradient passes inside the linear region. */
class HardTanh : public Module
{
  public:
    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "HardTanh"; }

  private:
    Tensor cachedInput;
};

/**
 * Deterministic sign binarization with STE: forward emits +/-1 (sign with
 * sign(0) = +1, Eq. 6); backward passes the gradient where |x| <= 1 and
 * zeroes it outside (the clipped straight-through estimator).
 *
 * This is the conventional BNN activation the randomized-aware layer is
 * compared against in the ablation.
 */
class SignSTE : public Module
{
  public:
    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "SignSTE"; }

  private:
    Tensor cachedInput;
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_ACTIVATION_H
