/**
 * @file
 * Binary fully connected layer (paper Section 5.1, Eq. 8).
 *
 * Weights binarize to sign(wr) in the forward pass (XNOR-Net style) with
 * a learnable per-output-channel scaling factor alpha; the real-valued
 * shadow weights update through the straight-through estimator (Eq. 9).
 * The binarized weights are what gets pre-stored in the crossbar LiM
 * cells; alpha folds into the batch-norm matching (Eq. 16).
 */

#ifndef SUPERBNN_NN_BINARY_LINEAR_H
#define SUPERBNN_NN_BINARY_LINEAR_H

#include "nn/module.h"

namespace superbnn::nn {

/** y_j = alpha_j * sum_i x_i * sign(w_ji). */
class BinaryLinear : public Module, public TilePartialSource
{
  public:
    /**
     * @param tile_size  crossbar row-tile extent; when non-zero the
     *                   layer records per-tile partial sums each forward
     *                   (TilePartialSource, E = N * out) for tile-aware
     *                   binarization
     */
    BinaryLinear(std::size_t in_features, std::size_t out_features,
                 Rng &rng, std::size_t tile_size = 0);

    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    void backwardParameters(const Tensor &grad_output) override;
    std::vector<Parameter *> parameters() override;
    std::string name() const override { return "BinaryLinear"; }

    Parameter &weight() { return weight_; }
    Parameter &alpha() { return alpha_; }
    const Parameter &weight() const { return weight_; }
    const Parameter &alpha() const { return alpha_; }

    /** Binarized weights sign(wr), shape (out, in), entries +/-1. */
    Tensor signedWeights() const;

    std::size_t inFeatures() const { return inF; }
    std::size_t outFeatures() const { return outF; }

  private:
    /**
     * s = x * wb^T and every tile partial in one pass over k, on the
     * shared pool by sample rows; returns s, fills partials_.
     */
    Tensor preScaleWithPartials(const Tensor &input, const Tensor &wb);

    /** Accumulates the alpha and weight gradients; returns dL/ds. */
    Tensor accumulateGrads(const Tensor &grad_output);

    std::size_t inF, outF;
    std::size_t tileSize;
    Parameter weight_;  // real-valued shadow weights (out, in)
    Parameter alpha_;   // per-output scaling (out)
    Tensor cachedInput;
    Tensor cachedBinWeight;
    Tensor cachedPreScale;  // s = x * wb^T before alpha
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_BINARY_LINEAR_H
