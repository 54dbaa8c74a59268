/**
 * @file
 * Binary convolution layer (paper Section 5.1, Eq. 8), im2col based,
 * with per-output-channel learnable scaling alpha.
 */

#ifndef SUPERBNN_NN_BINARY_CONV_H
#define SUPERBNN_NN_BINARY_CONV_H

#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace superbnn::nn {

/** Binary convolution: Y = BCONV(sign(x), sign(w)) * alpha. */
class BinaryConv2d : public Module, public TilePartialSource
{
  public:
    /**
     * @param tile_size  crossbar row-tile extent over the flattened
     *                   C*k*k patch; non-zero enables per-tile partial
     *                   recording (TilePartialSource, E = N * O * oh * ow
     *                   in NCHW order)
     */
    BinaryConv2d(std::size_t in_channels, std::size_t out_channels,
                 std::size_t kernel, std::size_t stride,
                 std::size_t padding, Rng &rng,
                 std::size_t tile_size = 0);

    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    void backwardParameters(const Tensor &grad_output) override;
    std::vector<Parameter *> parameters() override;
    std::string name() const override { return "BinaryConv2d"; }

    Parameter &weight() { return weight_; }
    Parameter &alpha() { return alpha_; }
    const Parameter &weight() const { return weight_; }
    const Parameter &alpha() const { return alpha_; }
    const Conv2dSpec &spec() const { return spec_; }

    /**
     * Binarized weights as a (out, in*k*k) matrix with +/-1 entries,
     * i.e. the flattened crossbar mapping of each filter.
     */
    Tensor signedWeightMatrix() const;

    std::size_t inChannels() const { return inC; }
    std::size_t outChannels() const { return outC; }

  private:
    /**
     * s = wb * cols and every tile partial in one pass over the patch,
     * on the shared pool by (output channel, image); returns s, fills
     * partials_.
     */
    Tensor preScaleWithPartials(const Tensor &cols, const Tensor &wb,
                                std::size_t n);

    /**
     * Accumulates the alpha and weight gradients and releases the
     * cached patches; returns dL/ds as (O, N*oh*ow).
     */
    Tensor accumulateGrads(const Tensor &grad_output);

    std::size_t inC, outC;
    Conv2dSpec spec_;
    std::size_t tileSize;
    Parameter weight_;  // real-valued (O, C, k, k)
    Parameter alpha_;   // (O)
    Tensor cachedCols;
    Tensor cachedBinWeight;  // (O, patch)
    Tensor cachedPreScale;   // (O, N*oh*ow)
    Shape cachedInputShape;
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_BINARY_CONV_H
