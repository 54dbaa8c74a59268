/**
 * @file
 * Pooling and flatten layers.
 */

#ifndef SUPERBNN_NN_POOLING_H
#define SUPERBNN_NN_POOLING_H

#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace superbnn::nn {

/** 2-D max pooling. */
class MaxPool2d : public Module
{
  public:
    MaxPool2d(std::size_t kernel, std::size_t stride);

    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "MaxPool2d"; }

  private:
    Conv2dSpec spec_;
    std::vector<std::size_t> cachedIndices;
    Shape cachedInputShape;
};

/** Collapse (N, C, H, W) to (N, C*H*W). */
class Flatten : public Module
{
  public:
    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "Flatten"; }

  private:
    Shape cachedInputShape;
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_POOLING_H
