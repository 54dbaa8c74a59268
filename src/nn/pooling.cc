#include "nn/pooling.h"

namespace superbnn::nn {

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : spec_{kernel, stride, 0}
{
}

Tensor
MaxPool2d::forward(const Tensor &input, bool training)
{
    auto res = maxPool2d(input, spec_);
    if (training) {
        cachedIndices = std::move(res.indices);
        cachedInputShape = input.shape();
    }
    return std::move(res.output);
}

Tensor
MaxPool2d::backward(const Tensor &grad_output)
{
    assert(!cachedIndices.empty());
    assert(grad_output.size() == cachedIndices.size());
    Tensor dx(cachedInputShape);
    // maxPool2d keeps every index of an output plane inside the same
    // input plane, so planes scatter independently, each in output order.
    forEachPlane(grad_output.shape(), 1,
                 [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i)
            dx[cachedIndices[i]] += grad_output[i];
    });
    return dx;
}

Tensor
Flatten::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 4);
    if (training)
        cachedInputShape = input.shape();
    return input.reshaped(
        {input.dim(0), input.dim(1) * input.dim(2) * input.dim(3)});
}

Tensor
Flatten::backward(const Tensor &grad_output)
{
    assert(!cachedInputShape.empty());
    return grad_output.reshaped(cachedInputShape);
}

} // namespace superbnn::nn
