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

AvgPool2d::AvgPool2d(std::size_t kernel, std::size_t stride)
    : spec_{kernel, stride, 0}
{
}

Tensor
AvgPool2d::forward(const Tensor &input, bool training)
{
    if (training)
        cachedInputShape = input.shape();
    return avgPool2d(input, spec_);
}

Tensor
AvgPool2d::backward(const Tensor &grad_output)
{
    assert(!cachedInputShape.empty());
    const std::size_t n = cachedInputShape[0], c = cachedInputShape[1];
    const std::size_t h = cachedInputShape[2], w = cachedInputShape[3];
    const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
    Tensor dx(cachedInputShape);
    const float inv = 1.0f / static_cast<float>(spec_.kernel * spec_.kernel);
    for (std::size_t ni = 0; ni < n; ++ni) {
        for (std::size_t ci = 0; ci < c; ++ci) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    const float g =
                        grad_output.at(ni, ci, oy, ox) * inv;
                    for (std::size_t ky = 0; ky < spec_.kernel; ++ky) {
                        const std::size_t iy = oy * spec_.stride + ky;
                        if (iy >= h)
                            continue;
                        for (std::size_t kx = 0; kx < spec_.kernel; ++kx) {
                            const std::size_t ix = ox * spec_.stride + kx;
                            if (ix >= w)
                                continue;
                            dx.at(ni, ci, iy, ix) += g;
                        }
                    }
                }
            }
        }
    }
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
