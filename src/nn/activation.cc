#include "nn/activation.h"

#include "tensor/tensor_ops.h"

namespace superbnn::nn {

Tensor
HardTanh::forward(const Tensor &input, bool training)
{
    if (training)
        cachedInput = input;
    Tensor out(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) {
        const float x = input[i];
        out[i] = x > 1.0f ? 1.0f : (x < -1.0f ? -1.0f : x);
    }
    return out;
}

Tensor
HardTanh::backward(const Tensor &grad_output)
{
    assert(!cachedInput.empty());
    assert(grad_output.shape() == cachedInput.shape());
    Tensor dx(grad_output.shape());
    for (std::size_t i = 0; i < dx.size(); ++i) {
        const float x = cachedInput[i];
        dx[i] = (x >= -1.0f && x <= 1.0f) ? grad_output[i] : 0.0f;
    }
    return dx;
}

Tensor
SignSTE::forward(const Tensor &input, bool training)
{
    if (training)
        cachedInput = input;
    return signOf(input);
}

Tensor
SignSTE::backward(const Tensor &grad_output)
{
    assert(!cachedInput.empty());
    Tensor dx(grad_output.shape());
    for (std::size_t i = 0; i < dx.size(); ++i) {
        const float x = cachedInput[i];
        dx[i] = (x >= -1.0f && x <= 1.0f) ? grad_output[i] : 0.0f;
    }
    return dx;
}

} // namespace superbnn::nn
