#include "nn/sequential.h"

namespace superbnn::nn {

Sequential &
Sequential::add(ModulePtr module)
{
    layers.push_back(std::move(module));
    return *this;
}

Tensor
Sequential::forward(const Tensor &input, bool training)
{
    Tensor x = input;
    for (auto &l : layers)
        x = l->forward(x, training);
    return x;
}

Tensor
Sequential::backward(const Tensor &grad_output)
{
    Tensor g = grad_output;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

void
Sequential::backwardParameters(const Tensor &grad_output)
{
    std::size_t first = 0;
    while (first < layers.size() && layers[first]->parameters().empty())
        ++first;
    if (first == layers.size())
        return;
    Tensor g = grad_output;
    for (std::size_t i = layers.size() - 1; i > first; --i)
        g = layers[i]->backward(g);
    layers[first]->backwardParameters(g);
}

std::vector<Parameter *>
Sequential::parameters()
{
    std::vector<Parameter *> params;
    for (auto &l : layers) {
        auto p = l->parameters();
        params.insert(params.end(), p.begin(), p.end());
    }
    return params;
}

} // namespace superbnn::nn
