#include "nn/batchnorm.h"

#include <cmath>
#include <vector>

#include "tensor/tensor_ops.h"

namespace superbnn::nn {

namespace {

/**
 * Iterate the elements of channel c for (N,C) or (N,C,H,W) tensors,
 * calling fn(flat_index).
 */
template <typename Fn>
void
forEachInChannel(const Shape &shape, std::size_t c, Fn &&fn)
{
    if (shape.size() == 2) {
        const std::size_t n = shape[0], ch = shape[1];
        for (std::size_t i = 0; i < n; ++i)
            fn(i * ch + c);
    } else {
        const std::size_t n = shape[0], ch = shape[1];
        const std::size_t plane = shape[2] * shape[3];
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t base = (i * ch + c) * plane;
            for (std::size_t p = 0; p < plane; ++p)
                fn(base + p);
        }
    }
}

} // namespace

BatchNorm::BatchNorm(std::size_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps),
      gamma_(Tensor({channels}, 1.0f)), beta_(Tensor({channels})),
      runningMean_({channels}), runningVar_({channels}, 1.0f)
{
}

std::size_t
BatchNorm::groupSize(const Shape &shape) const
{
    if (shape.size() == 2)
        return shape[0];
    return shape[0] * shape[2] * shape[3];
}

Tensor
BatchNorm::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 2 || input.rank() == 4);
    assert(input.dim(1) == channels_);
    const std::size_t m = groupSize(input.shape());
    Tensor out(input.shape());
    Tensor norm(input.shape());
    Tensor inv_std({channels_});
    Tensor means({channels_});

    // Statistics one channel per task, each summed in element order;
    // then every plane is normalized independently.
    parallelRowBlocks(channels_, 4 * m, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
            double mean, var;
            if (training) {
                double acc = 0.0;
                forEachInChannel(input.shape(), c,
                                 [&](std::size_t i) { acc += input[i]; });
                mean = acc / static_cast<double>(m);
                double vacc = 0.0;
                forEachInChannel(input.shape(), c, [&](std::size_t i) {
                    const double d = input[i] - mean;
                    vacc += d * d;
                });
                var = vacc / static_cast<double>(m);
                runningMean_[c] = (1.0f - momentum_) * runningMean_[c]
                    + momentum_ * static_cast<float>(mean);
                runningVar_[c] = (1.0f - momentum_) * runningVar_[c]
                    + momentum_ * static_cast<float>(var);
            } else {
                mean = runningMean_[c];
                var = runningVar_[c];
            }
            inv_std[c] = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
            means[c] = static_cast<float>(mean);
        }
    });
    forEachPlane(input.shape(), 2, [&](std::size_t lo, std::size_t hi,
                                       std::size_t c) {
        const float mean = means[c], istd = inv_std[c];
        const float g = gamma_.value[c], b = beta_.value[c];
        for (std::size_t i = lo; i < hi; ++i) {
            const float xh = (input[i] - mean) * istd;
            norm[i] = xh;
            out[i] = g * xh + b;
        }
    });

    if (training) {
        cachedNorm = std::move(norm);
        cachedInvStd = std::move(inv_std);
        cachedMean = std::move(means);
        cachedShape = input.shape();
        hasBatchStats_ = true;
    }
    return out;
}

Tensor
BatchNorm::backward(const Tensor &grad_output)
{
    assert(!cachedNorm.empty());
    assert(grad_output.shape() == cachedShape);
    const std::size_t m = groupSize(cachedShape);
    Tensor dx(cachedShape);
    // dxh = dY * gamma; the standard BN backward identity needs the
    // channel sums of dxh and dxh * x_hat: one task per channel, each
    // sum in element order.
    std::vector<double> dxh_sum(channels_), dxh_dot_xh(channels_);
    parallelRowBlocks(channels_, 4 * m, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
            const float g = gamma_.value[c];
            double dg = 0.0, db = 0.0, sum = 0.0, dot = 0.0;
            forEachInChannel(cachedShape, c, [&](std::size_t i) {
                dg += grad_output[i] * cachedNorm[i];
                db += grad_output[i];
                const double dxh = grad_output[i] * g;
                sum += dxh;
                dot += dxh * cachedNorm[i];
            });
            gamma_.grad[c] += static_cast<float>(dg);
            beta_.grad[c] += static_cast<float>(db);
            dxh_sum[c] = sum;
            dxh_dot_xh[c] = dot;
        }
    });
    const double inv_m = 1.0 / static_cast<double>(m);
    forEachPlane(cachedShape, 4, [&](std::size_t lo, std::size_t hi,
                                     std::size_t c) {
        const float g = gamma_.value[c];
        const float istd = cachedInvStd[c];
        for (std::size_t i = lo; i < hi; ++i) {
            const double dxh = grad_output[i] * g;
            dx[i] = static_cast<float>(
                istd * (dxh - dxh_sum[c] * inv_m
                        - cachedNorm[i] * dxh_dot_xh[c] * inv_m));
        }
    });
    return dx;
}

std::vector<Parameter *>
BatchNorm::parameters()
{
    return {&gamma_, &beta_};
}

} // namespace superbnn::nn
