#include "nn/binary_conv.h"

#include <algorithm>
#include <cmath>

namespace superbnn::nn {

BinaryConv2d::BinaryConv2d(std::size_t in_channels,
                           std::size_t out_channels, std::size_t kernel,
                           std::size_t stride, std::size_t padding,
                           Rng &rng, std::size_t tile_size)
    : TilePartialSource(tile_size == 0
                            ? 1
                            : (in_channels * kernel * kernel + tile_size
                               - 1) / tile_size,
                        tile_size == 0
                            ? in_channels * kernel * kernel
                            : std::min(tile_size,
                                       in_channels * kernel * kernel)),
      inC(in_channels), outC(out_channels), spec_{kernel, stride, padding},
      tileSize(tile_size),
      weight_(Tensor::kaiming({out_channels, in_channels, kernel, kernel},
                              rng, in_channels * kernel * kernel)),
      alpha_(Tensor({out_channels}))
{
    const std::size_t patch = inC * kernel * kernel;
    for (std::size_t o = 0; o < outC; ++o) {
        double acc = 0.0;
        for (std::size_t i = 0; i < patch; ++i)
            acc += std::fabs(weight_.value[o * patch + i]);
        alpha_.value[o] =
            static_cast<float>(acc / static_cast<double>(patch));
    }
}

Tensor
BinaryConv2d::signedWeightMatrix() const
{
    const std::size_t patch = inC * spec_.kernel * spec_.kernel;
    return signOf(weight_.value.reshaped({outC, patch}));
}

Tensor
BinaryConv2d::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 4 && input.dim(1) == inC);
    const std::size_t n = input.dim(0);
    const std::size_t oh = spec_.outExtent(input.dim(2));
    const std::size_t ow = spec_.outExtent(input.dim(3));
    const std::size_t patch = inC * spec_.kernel * spec_.kernel;

    Tensor cols = im2col(input, spec_);
    Tensor wb = signOf(weight_.value.reshaped({outC, patch}));
    // Per-row-tile partial sums over the flattened patch, recorded for
    // tile-aware binarization in every mode.
    Tensor s = tileSize > 0 ? preScaleWithPartials(cols, wb, n)
                            : matmul(wb, cols); // (O, N*oh*ow)

    Tensor out({n, outC, oh, ow});
    const std::size_t plane = oh * ow;
    for (std::size_t oi = 0; oi < outC; ++oi) {
        const float a = alpha_.value[oi];
        for (std::size_t ni = 0; ni < n; ++ni) {
            const float *src = s.data() + oi * (n * plane) + ni * plane;
            float *dst = out.data() + (ni * outC + oi) * plane;
            for (std::size_t p = 0; p < plane; ++p)
                dst[p] = src[p] * a;
        }
    }
    if (training) {
        cachedCols = std::move(cols);
        cachedBinWeight = std::move(wb);
        cachedPreScale = std::move(s);
        cachedInputShape = input.shape();
    }
    return out;
}

Tensor
BinaryConv2d::backward(const Tensor &grad_output)
{
    const Tensor ds = accumulateGrads(grad_output);
    const Tensor dcols = matmulTransposedA(cachedBinWeight, ds);
    return col2im(dcols, cachedInputShape, spec_);
}

void
BinaryConv2d::backwardParameters(const Tensor &grad_output)
{
    (void)accumulateGrads(grad_output);
}

Tensor
BinaryConv2d::accumulateGrads(const Tensor &grad_output)
{
    assert(!cachedCols.empty());
    const std::size_t n = grad_output.dim(0);
    const std::size_t oh = grad_output.dim(2), ow = grad_output.dim(3);
    const std::size_t plane = oh * ow;
    const std::size_t patch = inC * spec_.kernel * spec_.kernel;

    // dY rearranged to (O, N*oh*ow) and alpha/prescale gradients, one
    // output channel per task so its alpha gradient adds up in image
    // order.
    Tensor ds({outC, n * plane});
    parallelRowBlocks(outC, 2 * n * plane, [&](std::size_t lo,
                                               std::size_t hi) {
        for (std::size_t oi = lo; oi < hi; ++oi) {
            const float a = alpha_.value[oi];
            for (std::size_t ni = 0; ni < n; ++ni) {
                const float *src =
                    grad_output.data() + (ni * outC + oi) * plane;
                float *dst = ds.data() + oi * (n * plane) + ni * plane;
                const float *pre =
                    cachedPreScale.data() + oi * (n * plane) + ni * plane;
                double da = 0.0;
                for (std::size_t p = 0; p < plane; ++p) {
                    da += static_cast<double>(src[p]) * pre[p];
                    dst[p] = src[p] * a;
                }
                // Fan-in normalized, as in BinaryLinear: keeps the scale
                // parameter trainable with plain SGD on wide layers.
                alpha_.grad[oi] += static_cast<float>(
                    da / static_cast<double>(patch));
            }
        }
    });

    // STE through sign with clipping.
    Tensor dwb = matmulTransposedB(ds, cachedCols); // (O, patch)
    // The patches are dead from here; dropping them before dcols is
    // allocated keeps two patch matrices from being live at once.
    cachedCols = Tensor();
    for (std::size_t i = 0; i < outC * patch; ++i) {
        const float wr = weight_.value[i];
        if (wr >= -1.0f && wr <= 1.0f)
            weight_.grad[i] += dwb[i];
    }
    return ds;
}

Tensor
BinaryConv2d::preScaleWithPartials(const Tensor &cols, const Tensor &wb,
                                   std::size_t n)
{
    const std::size_t patch = cols.dim(0);
    const std::size_t m = cols.dim(1);
    const std::size_t plane = m / n;
    Tensor s({outC, m});
    // Release the previous pass's partials first: both at once would
    // raise the training peak by a whole partial tensor.
    partials_ = Tensor();
    partials_ = Tensor({tileCount(), m * outC});
    // One task per (channel o, image ni): s and each tile's partial
    // accumulate the same products in patch order, as matmul and a
    // per-tile loop would (wb is +/-1, so matmul never skips a term).
    parallelRowBlocks(outC * n, patch * plane,
                      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) {
            const std::size_t o = u / n, ni = u % n;
            const float *w = wb.data() + o * patch;
            float *srow = s.data() + o * m + ni * plane;
            for (std::size_t k0 = 0, t = 0; k0 < patch;
                 k0 += tileSize, ++t) {
                float *part = partials_.data() + t * m * outC
                    + (ni * outC + o) * plane;
                const std::size_t k1 = std::min(k0 + tileSize, patch);
                for (std::size_t k = k0; k < k1; ++k) {
                    const float wk = w[k];
                    const float *crow = cols.data() + k * m + ni * plane;
                    for (std::size_t p = 0; p < plane; ++p) {
                        const float v = wk * crow[p];
                        part[p] += v;
                        srow[p] += v;
                    }
                }
            }
        }
    });
    return s;
}

std::vector<Parameter *>
BinaryConv2d::parameters()
{
    return {&weight_, &alpha_};
}

} // namespace superbnn::nn
