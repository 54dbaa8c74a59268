#include "nn/binary_linear.h"

#include <algorithm>
#include <cmath>

#include "tensor/tensor_ops.h"

namespace superbnn::nn {

namespace {

/**
 * C output columns of one sample row x, with wt pointing at the first
 * column's weights in the transposed (in, ldw) weight matrix: the double
 * pre-scale sums go to s[0..C), each tile's float partial to
 * part[t * stride + 0..C). Every column keeps its own accumulators and
 * sums k in order, so the floats equal matmulTransposedB's and a
 * per-tile scalar loop's; blocking columns only lets their independent
 * chains (and the weight widening) share vector lanes.
 */
template <std::size_t C>
void
columnBlock(const float *x, const float *wt, std::size_t ldw,
            std::size_t in, std::size_t tile, float *s, float *part,
            std::size_t stride)
{
    double acc[C] = {};
    for (std::size_t lo = 0, t = 0; lo < in; lo += tile, ++t) {
        const std::size_t hi = std::min(lo + tile, in);
        float tacc[C] = {};
        for (std::size_t k = lo; k < hi; ++k) {
            const float xk = x[k];
            const double xd = xk;
            const float *wk = wt + k * ldw;
            double wd[C];
            for (std::size_t c = 0; c < C; ++c)
                wd[c] = wk[c];
            for (std::size_t c = 0; c < C; ++c)
                acc[c] += xd * wd[c];
            for (std::size_t c = 0; c < C; ++c)
                tacc[c] += xk * wk[c];
        }
        for (std::size_t c = 0; c < C; ++c)
            part[t * stride + c] = tacc[c];
    }
    for (std::size_t c = 0; c < C; ++c)
        s[c] = static_cast<float>(acc[c]);
}

} // namespace

BinaryLinear::BinaryLinear(std::size_t in_features,
                           std::size_t out_features, Rng &rng,
                           std::size_t tile_size)
    : TilePartialSource(tile_size == 0
                            ? 1
                            : (in_features + tile_size - 1) / tile_size,
                        tile_size == 0 ? in_features
                                       : std::min(tile_size, in_features)),
      inF(in_features), outF(out_features), tileSize(tile_size),
      weight_(Tensor::kaiming({out_features, in_features}, rng,
                              in_features)),
      alpha_(Tensor({out_features}))
{
    // Initialize alpha to the XNOR-Net L1 scaling of each output row.
    for (std::size_t o = 0; o < outF; ++o) {
        double acc = 0.0;
        for (std::size_t i = 0; i < inF; ++i)
            acc += std::fabs(weight_.value.at(o, i));
        alpha_.value[o] =
            static_cast<float>(acc / static_cast<double>(inF));
    }
}

Tensor
BinaryLinear::signedWeights() const
{
    return signOf(weight_.value);
}

Tensor
BinaryLinear::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 2 && input.dim(1) == inF);
    Tensor wb = signOf(weight_.value);
    // Per-row-tile partial sums for tile-aware binarization; the
    // downstream CellBinarize reads these in both modes, so they are
    // recorded for inference passes too.
    Tensor s = tileSize > 0 ? preScaleWithPartials(input, wb)
                            : matmulTransposedB(input, wb); // (N, out)
    const std::size_t n = s.dim(0);

    Tensor out(s.shape());
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < outF; ++j)
            out.at(i, j) = s.at(i, j) * alpha_.value[j];
    if (training) {
        cachedInput = input;
        cachedBinWeight = std::move(wb);
        cachedPreScale = std::move(s);
    }
    return out;
}

Tensor
BinaryLinear::preScaleWithPartials(const Tensor &input, const Tensor &wb)
{
    const std::size_t n = input.dim(0);
    const std::size_t stride = n * outF;
    Tensor wt({inF, outF});
    for (std::size_t j = 0; j < outF; ++j)
        for (std::size_t k = 0; k < inF; ++k)
            wt[k * outF + j] = wb[j * inF + k];
    Tensor s({n, outF});
    // Release the previous pass's partials first: both at once would
    // raise the training peak by a whole partial tensor.
    partials_ = Tensor();
    partials_ = Tensor({tileCount(), stride});
    parallelRowBlocks(n, inF * outF, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const float *x = input.data() + i * inF;
            float *srow = s.data() + i * outF;
            float *prow = partials_.data() + i * outF;
            std::size_t j = 0;
            for (; j + 8 <= outF; j += 8)
                columnBlock<8>(x, wt.data() + j, outF, inF, tileSize,
                               srow + j, prow + j, stride);
            for (; j < outF; ++j)
                columnBlock<1>(x, wt.data() + j, outF, inF, tileSize,
                               srow + j, prow + j, stride);
        }
    });
    return s;
}

Tensor
BinaryLinear::backward(const Tensor &grad_output)
{
    return matmul(accumulateGrads(grad_output), cachedBinWeight); // (N, in)
}

void
BinaryLinear::backwardParameters(const Tensor &grad_output)
{
    (void)accumulateGrads(grad_output);
}

Tensor
BinaryLinear::accumulateGrads(const Tensor &grad_output)
{
    assert(!cachedInput.empty());
    assert(grad_output.rank() == 2 && grad_output.dim(1) == outF);
    const std::size_t n = grad_output.dim(0);

    // Gradients of the scaling factors and the pre-scale product.
    // The alpha gradient is fan-in normalized: the raw gradient scales
    // with E[s^2] ~ fanIn, which destabilizes plain SGD for wide
    // layers; dividing by fanIn is per-parameter preconditioning that
    // keeps one global learning rate usable across layer widths.
    Tensor ds(grad_output.shape());
    const float inv_fan = 1.0f / static_cast<float>(inF);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < outF; ++j) {
            const float dy = grad_output.at(i, j);
            alpha_.grad[j] += dy * cachedPreScale.at(i, j) * inv_fan;
            ds.at(i, j) = dy * alpha_.value[j];
        }
    }

    // STE through the sign: dwr = dwb where |wr| <= 1 (clipped).
    Tensor dwb = matmulTransposedA(ds, cachedInput); // (out, in)
    for (std::size_t i = 0; i < dwb.size(); ++i) {
        const float wr = weight_.value[i];
        if (wr >= -1.0f && wr <= 1.0f)
            weight_.grad[i] += dwb[i];
    }
    return ds;
}

std::vector<Parameter *>
BinaryLinear::parameters()
{
    return {&weight_, &alpha_};
}

} // namespace superbnn::nn
