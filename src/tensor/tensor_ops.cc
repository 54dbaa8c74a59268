#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/sharded_executor_pool.h"

namespace superbnn {

namespace {

/** Minimum multiply-adds per parallelRowBlocks block. */
constexpr std::size_t kMinBlockWork = std::size_t{1} << 15;

/**
 * out[c] = sum_kk a[kk] * b[c * k + kk] for c < C, each in its own
 * double accumulator summing kk in order; blocking C rows of b only
 * interleaves their independent add chains.
 */
template <std::size_t C>
void
dotBlock(const float *a, const float *b, std::size_t k, float *out)
{
    double acc[C] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double x = a[kk];
        for (std::size_t c = 0; c < C; ++c)
            acc[c] += x * b[c * k + kk];
    }
    for (std::size_t c = 0; c < C; ++c)
        out[c] = static_cast<float>(acc[c]);
}

} // namespace

void
parallelRowBlocks(std::size_t rows, std::size_t work_per_row,
                  const std::function<void(std::size_t, std::size_t)> &body)
{
    const std::size_t per_row = std::max<std::size_t>(work_per_row, 1);
    const std::size_t block = (kMinBlockWork + per_row - 1) / per_row;
    const std::size_t blocks = (rows + block - 1) / block;
    if (blocks <= 1) {
        if (rows > 0)
            body(0, rows);
        return;
    }
    util::parallelForThreads(0, blocks, [&](std::size_t b) {
        body(b * block, std::min(rows, (b + 1) * block));
    });
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    assert(a.rank() == 2 && b.rank() == 2);
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    assert(b.dim(0) == k);
    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    // ikj loop order keeps the inner loop contiguous over B and C rows.
    parallelRowBlocks(m, k * n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float aik = pa[i * k + kk];
                if (aik == 0.0f)
                    continue;
                const float *brow = pb + kk * n;
                float *crow = pc + i * n;
                for (std::size_t j = 0; j < n; ++j)
                    crow[j] += aik * brow[j];
            }
        }
    });
    return c;
}

Tensor
matmulTransposedB(const Tensor &a, const Tensor &b)
{
    assert(a.rank() == 2 && b.rank() == 2);
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    assert(b.dim(1) == k);
    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    // Units of one row by four columns, so a product with few rows (a
    // convolution's weight gradient) still spreads over the pool.
    const std::size_t quads = (n + 3) / 4;
    parallelRowBlocks(m * quads, 4 * k, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) {
            const std::size_t i = u / quads;
            const float *arow = pa + i * k;
            std::size_t j = u % quads * 4;
            if (j + 4 <= n)
                dotBlock<4>(arow, pb + j * k, k, pc + i * n + j);
            else
                for (; j < n; ++j)
                    dotBlock<1>(arow, pb + j * k, k, pc + i * n + j);
        }
    });
    return c;
}

Tensor
matmulTransposedA(const Tensor &a, const Tensor &b)
{
    assert(a.rank() == 2 && b.rank() == 2);
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    assert(b.dim(0) == k);
    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    parallelRowBlocks(m, k * n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float *arow = pa + kk * m;
            const float *brow = pb + kk * n;
            for (std::size_t i = lo; i < hi; ++i) {
                const float aik = arow[i];
                if (aik == 0.0f)
                    continue;
                float *crow = pc + i * n;
                for (std::size_t j = 0; j < n; ++j)
                    crow[j] += aik * brow[j];
            }
        }
    });
    return c;
}

Tensor
im2col(const Tensor &input, const Conv2dSpec &spec)
{
    assert(input.rank() == 4);
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    const std::size_t oh = spec.outExtent(h), ow = spec.outExtent(w);
    const std::size_t k = spec.kernel;
    const std::size_t rows = c * k * k;
    const std::size_t cols = n * oh * ow;
    Tensor out({rows, cols});
    float *po = out.data();
    const float *pi = input.data();
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(spec.padding);

    // Each patch row is an independent gather.
    parallelRowBlocks(rows, cols, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t row = lo; row < hi; ++row) {
            const std::size_t ci = row / (k * k);
            const std::size_t ky = row / k % k, kx = row % k;
            float *orow = po + row * cols;
            for (std::size_t ni = 0; ni < n; ++ni) {
                const float *img = pi + (ni * c + ci) * h * w;
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * spec.stride + ky)
                        - pad;
                    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h))
                        continue; // stays zero
                    const std::size_t base = (ni * oh + oy) * ow;
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(
                                ox * spec.stride + kx) - pad;
                        if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w))
                            continue;
                        orow[base + ox] = img[iy * w + ix];
                    }
                }
            }
        }
    });
    return out;
}

Tensor
col2im(const Tensor &cols, const Shape &input_shape, const Conv2dSpec &spec)
{
    assert(cols.rank() == 2 && input_shape.size() == 4);
    const std::size_t n = input_shape[0], c = input_shape[1];
    const std::size_t h = input_shape[2], w = input_shape[3];
    const std::size_t oh = spec.outExtent(h), ow = spec.outExtent(w);
    const std::size_t k = spec.kernel;
    const std::size_t ncols = n * oh * ow;
    assert(cols.dim(0) == c * k * k && cols.dim(1) == ncols);

    Tensor out(input_shape);
    float *po = out.data();
    const float *pc = cols.data();
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(spec.padding);

    // One (image, channel) plane per task: every input element sums its
    // overlapping patch entries in (ky, kx, oy, ox) order, as the
    // sequential channel-major loop did.
    const std::size_t work = (k * k * oh * ow + h * w - 1) / (h * w);
    forEachPlane(input_shape, work,
                 [&](std::size_t lo, std::size_t, std::size_t ci) {
        const std::size_t ni = lo / (c * h * w);
        float *img = po + lo;
        for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
                const std::size_t row = (ci * k + ky) * k + kx;
                const float *crow = pc + row * ncols;
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * spec.stride + ky)
                        - pad;
                    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h))
                        continue;
                    const std::size_t base = (ni * oh + oy) * ow;
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(
                                ox * spec.stride + kx) - pad;
                        if (ix < 0 ||
                            ix >= static_cast<std::ptrdiff_t>(w))
                            continue;
                        img[iy * w + ix] += crow[base + ox];
                    }
                }
            }
        }
    });
    return out;
}

MaxPoolResult
maxPool2d(const Tensor &input, const Conv2dSpec &spec)
{
    assert(input.rank() == 4);
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    const std::size_t oh = spec.outExtent(h), ow = spec.outExtent(w);
    MaxPoolResult res;
    res.output = Tensor({n, c, oh, ow});
    res.indices.assign(res.output.size(), 0);
    const float *pi = input.data();
    float *po = res.output.data();
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(spec.padding);

    // One (image, channel) plane per task. A window with no value above
    // -inf (all NaN or -inf, or wholly in padding) points at its plane's
    // first element, so every index stays inside its own plane.
    forEachPlane(res.output.shape(), spec.kernel * spec.kernel,
                 [&](std::size_t lo, std::size_t, std::size_t) {
        const std::size_t u = lo / (oh * ow);
        const float *img = pi + u * h * w;
        const std::size_t img_base = u * h * w;
        std::size_t out_idx = lo;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox, ++out_idx) {
                float best = -std::numeric_limits<float>::infinity();
                std::size_t best_idx = img_base;
                for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                    const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(
                        oy * spec.stride + ky) - pad;
                    if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h))
                        continue;
                    for (std::size_t kx = 0; kx < spec.kernel; ++kx) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(
                                ox * spec.stride + kx) - pad;
                        if (ix < 0 ||
                            ix >= static_cast<std::ptrdiff_t>(w))
                            continue;
                        const float v = img[iy * w + ix];
                        if (v > best) {
                            best = v;
                            best_idx = img_base + iy * w + ix;
                        }
                    }
                }
                po[out_idx] = best;
                res.indices[out_idx] = best_idx;
            }
        }
    });
    return res;
}

Tensor
signOf(const Tensor &x)
{
    Tensor out(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] >= 0.0f ? 1.0f : -1.0f;
    return out;
}

Tensor
softmaxRows(const Tensor &logits)
{
    assert(logits.rank() == 2);
    const std::size_t rows = logits.dim(0), cols = logits.dim(1);
    Tensor out({rows, cols});
    for (std::size_t r = 0; r < rows; ++r) {
        const float *in = logits.data() + r * cols;
        float *o = out.data() + r * cols;
        const float mx = *std::max_element(in, in + cols);
        double denom = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            o[c] = std::exp(in[c] - mx);
            denom += o[c];
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (std::size_t c = 0; c < cols; ++c)
            o[c] *= inv;
    }
    return out;
}

} // namespace superbnn
