/**
 * @file
 * Free-function tensor operations: matmul, im2col/col2im, max pooling,
 * sign binarization, and softmax. These are the numeric kernels behind the
 * nn layers; they operate on plain Tensors and carry no training state.
 */

#ifndef SUPERBNN_TENSOR_TENSOR_OPS_H
#define SUPERBNN_TENSOR_TENSOR_OPS_H

#include <cstddef>
#include <functional>

#include "tensor/tensor.h"

namespace superbnn {

/** Parameters of a 2-D convolution / pooling window. */
struct Conv2dSpec
{
    std::size_t kernel = 3;     ///< square kernel extent
    std::size_t stride = 1;     ///< stride in both dimensions
    std::size_t padding = 0;    ///< zero padding on every border

    /** Output spatial extent for an input extent `in`. */
    std::size_t
    outExtent(std::size_t in) const
    {
        return (in + 2 * padding - kernel) / stride + 1;
    }
};

/**
 * Run body(lo, hi) over contiguous blocks that partition [0, rows), on
 * the shared executor pool (util::parallelForThreads(0, ...)). Each
 * block carries at least ~32k multiply-adds (@p work_per_row per row),
 * so a loop too small for two blocks runs inline on the caller. A
 * kernel that computes every output row inside one block, in its
 * sequential order, produces the same floats at any pool size.
 */
void parallelRowBlocks(
    std::size_t rows, std::size_t work_per_row,
    const std::function<void(std::size_t, std::size_t)> &body);

/**
 * Run fn(begin, end, c) over every (sample, channel) plane of an (N, C)
 * or (N, C, H, W) shape through parallelRowBlocks, each plane whole
 * inside one task: [begin, end) are the plane's flat indices and c its
 * channel. Planes of rank-2 shapes are single elements.
 */
template <typename Fn>
void
forEachPlane(const Shape &shape, std::size_t work_per_element, Fn &&fn)
{
    const std::size_t ch = shape[1];
    const std::size_t plane = shape.size() == 2 ? 1 : shape[2] * shape[3];
    parallelRowBlocks(shape[0] * ch, plane * work_per_element,
                      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u)
            fn(u * plane, (u + 1) * plane, u % ch);
    });
}

/**
 * Matrix product C = A * B for 2-D tensors.
 * A is (m, k), B is (k, n); returns (m, n).
 *
 * The three matrix products run on the shared pool through
 * parallelRowBlocks; each output element is computed by one task,
 * summing k in order, so the result is bit-identical at any pool size.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Matrix product with B transposed: A (m, k) x B (n, k) -> (m, n). */
Tensor matmulTransposedB(const Tensor &a, const Tensor &b);

/** Matrix product with A transposed: A (k, m) x B (k, n) -> (m, n). */
Tensor matmulTransposedA(const Tensor &a, const Tensor &b);

/**
 * im2col: unfold an NCHW image batch into a matrix of convolution patches.
 *
 * @param input  4-D tensor (N, C, H, W)
 * @param spec   kernel/stride/padding
 * @return 2-D tensor (C*kernel*kernel, N*outH*outW); each column is one
 *         receptive field, columns ordered image-major then row-major over
 *         output positions.
 */
Tensor im2col(const Tensor &input, const Conv2dSpec &spec);

/**
 * col2im: fold the patch matrix back, accumulating overlaps. Inverse
 * companion of im2col used by the convolution backward pass.
 */
Tensor col2im(const Tensor &cols, const Shape &input_shape,
              const Conv2dSpec &spec);

/** Result of a max-pool forward pass: values plus argmax indices. */
struct MaxPoolResult
{
    Tensor output;                       ///< pooled values
    std::vector<std::size_t> indices;    ///< flat input index of each max
};

/** 2-D max pooling over an NCHW batch. */
MaxPoolResult maxPool2d(const Tensor &input, const Conv2dSpec &spec);

/**
 * Elementwise binarization to +/-1 with sign(0) = +1 (Eq. 6): the
 * forward of SignSTE and of every binary layer's weights.
 */
Tensor signOf(const Tensor &x);

/**
 * Row-wise softmax of a 2-D tensor (numerically stabilized by max
 * subtraction).
 */
Tensor softmaxRows(const Tensor &logits);

} // namespace superbnn

#endif // SUPERBNN_TENSOR_TENSOR_OPS_H
