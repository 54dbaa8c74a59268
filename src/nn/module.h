/**
 * @file
 * Layer/module abstraction of the BNN training framework.
 *
 * The framework implements explicit forward/backward layers (no tape
 * autograd): each Module caches what it needs during forward and returns
 * the input gradient from backward. Parameters expose value and gradient
 * tensors that the optimizer updates.
 */

#ifndef SUPERBNN_NN_MODULE_H
#define SUPERBNN_NN_MODULE_H

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace superbnn::nn {

/** A trainable tensor: value plus accumulated gradient. */
struct Parameter
{
    Parameter() = default;
    explicit Parameter(Tensor v)
        : value(std::move(v)), grad(value.shape()) {}

    Tensor value;
    Tensor grad;

    /** Reset the gradient accumulator. */
    void zeroGrad() { grad.zero(); }
};

/**
 * Base class of all layers.
 */
class Module
{
  public:
    virtual ~Module() = default;

    /**
     * Forward pass.
     * @param input     batch input tensor
     * @param training  true during training (enables stochastic paths,
     *                  batch statistics, caching for backward)
     */
    virtual Tensor forward(const Tensor &input, bool training) = 0;

    /**
     * Backward pass: consumes dL/d(output), returns dL/d(input), and
     * accumulates parameter gradients. Must follow a training-mode
     * forward call.
     */
    virtual Tensor backward(const Tensor &grad_output) = 0;

    /**
     * Backward pass for a layer whose input gradient nobody reads (a
     * network's first layer with parameters): accumulates the same
     * parameter gradients as backward() without forming dL/d(input).
     * The default runs backward() and drops its result.
     */
    virtual void
    backwardParameters(const Tensor &grad_output)
    {
        (void)backward(grad_output);
    }

    /** Trainable parameters of this module (possibly empty). */
    virtual std::vector<Parameter *> parameters() { return {}; }

    /** Diagnostic layer name. */
    virtual std::string name() const = 0;
};

using ModulePtr = std::unique_ptr<Module>;

/**
 * Per-crossbar-tile partial sums recorded by a binary layer.
 *
 * A binary layer whose fan-in exceeds one crossbar is physically split
 * into row tiles; each tile's column neuron only ever sees its *own*
 * partial sum. Tile-aware randomized binarization (the hardware-faithful
 * training mode) therefore needs the partial sums, not just the total.
 *
 * The layer's forward pass writes them in one layout that the readers
 * (CellBinarize, HeadReadout) index directly: a (T, E) tensor whose row
 * t holds tile t's partial for each of the E elements of the layer's
 * output, in that tensor's flat order.
 */
class TilePartialSource
{
  public:
    /** Number of row tiles T (1 when tiling is disabled). */
    std::size_t tileCount() const { return tiles_; }

    /**
     * Rows of the widest tile (the fan-in when tiling is disabled): a
     * tile partial of +/-1 inputs and weights is an integer in
     * [-tileRows(), tileRows()].
     */
    std::size_t tileRows() const { return rows_; }

    /**
     * The (T, E) partials of the last forward pass; empty before the
     * first one and when tiling is disabled.
     */
    const Tensor &tilePartials() const { return partials_; }

  protected:
    TilePartialSource(std::size_t tiles, std::size_t rows)
        : tiles_(tiles), rows_(rows) {}
    ~TilePartialSource() = default;

    std::size_t tiles_;
    std::size_t rows_;
    Tensor partials_;
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_MODULE_H
