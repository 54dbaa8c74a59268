/**
 * @file
 * SupeRBNN model zoo: randomized BNN architectures used in the paper's
 * evaluation (MLP for MNIST-scale, VGG-small-style CNN for CIFAR-scale),
 * plus the vanilla-BNN ablation variant trained without randomized
 * awareness.
 *
 * Every model exposes its cell structure (binary layer + batch norm) so
 * the hardware evaluator can map weights to crossbars and fold BN into
 * neuron thresholds.
 */

#ifndef SUPERBNN_CORE_MODELS_H
#define SUPERBNN_CORE_MODELS_H

#include <memory>
#include <string>
#include <vector>

#include "core/randomized_binarize.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/binary_conv.h"
#include "nn/binary_linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace superbnn::core {

/** Training-time binarization flavour. */
enum class BinarizeMode
{
    Randomized,   ///< AQFP-aware stochastic binarization (SupeRBNN)
    Deterministic ///< vanilla sign + STE (ablation baseline)
};

/**
 * Common base of trainable BNN models: a layer sequence that the
 * concrete model builds in its constructor.
 */
class BnnModel
{
  public:
    virtual ~BnnModel() = default;

    Tensor forward(const Tensor &input, bool training);

    /**
     * Accumulates every parameter's gradient from dL/d(logits). The
     * gradient with respect to the network input is never formed: the
     * reverse walk ends at the first layer with parameters
     * (nn::Sequential::backwardParameters).
     */
    void backward(const Tensor &grad_output);

    std::vector<nn::Parameter *> parameters();

    /** The layer sequence, input first. */
    nn::Sequential &network() { return net; }

    /** Real-valued shadow weights of the binary layers (ReCU targets). */
    virtual std::vector<Tensor *> binaryWeightTensors() = 0;

    virtual std::string name() const = 0;

  protected:
    nn::Sequential net;
};

/** One MLP cell as seen by the hardware mapper. */
struct MlpCellRef
{
    nn::BinaryLinear *linear;
    nn::BatchNorm *bn;
};

/**
 * Randomized BNN multilayer perceptron (the Table-3 workload shape).
 *
 * Structure: input sign-binarize -> [BinaryLinear -> BatchNorm ->
 * CellBinarize] x hidden -> BinaryLinear head producing logits.
 */
class RandomizedMlp : public BnnModel
{
  public:
    /**
     * @param input_dim   flattened input width
     * @param hidden      hidden layer widths
     * @param classes     output classes
     * @param behavior    AQFP behaviour baked into training
     * @param atten       attenuation model
     * @param rng         init + stochastic-forward randomness
     * @param mode        randomized (SupeRBNN) or deterministic ablation
     */
    RandomizedMlp(std::size_t input_dim,
                  const std::vector<std::size_t> &hidden,
                  std::size_t classes, const AqfpBehavior &behavior,
                  const aqfp::AttenuationModel &atten, Rng &rng,
                  BinarizeMode mode = BinarizeMode::Randomized);

    std::vector<Tensor *> binaryWeightTensors() override;
    std::string name() const override { return "RandomizedMlp"; }

    const std::vector<MlpCellRef> &cells() const { return cellRefs; }
    nn::BinaryLinear &head() { return *headLayer; }
    const nn::BinaryLinear &head() const { return *headLayer; }
    BinarizeMode mode() const { return mode_; }

  private:
    std::vector<MlpCellRef> cellRefs;
    nn::BinaryLinear *headLayer = nullptr;
    BinarizeMode mode_;
};

/** One CNN cell as seen by the hardware mapper. */
struct ConvCellRef
{
    nn::BinaryConv2d *conv;
    nn::BatchNorm *bn;
    bool pooled; ///< a 2x2 max pool follows this cell
};

/**
 * Randomized BNN CNN in the VGG-small mould, scaled to the synthetic
 * CIFAR substitute: conv cells with periodic 2x2 max pooling, then a
 * binary linear head.
 */
class RandomizedCnn : public BnnModel
{
  public:
    /** Architecture knobs. */
    struct Config
    {
        std::size_t inputChannels = 3;
        std::size_t inputSide = 32;
        /// Output channels per conv cell.
        std::vector<std::size_t> channels = {16, 32, 64};
        /// Cells after which a 2x2 max pool is placed.
        std::vector<bool> poolAfter = {true, true, true};
        std::size_t classes = 10;
    };

    /** @throws std::invalid_argument when config.channels is empty or
     *          config.poolAfter is not the same length */
    RandomizedCnn(const Config &config, const AqfpBehavior &behavior,
                  const aqfp::AttenuationModel &atten, Rng &rng,
                  BinarizeMode mode = BinarizeMode::Randomized);

    std::vector<Tensor *> binaryWeightTensors() override;
    std::string name() const override { return "RandomizedCnn"; }

    const std::vector<ConvCellRef> &cells() const { return cellRefs; }
    nn::BinaryLinear &head() { return *headLayer; }
    const nn::BinaryLinear &head() const { return *headLayer; }
    const Config &config() const { return cfg; }
    BinarizeMode mode() const { return mode_; }

  private:
    Config cfg;
    std::vector<ConvCellRef> cellRefs;
    nn::BinaryLinear *headLayer = nullptr;
    BinarizeMode mode_;
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_MODELS_H
