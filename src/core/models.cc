#include "core/models.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace superbnn::core {

Tensor
BnnModel::forward(const Tensor &input, bool training)
{
    return net.forward(input, training);
}

void
BnnModel::backward(const Tensor &grad_output)
{
    net.backwardParameters(grad_output);
}

std::vector<nn::Parameter *>
BnnModel::parameters()
{
    return net.parameters();
}

RandomizedMlp::RandomizedMlp(std::size_t input_dim,
                             const std::vector<std::size_t> &hidden,
                             std::size_t classes,
                             const AqfpBehavior &behavior,
                             const aqfp::AttenuationModel &atten, Rng &rng,
                             BinarizeMode mode)
    : mode_(mode)
{
    assert(!hidden.empty());
    // Binarize the input so the first crossbar sees +/-1 drive currents.
    net.emplace<nn::SignSTE>();
    std::size_t in = input_dim;
    const auto tile = static_cast<std::size_t>(behavior.crossbarSize);
    for (std::size_t width : hidden) {
        // In randomized mode the linear layer records per-crossbar-tile
        // partial sums so the binarization can run the exact hardware
        // function (tile neurons + SC majority).
        auto &lin = net.emplace<nn::BinaryLinear>(
            in, width, rng,
            mode == BinarizeMode::Randomized ? tile : 0);
        auto &bn = net.emplace<nn::BatchNorm>(width);
        if (mode == BinarizeMode::Randomized) {
            net.emplace<CellBinarize>(behavior, atten, rng, &bn,
                                      &lin.alpha(), lin);
        } else {
            net.emplace<nn::HardTanh>();
            net.emplace<nn::SignSTE>();
        }
        cellRefs.push_back({&lin, &bn});
        in = width;
    }
    headLayer = &net.emplace<nn::BinaryLinear>(
        in, classes, rng, mode == BinarizeMode::Randomized ? tile : 0);
    if (mode == BinarizeMode::Randomized) {
        // The hardware reads the head through the APC count registers,
        // not as raw sums; train against that readout.
        net.emplace<HeadReadout>(behavior, atten, headLayer,
                                 &headLayer->alpha(), tile);
    }
}

std::vector<Tensor *>
RandomizedMlp::binaryWeightTensors()
{
    std::vector<Tensor *> out;
    for (auto &cell : cellRefs)
        out.push_back(&cell.linear->weight().value);
    out.push_back(&headLayer->weight().value);
    return out;
}

RandomizedCnn::RandomizedCnn(const Config &config,
                             const AqfpBehavior &behavior,
                             const aqfp::AttenuationModel &atten, Rng &rng,
                             BinarizeMode mode)
    : cfg(config), mode_(mode)
{
    if (cfg.channels.empty())
        throw std::invalid_argument("RandomizedCnn: channels is empty (at "
                                    "least one conv cell is required)");
    if (cfg.poolAfter.size() != cfg.channels.size())
        throw std::invalid_argument(
            "RandomizedCnn: poolAfter has "
            + std::to_string(cfg.poolAfter.size()) + " entries, channels has "
            + std::to_string(cfg.channels.size()));
    net.emplace<nn::SignSTE>();
    std::size_t in_ch = cfg.inputChannels;
    std::size_t side = cfg.inputSide;
    const auto tile = static_cast<std::size_t>(behavior.crossbarSize);
    for (std::size_t i = 0; i < cfg.channels.size(); ++i) {
        const std::size_t out_ch = cfg.channels[i];
        auto &conv = net.emplace<nn::BinaryConv2d>(
            in_ch, out_ch, 3, 1, 1, rng,
            mode == BinarizeMode::Randomized ? tile : 0);
        auto &bn = net.emplace<nn::BatchNorm>(out_ch);
        if (mode == BinarizeMode::Randomized) {
            net.emplace<CellBinarize>(behavior, atten, rng, &bn,
                                      &conv.alpha(), conv);
        } else {
            net.emplace<nn::HardTanh>();
            net.emplace<nn::SignSTE>();
        }
        cellRefs.push_back({&conv, &bn, cfg.poolAfter[i]});
        if (cfg.poolAfter[i]) {
            net.emplace<nn::MaxPool2d>(2, 2);
            side /= 2;
        }
        in_ch = out_ch;
    }
    net.emplace<nn::Flatten>();
    headLayer = &net.emplace<nn::BinaryLinear>(
        in_ch * side * side, cfg.classes, rng,
        mode == BinarizeMode::Randomized ? tile : 0);
    if (mode == BinarizeMode::Randomized) {
        net.emplace<HeadReadout>(behavior, atten, headLayer,
                                 &headLayer->alpha(), tile);
    }
}

std::vector<Tensor *>
RandomizedCnn::binaryWeightTensors()
{
    std::vector<Tensor *> out;
    for (auto &cell : cellRefs)
        out.push_back(&cell.conv->weight().value);
    out.push_back(&headLayer->weight().value);
    return out;
}

} // namespace superbnn::core
