#include "core/hardware_plan.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace superbnn::core {

namespace {

/** Shared field checks for the (Cs, L, deltaIin) triple. */
void
validatePoint(const char *type, std::size_t crossbar_size,
              std::size_t window, double delta_iin_ua)
{
    const std::string prefix(type);
    if (crossbar_size == 0)
        throw std::invalid_argument(
            prefix + ": crossbarSize must be >= 1 (a zero-size crossbar "
                     "maps no layer)");
    if (window == 0)
        throw std::invalid_argument(
            prefix + ": window must be >= 1 (the SC bitstream must span "
                     "at least one cycle)");
    if (!std::isfinite(delta_iin_ua) || !(delta_iin_ua > 0.0))
        throw std::invalid_argument(
            prefix + ": deltaIinUa must be positive and finite (got "
            + std::to_string(delta_iin_ua) + ")");
}

/**
 * The APC drop fraction: a finite fraction of the counter's input
 * pairs (outside [0, 1] the dropped-pair count is UB or over-corrects
 * the comparator's bias).
 */
void
validateDropFraction(const char *type, double drop_fraction)
{
    if (!(drop_fraction >= 0.0 && drop_fraction <= 1.0))
        throw std::invalid_argument(
            std::string(type)
            + ": dropFraction must be a finite value in [0, 1] (got "
            + std::to_string(drop_fraction) + ")");
}

} // namespace

void
HardwareConfig::validate() const
{
    validatePoint("HardwareConfig", crossbarSize, window, deltaIinUa);
    validateDropFraction("HardwareConfig", dropFraction);
    if (evalBatch == 0)
        throw std::invalid_argument(
            "HardwareConfig: evalBatch must be >= 1 (evaluate() needs "
            "at least one sample per executor pass)");
}

void
LayerHardwareConfig::validate() const
{
    validatePoint("LayerHardwareConfig", crossbarSize, window, deltaIinUa);
}

bool
operator==(const LayerHardwareConfig &a, const LayerHardwareConfig &b)
{
    return a.crossbarSize == b.crossbarSize && a.window == b.window
        && a.deltaIinUa == b.deltaIinUa;
}

bool
operator!=(const LayerHardwareConfig &a, const LayerHardwareConfig &b)
{
    return !(a == b);
}

HardwarePlan::HardwarePlan() : HardwarePlan(HardwareConfig{}) {}

HardwarePlan::HardwarePlan(const HardwareConfig &config)
    : layers{LayerHardwareConfig{config.crossbarSize, config.window,
                                 config.deltaIinUa}},
      exactApc(config.exactApc), dropFraction(config.dropFraction),
      threads(config.threads), evalBatch(config.evalBatch)
{
    config.validate();
}

HardwarePlan::HardwarePlan(std::vector<LayerHardwareConfig> layer_points,
                           const HardwareConfig &shared)
    : layers(std::move(layer_points)), exactApc(shared.exactApc),
      dropFraction(shared.dropFraction), threads(shared.threads),
      evalBatch(shared.evalBatch)
{
    validate();
}

void
HardwarePlan::validate() const
{
    if (layers.empty())
        throw std::invalid_argument(
            "HardwarePlan: layers must not be empty (one broadcast "
            "entry, or one entry per mapped cell)");
    for (const LayerHardwareConfig &entry : layers)
        entry.validate();
    validateDropFraction("HardwarePlan", dropFraction);
    if (evalBatch == 0)
        throw std::invalid_argument(
            "HardwarePlan: evalBatch must be >= 1 (evaluate() needs at "
            "least one sample per executor pass)");
}

std::vector<LayerHardwareConfig>
HardwarePlan::resolve(std::size_t cell_count) const
{
    validate();
    if (cell_count == 0)
        throw std::invalid_argument(
            "HardwarePlan::resolve: cell_count must be >= 1 (a mapped "
            "model always has at least its head)");
    if (uniform())
        return std::vector<LayerHardwareConfig>(cell_count, layers[0]);
    if (layers.size() != cell_count)
        throw std::invalid_argument(
            "HardwarePlan::resolve: plan has "
            + std::to_string(layers.size())
            + " layer entries but the mapped model has "
            + std::to_string(cell_count)
            + " cells (hidden layers + head); a heterogeneous plan "
              "must match exactly");
    return layers;
}

HardwareConfig
HardwarePlan::representative() const
{
    validate();
    HardwareConfig cfg;
    cfg.crossbarSize = layers[0].crossbarSize;
    cfg.window = layers[0].window;
    cfg.deltaIinUa = layers[0].deltaIinUa;
    cfg.exactApc = exactApc;
    cfg.dropFraction = dropFraction;
    cfg.threads = threads;
    cfg.evalBatch = evalBatch;
    return cfg;
}

bool
operator==(const HardwarePlan &a, const HardwarePlan &b)
{
    return a.layers == b.layers && a.exactApc == b.exactApc
        && a.dropFraction == b.dropFraction && a.threads == b.threads
        && a.evalBatch == b.evalBatch;
}

bool
operator!=(const HardwarePlan &a, const HardwarePlan &b)
{
    return !(a == b);
}

} // namespace superbnn::core
