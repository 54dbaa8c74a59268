#include "crossbar/mapper.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace superbnn::crossbar {

CrossbarArray &
MappedLayer::tile(std::size_t rt, std::size_t ct)
{
    assert(rt < rowTiles && ct < colTiles);
    return tiles[rt * colTiles + ct];
}

const CrossbarArray &
MappedLayer::tile(std::size_t rt, std::size_t ct) const
{
    assert(rt < rowTiles && ct < colTiles);
    return tiles[rt * colTiles + ct];
}

CrossbarMapper::CrossbarMapper(std::size_t cs,
                               aqfp::AttenuationModel attenuation,
                               double delta_iin_ua)
    : cs_(cs), atten(std::move(attenuation)), deltaIin(delta_iin_ua)
{
    assert(cs >= 1);
    assert(delta_iin_ua > 0.0);
}

MappedLayer
CrossbarMapper::map(const Tensor &signed_weights) const
{
    assert(signed_weights.rank() == 2);
    MappedLayer layer;
    layer.fanOut = signed_weights.dim(0);
    layer.fanIn = signed_weights.dim(1);
    layer.cs = cs_;
    layer.rowTiles = (layer.fanIn + cs_ - 1) / cs_;
    layer.colTiles = (layer.fanOut + cs_ - 1) / cs_;
    layer.thresholds.assign(layer.fanOut, 0.0);

    layer.tiles.reserve(layer.rowTiles * layer.colTiles);
    for (std::size_t rt = 0; rt < layer.rowTiles; ++rt) {
        for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
            CrossbarArray xbar(cs_, atten, deltaIin);
            const std::size_t r0 = rt * cs_;
            const std::size_t c0 = ct * cs_;
            for (std::size_t r = r0;
                 r < std::min(r0 + cs_, layer.fanIn); ++r) {
                for (std::size_t c = c0;
                     c < std::min(c0 + cs_, layer.fanOut); ++c) {
                    const float w = signed_weights.at(c, r);
                    assert(w == 1.0f || w == -1.0f);
                    xbar.programCell(r - r0, c - c0,
                                     w > 0.0f ? 1 : -1);
                }
            }
            layer.tiles.push_back(std::move(xbar));
        }
    }
    return layer;
}

void
CrossbarMapper::setThresholds(MappedLayer &layer,
                              const std::vector<double> &vth)
{
    // Checked in every build: a non-finite threshold would reach the
    // Bernoulli fill as a NaN probability.
    if (vth.size() != layer.fanOut)
        throw std::invalid_argument(
            "CrossbarMapper::setThresholds: " + std::to_string(vth.size())
            + " thresholds for " + std::to_string(layer.fanOut)
            + " output columns");
    for (std::size_t out = 0; out < vth.size(); ++out)
        if (!std::isfinite(vth[out]))
            throw std::invalid_argument(
                "CrossbarMapper::setThresholds: column "
                + std::to_string(out) + " threshold is "
                + std::to_string(vth[out]));
    layer.thresholds = vth;
    const double share = 1.0 / static_cast<double>(layer.rowTiles);
    for (std::size_t out = 0; out < layer.fanOut; ++out) {
        const std::size_t ct = out / layer.cs;
        const std::size_t local = out % layer.cs;
        for (std::size_t rt = 0; rt < layer.rowTiles; ++rt)
            layer.tile(rt, ct).setColumnThresholdValue(
                local, vth[out] * share);
    }
}

MappedLayer
geometryLayer(std::size_t fan_in, std::size_t fan_out, std::size_t cs,
              const aqfp::AttenuationModel &atten, double delta_iin_ua)
{
    assert(fan_in >= 1 && fan_out >= 1 && cs >= 1);
    MappedLayer layer;
    layer.fanIn = fan_in;
    layer.fanOut = fan_out;
    layer.cs = cs;
    layer.rowTiles = (fan_in + cs - 1) / cs;
    layer.colTiles = (fan_out + cs - 1) / cs;
    layer.tiles.assign(layer.rowTiles * layer.colTiles,
                       CrossbarArray(cs, atten, delta_iin_ua));
    layer.thresholds.assign(fan_out, 0.0);
    return layer;
}

} // namespace superbnn::crossbar
