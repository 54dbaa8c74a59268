/**
 * @file
 * Mapping BNN layers onto multiple crossbar tiles (paper Sections 3, 4.3).
 *
 * Crossbar scalability is limited by current attenuation and fabrication,
 * so a layer whose fan-in or fan-out exceeds Cs is split into a grid of
 * Cs x Cs tiles: row tiles partition the fan-in (their intermediate
 * results are SC-accumulated), column tiles partition the fan-out. The
 * batch-norm-matched threshold of each output is divided evenly across
 * the row tiles (Section 5.2).
 */

#ifndef SUPERBNN_CROSSBAR_MAPPER_H
#define SUPERBNN_CROSSBAR_MAPPER_H

#include <cstddef>
#include <vector>

#include "crossbar/crossbar_array.h"
#include "tensor/tensor.h"

namespace superbnn::crossbar {

/**
 * A BNN layer mapped onto a grid of crossbar tiles.
 */
struct MappedLayer
{
    std::size_t fanIn = 0;
    std::size_t fanOut = 0;
    std::size_t cs = 0;
    std::size_t rowTiles = 0;
    std::size_t colTiles = 0;
    /// Tiles in row-major order: tile(rt, ct) = tiles[rt * colTiles + ct].
    std::vector<CrossbarArray> tiles;
    /// Value-domain thresholds per output unit (before division).
    std::vector<double> thresholds;

    CrossbarArray &tile(std::size_t rt, std::size_t ct);
    const CrossbarArray &tile(std::size_t rt, std::size_t ct) const;

    /** Total crossbar count. */
    std::size_t tileCount() const { return tiles.size(); }
};

/**
 * Builds MappedLayers from signed weight matrices.
 */
class CrossbarMapper
{
  public:
    /**
     * @param cs            crossbar size
     * @param attenuation   shared attenuation model
     * @param delta_iin_ua  neuron gray-zone width
     */
    CrossbarMapper(std::size_t cs, aqfp::AttenuationModel attenuation,
                   double delta_iin_ua = 2.4);

    /**
     * Map a layer. @p signed_weights is (fanOut, fanIn) with +/-1 entries
     * (the binarized BNN weights).
     */
    MappedLayer map(const Tensor &signed_weights) const;

    /**
     * Install value-domain thresholds (one per output unit), dividing
     * each evenly over the row tiles as the paper prescribes.
     * @throws std::invalid_argument (layer untouched) when @p vth does
     *         not hold one value per output column or a value is not
     *         finite (a zero BN alpha or a NaN weight/statistic)
     */
    static void setThresholds(MappedLayer &layer,
                              const std::vector<double> &vth);

    std::size_t crossbarSize() const { return cs_; }
    const aqfp::AttenuationModel &attenuation() const { return atten; }
    double deltaIinUa() const { return deltaIin; }

  private:
    std::size_t cs_;
    aqfp::AttenuationModel atten;
    double deltaIin;
};

/**
 * A MappedLayer of the given geometry with unprogrammed (inactive)
 * cells: a cheap layer to run the executor on where the weights do not
 * matter (timing a geometry, or checking that ledger activity counts,
 * which are value-independent, equal aqfp::forwardCounts).
 */
MappedLayer geometryLayer(std::size_t fan_in, std::size_t fan_out,
                          std::size_t cs,
                          const aqfp::AttenuationModel &atten,
                          double delta_iin_ua = 2.4);

} // namespace superbnn::crossbar

#endif // SUPERBNN_CROSSBAR_MAPPER_H
