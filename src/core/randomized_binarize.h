/**
 * @file
 * AQFP randomized-aware binarization (paper Section 5.1, Eq. 3, 7 and
 * 10): the layers through which SupeRBNN trains against the stochastic
 * function the hardware computes.
 *
 * An AQFP neuron fed a column current in its gray zone fires +1 with
 * probability
 *   Pv(s) = 0.5 + 0.5 erf(sqrt(pi) (s - vth) / deltaVin(Cs)),
 * where s is the neuron's own partial sum and deltaVin is the gray-zone
 * width mapped into the value domain through the crossbar attenuation
 * I1(Cs) (Eq. 4). CellBinarize runs that function for every hidden
 * cell (one neuron per row tile, then the SC majority); HeadReadout
 * trains the classifier head on the APC count the hardware reads out.
 * Backward passes replace the sampled bit with its expectation
 * E[ab] = erf(...), whose derivative
 *   dE/ds = (2 / w) exp(-pi (s / w)^2)
 * (with a widened w, see each layer) is the surrogate gradient.
 */

#ifndef SUPERBNN_CORE_RANDOMIZED_BINARIZE_H
#define SUPERBNN_CORE_RANDOMIZED_BINARIZE_H

#include <cstdint>
#include <vector>

#include "aqfp/attenuation.h"
#include "nn/batchnorm.h"
#include "nn/module.h"

namespace superbnn::core {

/** Hardware behaviour parameters baked into training. */
struct AqfpBehavior
{
    double crossbarSize = 16;   ///< Cs used for deltaVin(Cs)
    double deltaIinUa = 2.4;    ///< gray-zone width (uA)
    double vth = 0.0;           ///< unread: cells fold theirs from BN

    /** Value-domain gray-zone width via the attenuation model (Eq. 4). */
    double
    deltaVin(const aqfp::AttenuationModel &atten) const
    {
        return atten.valueGrayZone(crossbarSize, deltaIinUa);
    }
};

/**
 * Cell-level randomized binarization placed after a BinaryLinear/Conv +
 * BatchNorm pair (the converted AQFP cell of Fig. 8b): the stochastic
 * forward function the deployed hardware runs.
 *
 * Forward: the BN folds into a per-channel threshold on the raw sum
 * (Eq. 16), split evenly over the preceding layer's row tiles; each
 * tile neuron fires +1 with probability Pv of its own partial sum, the
 * SC accumulation module takes the majority over tiles (Fig. 6b), and
 * gamma < 0 inverts the result (Eq. 15). Training folds the batch
 * statistics the BN layer just used; inference folds the running ones
 * programmed into Ith. HardTanh is absorbed: it only reshapes
 * amplitudes already deep in the deterministic region of the gray zone.
 *
 * Backward: the erf surrogate on the BN output xbn = k_c (s - vth_c),
 * k_c = gamma_c alpha_c / sqrt(var_c + eps). The cell fires +1 iff
 * xbn > 0 for either sign of gamma, with transition width
 * channelWidth(c) = |k_c| deltaVin, floored at 1 because the majority's
 * transition is set by the tile-sum dispersion (O(1) after
 * normalization), not by one buffer's gray zone.
 *
 * The forward computes every tile's probability on the shared pool and
 * then makes the Bernoulli draws on the calling thread, element-major
 * and tile by tile, so the Rng stream and the output bits are the same
 * at any pool size. It takes at most 4096 row tiles (a fan-in of
 * 65,536 at Cs 16) and throws std::logic_error beyond.
 */
class CellBinarize : public nn::Module
{
  public:
    /**
     * @param behavior  hardware configuration (Cs, deltaIin)
     * @param atten     attenuation model
     * @param rng       noise source
     * @param bn        the cell's batch-norm layer (read-only borrow)
     * @param alpha     the preceding binary layer's scaling parameter
     * @param tiles     per-tile partial-sum source of the preceding
     *                  binary layer (read-only borrow)
     */
    CellBinarize(const AqfpBehavior &behavior,
                 const aqfp::AttenuationModel &atten, Rng &rng,
                 const nn::BatchNorm *bn, const nn::Parameter *alpha,
                 const nn::TilePartialSource &tiles);

    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "CellBinarize"; }

    /** Effective width |k_c| * deltaVin for channel @p c (positive). */
    double channelWidth(std::size_t c) const;

    double deltaVin() const { return deltaVin_; }

  private:
    double deltaVin_;
    Rng *rng_;
    const nn::BatchNorm *bn_;
    const nn::Parameter *alpha_;
    const nn::TilePartialSource *tiles_;
    Tensor cachedInput;

    // forward's per-channel tables: sized by the widest call so
    // far and reused, so a steady training loop allocates neither.
    std::vector<double> probTable_;          ///< [channel][partial slot]
    std::vector<std::uint8_t> slotClass_;    ///< [channel][slot code]
};

/**
 * Hardware-faithful classifier-head readout.
 *
 * The final layer's crossbars cannot export raw column sums: each row
 * tile's neuron only emits stochastic bits whose density is the
 * erf-squashed partial sum, and the APC count register is what gets read
 * out (TileExecutor::forwardDecoded). This layer replaces the head's
 * linear output with the hardware expectation
 *
 *   logit_j = alpha_j * sum_t erf(sqrt(pi) * s_tj / deltaVin)
 *
 * so training optimizes exactly the statistic the hardware computes. The
 * backward pass uses a widened erf slope (surrogate gradient, floor of
 * sqrt(tile size)) because the physical slope is numerically zero for
 * saturated tiles.
 */
class HeadReadout : public nn::Module
{
  public:
    /**
     * @param behavior   hardware configuration
     * @param atten      attenuation model
     * @param tiles      the head layer's partial-sum source
     * @param alpha      the head layer's per-class scaling parameter
     * @param tile_size  row-tile extent (sets the surrogate width)
     */
    HeadReadout(const AqfpBehavior &behavior,
                const aqfp::AttenuationModel &atten,
                const nn::TilePartialSource *tiles,
                const nn::Parameter *alpha, std::size_t tile_size);

    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "HeadReadout"; }

    double deltaVin() const { return deltaVin_; }
    double surrogateWidth() const { return surrogateWidth_; }

  private:
    double deltaVin_;
    double surrogateWidth_;
    const nn::TilePartialSource *tiles_;
    const nn::Parameter *alpha_;
    Shape cachedShape;
    Tensor cachedMeanSlope;  ///< per-element mean surrogate slope
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_RANDOMIZED_BINARIZE_H
