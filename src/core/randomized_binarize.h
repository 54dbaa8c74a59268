/**
 * @file
 * AQFP randomized-aware activation binarization (paper Section 5.1,
 * Eq. 3, 7 and 10) — the heart of the SupeRBNN training algorithm.
 *
 * Forward: each latent activation binarizes stochastically,
 *   ab = +1 with probability Pv(ar) = 0.5 + 0.5 erf(sqrt(pi)(ar - Vth)
 *        / deltaVin(Cs)), else -1,
 * exactly mirroring the AQFP neuron's gray-zone behaviour mapped into the
 * value domain through the crossbar attenuation I1(Cs).
 *
 * Backward: the probability function replaces the hard sign, so instead
 * of a piecewise STE surrogate, the gradient uses the expectation
 *   E[ab] = erf(sqrt(pi)(ar - Vth) / deltaVin),
 *   dE/dar = (2 / deltaVin) exp(-pi ((ar - Vth)/deltaVin)^2).
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
    double vth = 0.0;           ///< value-domain threshold

    /** Value-domain gray-zone width via the attenuation model (Eq. 4). */
    double
    deltaVin(const aqfp::AttenuationModel &atten) const
    {
        return atten.valueGrayZone(crossbarSize, deltaIinUa);
    }
};

/**
 * The randomized binarization layer.
 */
class RandomizedBinarize : public nn::Module
{
  public:
    /**
     * @param behavior  hardware configuration to model
     * @param atten     attenuation model supplying I1(Cs)
     * @param rng       noise source (kept by reference; must outlive)
     * @param sample_in_eval  if true (default) inference also samples,
     *        matching the physical device; if false inference uses the
     *        deterministic sign of the expectation (debug/ablation)
     */
    RandomizedBinarize(const AqfpBehavior &behavior,
                       const aqfp::AttenuationModel &atten, Rng &rng,
                       bool sample_in_eval = true);

    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "RandomizedBinarize"; }

    /** Probability of +1 for a latent value (Eq. 3). */
    double probPlusOne(double ar) const;

    double deltaVin() const { return deltaVin_; }
    double vth() const { return vth_; }

  private:
    double deltaVin_;
    double vth_;
    Rng *rng_;
    bool sampleInEval;
    Tensor cachedInput;
};

/**
 * Cell-level randomized binarization placed after a BinaryLinear/Conv +
 * BatchNorm pair (the converted AQFP cell of Fig. 8b).
 *
 * The hardware applies the gray-zone probability to the raw column sum s
 * shifted by the folded threshold (Eq. 14); for gamma < 0 the decision
 * flips (Eq. 15). The BN output equals xbn = k_c (s - vth_c) with
 * k_c = gamma_c alpha_c / sqrt(var_c + eps), so the hardware's flipped
 * probability is, in the BN-output domain, always "fire +1 iff xbn > 0"
 * with transition width |k_c| * deltaVin. Sampling on xbn with that
 * width therefore reproduces the hardware exactly for either sign of
 * gamma. HardTanh is absorbed: it only reshapes amplitudes already deep
 * in the deterministic region of the gray-zone.
 *
 * The tile-aware forward computes every tile's probability on the
 * shared pool and then makes the Bernoulli draws on the calling thread,
 * element-major and tile by tile, so the Rng stream and the output bits
 * are the same at any pool size. It takes at most 4096 row tiles (a
 * fan-in of 65,536 at Cs 16) and throws std::logic_error beyond.
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
     *                  binary layer; when given, the forward pass runs
     *                  the exact hardware function (per-tile stochastic
     *                  bits + majority vote across row tiles, Fig. 6b)
     *                  instead of the column-level approximation, while
     *                  the backward pass keeps the erf surrogate on the
     *                  BN output
     */
    CellBinarize(const AqfpBehavior &behavior,
                 const aqfp::AttenuationModel &atten, Rng &rng,
                 const nn::BatchNorm *bn, const nn::Parameter *alpha,
                 const nn::TilePartialSource *tiles = nullptr);

    Tensor forward(const Tensor &input, bool training) override;
    Tensor backward(const Tensor &grad_output) override;
    std::string name() const override { return "CellBinarize"; }

    /** Effective width |k_c| * deltaVin for channel @p c (positive). */
    double channelWidth(std::size_t c) const;

    double deltaVin() const { return deltaVin_; }

    /** True when the exact tile-level hardware function is simulated. */
    bool tileAware() const { return tiles_ != nullptr; }

  private:
    double deltaVin_;
    Rng *rng_;
    const nn::BatchNorm *bn_;
    const nn::Parameter *alpha_;
    const nn::TilePartialSource *tiles_;
    Tensor cachedInput;

    // forwardTiled's per-channel tables: sized by the widest call so
    // far and reused, so a steady training loop allocates neither.
    std::vector<double> probTable_;          ///< [channel][partial slot]
    std::vector<std::uint8_t> slotClass_;    ///< [channel][slot code]

    std::size_t channelOf(const Shape &shape, std::size_t flat) const;

    /** Tile-level forward: per-tile stochastic bits, majority vote. */
    Tensor forwardTiled(const Tensor &input, bool training);
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
