/**
 * @file
 * AQFP crossbar synapse array simulator (paper Sections 4.1-4.2, Fig. 3).
 *
 * A Cs x Cs array of LiM cells. An input vector of binary activations
 * drives the rows; each column's cell outputs merge in the analog domain
 * through the inductance ladder (current attenuation grows with Cs), and
 * the column's AQFP neuron stochastically binarizes the merged current.
 */

#ifndef SUPERBNN_CROSSBAR_CROSSBAR_ARRAY_H
#define SUPERBNN_CROSSBAR_CROSSBAR_ARRAY_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "aqfp/attenuation.h"
#include "aqfp/ledger.h"
#include "crossbar/lim_cell.h"
#include "crossbar/neuron.h"
#include "sc/bitstream.h"
#include "sc/bitstream_batch.h"

namespace superbnn::crossbar {

/**
 * One physical crossbar tile with its column neurons.
 */
class CrossbarArray
{
  public:
    /**
     * @param size          Cs: rows = columns = size
     * @param attenuation   calibrated attenuation model (shared semantics
     *                      with training via I1(Cs))
     * @param delta_iin_ua  neuron gray-zone width
     */
    CrossbarArray(std::size_t size,
                  const aqfp::AttenuationModel &attenuation,
                  double delta_iin_ua = 2.4);

    std::size_t size() const { return size_; }

    /**
     * Program a weight sub-matrix. weights[r][c] must be +1/-1; rows/cols
     * beyond the provided extents stay inactive (padding).
     */
    void programWeights(const std::vector<std::vector<int>> &weights);

    /** Program one cell. */
    void programCell(std::size_t row, std::size_t col, int weight);

    /** Set the threshold current (uA) of one column's neuron. */
    void setColumnThreshold(std::size_t col, double ith_ua);

    /**
     * Set a column threshold in the value domain (latent BNN units): the
     * neuron threshold becomes vth * I1(Cs), per Eq. 16.
     */
    void setColumnThresholdValue(std::size_t col, double vth);

    /** Per-unit output current I1(Cs) of this tile (uA). */
    double unitCurrentUa() const { return unitCurrent; }

    /**
     * Merged analog current (uA) of one column for a +/-1 activation
     * vector (entries beyond the programmed rows are ignored by inactive
     * cells).
     */
    double columnCurrent(std::size_t col,
                         const std::vector<int> &activations) const;

    /** Latent (value-domain) column sum: sum of XNOR products. */
    int columnSum(std::size_t col,
                  const std::vector<int> &activations) const;

    /**
     * All column sums in one row-major pass over the effective-weight
     * cache (+1/-1 programmed, 0 inactive), with each row's
     * contribution vectorized through the simd::KernelSet column-sum
     * kernel; feeds columnProbabilities.
     */
    std::vector<int> columnSums(const std::vector<int> &activations) const;

    /**
     * Column sums for a batch of activation vectors in one call:
     * returns a sample-major flat vector of size batch.size() * size()
     * (sample b, column c at [b * size() + c]). The cell array is
     * walked once per sample; the programmed weights are shared.
     */
    std::vector<int>
    columnSumsBatch(const std::vector<std::vector<int>> &batch) const;

    /**
     * The column-sum inner loop over a borrowed activation slice: add
     * the contribution of rows [0, min(@p rows, size())), driven by
     * activations[0..), into sums[0..size()) via the simd::KernelSet
     * column-sum kernel. Lets the tile executor read a row tile's
     * slice in place. Activations must be in {-1, 0, +1} (asserted in
     * debug builds, matching the per-cell LimCell::multiply contract;
     * the executor checks its inputs in every build).
     */
    void addColumnSums(int *sums, const int *activations,
                       std::size_t rows) const;

    /**
     * Observe every column neuron for @p window cycles with each
     * sample's inputs held (Fig. 6a): one BitstreamBatch per column,
     * holding every sample's window-long stream side by side — the
     * layout the tile executor's fused pass reproduces column by
     * column (see TileExecutor). Sample b's columns are drawn from a
     * single sc::detail::CounterStream seeded with seeds[b] and
     * consumed column-major in one pass: column c's
     * window-long stream occupies raw-draw positions [c * window,
     * (c+1) * window) of the counter space, regardless of the other
     * columns' probabilities. Eight bytes of state per (sample, tile)
     * replace the per-engine 312-word mt19937_64 init, and the draw
     * step itself vectorizes (simd::KernelSet counter kernel).
     * Deterministic in (seeds, window, programmed state) alone and
     * bit-identical on every dispatch arm.
     *
     * When @p counts is non-null the tile reports its real activity
     * into it (adding to whatever is there): one observation per
     * sample, window active cycles per observation, and the raw
     * counter draws actually consumed — read back from the counter
     * streams rather than derived from the geometry, so the ledger
     * measures the simulator instead of re-modelling it.
     */
    std::vector<sc::BitstreamBatch>
    observeBatchSeeded(const std::vector<std::vector<int>> &batch,
                       std::size_t window,
                       const std::vector<std::uint64_t> &seeds,
                       aqfp::TileCounts *counts = nullptr) const;

    /** Probability of '1' per column (the exact Eq.-1 probabilities). */
    std::vector<double>
    columnProbabilities(const std::vector<int> &activations) const;

    const NeuronCircuit &neuron(std::size_t col) const;

    /**
     * Fabrication-variation injection: multiply every column neuron's
     * gray-zone width by a log-normal-ish factor (1 + sigma * N(0,1),
     * clamped positive). Models the junction-critical-current spread of
     * the niobium process.
     * @throws std::invalid_argument when @p sigma is negative or not
     *         finite, before any neuron changes
     */
    void applyGrayZoneVariation(double sigma, Rng &rng);

    /**
     * Fault injection: a fraction of LiM cells become stuck (lose their
     * stored flux and stop emitting current pulses). The stuck-cell
     * mask is a pure function of (@p seed, fraction) via the same
     * counter-based SplitMix64 stream the seeded observe path uses —
     * bit i of the mask is draw i of CounterStream{seed, 0} compared
     * against the Bernoulli threshold, independent of draw order,
     * thread count, or how many cells are currently active. Because each draw is a fixed function of
     * (seed, position), raising @p fraction only widens the threshold:
     * the mask at a higher fraction is a superset of the mask at a
     * lower one for the same seed (nested faults). Returns the number
     * of active cells actually knocked out.
     * @throws std::invalid_argument when @p fraction is NaN or outside
     *         [0, 1], before any cell changes
     */
    std::size_t injectStuckCellsSeeded(double fraction,
                                       std::uint64_t seed);

    /**
     * Effective weight of one cell: +1/-1 if programmed, 0 if inactive
     * (exactly LimCell::multiply(1)).
     */
    int weightAt(std::size_t row, std::size_t col) const
    {
        assert(row < size_ && col < size_);
        return weightCache[row * size_ + col];
    }

  private:
    std::size_t size_;
    double unitCurrent;      ///< I1(Cs) in uA
    std::vector<LimCell> cells;          // row-major size_ x size_
    std::vector<NeuronCircuit> neurons;  // one per column

    /**
     * Row-major effective weights mirroring `cells`: +1/-1 for a
     * programmed cell, 0 for an inactive one — exactly
     * LimCell::multiply(1) — kept in sync by every cell mutator so the
     * column-sum kernels run on a flat int array.
     */
    std::vector<int> weightCache;

    LimCell &cell(std::size_t r, std::size_t c);
    const LimCell &cell(std::size_t r, std::size_t c) const;
};

} // namespace superbnn::crossbar

#endif // SUPERBNN_CROSSBAR_CROSSBAR_ARRAY_H
