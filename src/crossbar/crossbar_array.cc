#include "crossbar/crossbar_array.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "simd/kernels.h"

namespace superbnn::crossbar {

CrossbarArray::CrossbarArray(std::size_t size,
                             const aqfp::AttenuationModel &attenuation,
                             double delta_iin_ua)
    : size_(size),
      unitCurrent(attenuation.currentForValueOne(
          static_cast<double>(size))),
      cells(size * size),
      neurons(size, NeuronCircuit(delta_iin_ua, 0.0)),
      weightCache(size * size, 0)
{
    assert(size >= 1);
}

LimCell &
CrossbarArray::cell(std::size_t r, std::size_t c)
{
    assert(r < size_ && c < size_);
    return cells[r * size_ + c];
}

const LimCell &
CrossbarArray::cell(std::size_t r, std::size_t c) const
{
    assert(r < size_ && c < size_);
    return cells[r * size_ + c];
}

void
CrossbarArray::programWeights(const std::vector<std::vector<int>> &weights)
{
    assert(weights.size() <= size_);
    for (auto &c : cells)
        c.clear();
    std::fill(weightCache.begin(), weightCache.end(), 0);
    for (std::size_t r = 0; r < weights.size(); ++r) {
        assert(weights[r].size() <= size_);
        for (std::size_t c = 0; c < weights[r].size(); ++c)
            programCell(r, c, weights[r][c]);
    }
}

void
CrossbarArray::programCell(std::size_t row, std::size_t col, int weight)
{
    cell(row, col).program(weight);
    weightCache[row * size_ + col] = weight;
}

void
CrossbarArray::setColumnThreshold(std::size_t col, double ith_ua)
{
    assert(col < size_);
    neurons[col].setIthUa(ith_ua);
}

void
CrossbarArray::setColumnThresholdValue(std::size_t col, double vth)
{
    setColumnThreshold(col, vth * unitCurrent);
}

int
CrossbarArray::columnSum(std::size_t col,
                         const std::vector<int> &activations) const
{
    assert(col < size_);
    int sum = 0;
    const std::size_t rows = std::min(activations.size(), size_);
    for (std::size_t r = 0; r < rows; ++r) {
        const LimCell &lc = cell(r, col);
        if (lc.active())
            sum += lc.multiply(activations[r]);
    }
    return sum;
}

void
CrossbarArray::addColumnSums(int *sums, const int *activations,
                             std::size_t rows) const
{
    rows = std::min(rows, size_);
    const simd::KernelSet &kernels = simd::active();
    for (std::size_t r = 0; r < rows; ++r) {
        const int a = activations[r];
        // Same contract the per-cell LimCell::multiply path asserted.
        assert(a >= -1 && a <= 1);
        if (a == 0)
            continue; // undriven padding row: no current pulses
        kernels.accumulateColumnSums(
            sums, weightCache.data() + r * size_, a, size_);
    }
}

std::vector<int>
CrossbarArray::columnSums(const std::vector<int> &activations) const
{
    std::vector<int> sums(size_, 0);
    addColumnSums(sums.data(), activations.data(), activations.size());
    return sums;
}

std::vector<int>
CrossbarArray::columnSumsBatch(
    const std::vector<std::vector<int>> &batch) const
{
    std::vector<int> sums(batch.size() * size_, 0);
    for (std::size_t b = 0; b < batch.size(); ++b)
        addColumnSums(sums.data() + b * size_, batch[b].data(),
                      batch[b].size());
    return sums;
}

double
CrossbarArray::columnCurrent(std::size_t col,
                             const std::vector<int> &activations) const
{
    return static_cast<double>(columnSum(col, activations)) * unitCurrent;
}

std::vector<sc::BitstreamBatch>
CrossbarArray::observeBatchSeeded(
    const std::vector<std::vector<int>> &batch, std::size_t window,
    const std::vector<std::uint64_t> &seeds,
    aqfp::TileCounts *counts) const
{
    assert(seeds.size() == batch.size());
    const std::size_t samples = batch.size();
    const std::vector<int> sums = columnSumsBatch(batch);
    std::vector<sc::BitstreamBatch> out;
    out.reserve(size_);
    for (std::size_t c = 0; c < size_; ++c)
        out.emplace_back(samples, window);
    // One counter-based stream per sample, consumed column-major in a
    // single pass: column c's window occupies raw-draw positions
    // [c * window, (c+1) * window) of seeds[b]'s counter space (the
    // fill advances the counter even for constant-probability columns,
    // so the layout is position-stable). No engine is ever seeded —
    // the tile seed itself is the whole RNG state.
    for (std::size_t b = 0; b < samples; ++b) {
        sc::detail::CounterStream stream{seeds[b], 0};
        for (std::size_t c = 0; c < size_; ++c) {
            const double p = neurons[c].probOne(
                static_cast<double>(sums[b * size_ + c]) * unitCurrent);
            sc::detail::bernoulliFill(out[c].words(b), window, p,
                                      stream);
        }
        if (counts) {
            counts->observations += 1;
            counts->cycles += window;
            // The counter position after the fill IS the number of raw
            // draws this sample consumed (observed, not derived).
            counts->bernoulliDraws += stream.counter;
        }
    }
    return out;
}

std::vector<double>
CrossbarArray::columnProbabilities(
    const std::vector<int> &activations) const
{
    const std::vector<int> sums = columnSums(activations);
    std::vector<double> out(size_);
    for (std::size_t c = 0; c < size_; ++c)
        out[c] = neurons[c].probOne(
            static_cast<double>(sums[c]) * unitCurrent);
    return out;
}

const NeuronCircuit &
CrossbarArray::neuron(std::size_t col) const
{
    assert(col < size_);
    return neurons[col];
}

void
CrossbarArray::applyGrayZoneVariation(double sigma, Rng &rng)
{
    if (!std::isfinite(sigma) || sigma < 0.0)
        throw std::invalid_argument(
            "CrossbarArray::applyGrayZoneVariation: sigma must be finite "
            "and >= 0 (got " + std::to_string(sigma) + ")");
    for (auto &n : neurons) {
        const double base = n.deltaIinUa();
        const double factor =
            std::max(0.1, 1.0 + sigma * rng.normal());
        const double ith = n.ithUa();
        n = NeuronCircuit(base * factor, ith);
    }
}

std::size_t
CrossbarArray::injectStuckCellsSeeded(double fraction, std::uint64_t seed)
{
    if (!(fraction >= 0.0 && fraction <= 1.0))
        throw std::invalid_argument(
            "CrossbarArray::injectStuckCellsSeeded: fraction must be in "
            "[0, 1] (got " + std::to_string(fraction) + ")");
    if (fraction <= 0.0)
        return 0;
    const std::size_t n = cells.size();
    // The mask is drawn position-indexed from the counter stream, so it
    // depends on (seed, fraction) alone — never on which cells happen
    // to be active or on any other RNG consumer's draw order.
    std::vector<std::uint64_t> mask(sc::detail::wordsForLength(n), 0);
    sc::detail::CounterStream stream{seed, 0};
    sc::detail::bernoulliFill(mask.data(), n, fraction, stream);
    std::size_t knocked = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (cells[i].active() && ((mask[i / 64] >> (i % 64)) & 1u)) {
            cells[i].clear();
            weightCache[i] = 0;
            ++knocked;
        }
    }
    return knocked;
}

} // namespace superbnn::crossbar
