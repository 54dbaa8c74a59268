#include "sc/accumulation.h"

#include <cassert>
#include <cmath>

#include "simd/kernels.h"

namespace superbnn::sc {

AccumulationModule::AccumulationModule(std::size_t crossbars,
                                       std::size_t window,
                                       bool use_exact_apc,
                                       double drop_fraction)
    : crossbars_(crossbars), window_(window), useExact(use_exact_apc),
      exact(crossbars), approx(crossbars, drop_fraction)
{
    assert(crossbars >= 1 && window >= 1);
}

std::size_t
AccumulationModule::droppedPairs() const
{
    return useExact ? 0 : approx.droppedPairs();
}

// Both counters are cycle-separable given the fixed input pairing, so
// the window total (the sum of count() over every cycle) is computed on
// the packed words: a dropped pair contributes popcount(a | b), every
// other input its popcount, through the simd::KernelSet kernels.

std::size_t
AccumulationModule::rawCount(
    const std::vector<StreamView> &streams) const
{
    assert(streams.size() == crossbars_);
#ifndef NDEBUG
    for (const StreamView &v : streams)
        assert(v.length == window_);
#endif
    const simd::KernelSet &kernels = simd::active();
    const std::size_t words = detail::wordsForLength(window_);
    const std::size_t dropped = droppedPairs();
    std::size_t ones = 0;
    for (std::size_t p = 0; p < dropped; ++p)
        ones += kernels.orPopcountWords(streams[2 * p].words,
                                        streams[2 * p + 1].words, words);
    for (std::size_t t = 2 * dropped; t < crossbars_; ++t)
        ones += kernels.popcountWords(streams[t].words, words);
    return ones;
}

std::size_t
AccumulationModule::rawCount(const std::uint64_t *streams) const
{
    const simd::KernelSet &kernels = simd::active();
    const std::size_t words = detail::wordsForLength(window_);
    const std::size_t dropped = droppedPairs();
    std::size_t ones = 0;
    for (std::size_t p = 0; p < dropped; ++p, streams += 2 * words)
        ones += kernels.orPopcountWords(streams, streams + words, words);
    // The kept inputs are one contiguous run: a single popcount.
    return ones
        + kernels.popcountWords(streams, (crossbars_ - 2 * dropped) * words);
}

std::size_t
AccumulationModule::rawCount(const std::vector<Bitstream> &streams) const
{
    std::vector<StreamView> views;
    views.reserve(streams.size());
    for (const Bitstream &s : streams)
        views.push_back(viewOf(s));
    return rawCount(views);
}

double
AccumulationModule::apcBiasPerCycle() const
{
    // The approximate APC undercounts by one for every dropped pair
    // that reads (1,1); around the decision point the inputs are
    // balanced (p ~ 0.5), so the expected undercount per cycle is
    // droppedPairs / 4. The comparator reference is calibrated for this
    // systematic bias (a one-time design constant, not data dependent).
    return static_cast<double>(droppedPairs()) / 4.0;
}

int
AccumulationModule::decideFromCount(std::size_t raw_count,
                                    double reference_offset) const
{
    const double ref = static_cast<double>(crossbars_ * window_) / 2.0
        - apcBiasPerCycle() * static_cast<double>(window_)
        + reference_offset;
    return static_cast<double>(raw_count) >= ref ? +1 : -1;
}

double
AccumulationModule::decodeFromCount(std::size_t raw_count) const
{
    const double count = static_cast<double>(raw_count)
        + apcBiasPerCycle() * static_cast<double>(window_);
    const double tl = static_cast<double>(crossbars_ * window_);
    // Bipolar decode of the aggregate: each bit contributes +/-1 scaled to
    // the per-crossbar value range, so the sum spans [-T, +T].
    return (2.0 * count - tl) / static_cast<double>(window_);
}

int
AccumulationModule::accumulate(const std::vector<Bitstream> &streams,
                               double reference_offset) const
{
    return decideFromCount(rawCount(streams), reference_offset);
}

double
AccumulationModule::decodedSum(const std::vector<Bitstream> &streams) const
{
    return decodeFromCount(rawCount(streams));
}

int
AccumulationModule::accumulate(const std::vector<StreamView> &streams,
                               double reference_offset) const
{
    return decideFromCount(rawCount(streams), reference_offset);
}

double
AccumulationModule::decodedSum(
    const std::vector<StreamView> &streams) const
{
    return decodeFromCount(rawCount(streams));
}

aqfp::NetlistSummary
AccumulationModule::netlist() const
{
    aqfp::NetlistSummary net =
        useExact ? exact.netlist() : approx.netlist();
    // Accumulator register over the window plus the final comparator.
    const std::size_t count_bits = static_cast<std::size_t>(std::ceil(
        std::log2(static_cast<double>(crossbars_ * window_) + 1.0)));
    net.add(aqfp::CellType::Buffer, count_bits);
    net.add(aqfp::CellType::Majority, 2 * count_bits);
    net.add(aqfp::CellType::ReadOut, 1);
    return net;
}

} // namespace superbnn::sc
