#include "sc/accumulation.h"

#include <cassert>
#include <cmath>

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
AccumulationModule::rawCount(
    const std::vector<StreamView> &streams) const
{
    assert(streams.size() == crossbars_);
#ifndef NDEBUG
    for (const StreamView &v : streams)
        assert(v.length == window_);
#endif
    // The APC is applied per clock cycle, but both counters are
    // cycle-separable given the fixed input pairing, so the window total
    // is computed word-at-a-time on the packed streams instead of
    // transposing into per-cycle byte slices. The word loops live in the
    // counters, which run them through the simd::KernelSet popcount
    // kernels (bit-exact on every dispatch arm).
    return useExact ? exact.countStreams(streams)
                    : approx.countStreams(streams);
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
    if (useExact)
        return 0.0;
    return static_cast<double>(approx.droppedPairs()) / 4.0;
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
