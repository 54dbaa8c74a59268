#include "sc/apc.h"

#include <cassert>
#include <cmath>

namespace superbnn::sc {

ParallelCounter::ParallelCounter(std::size_t inputs) : inputs_(inputs)
{
    assert(inputs >= 1);
}

std::size_t
ParallelCounter::count(const std::vector<std::uint8_t> &bits) const
{
    assert(bits.size() == inputs_);
    std::size_t ones = 0;
    for (auto b : bits) {
        assert(b == 0 || b == 1);
        ones += b;
    }
    return ones;
}

aqfp::NetlistSummary
ParallelCounter::netlist() const
{
    aqfp::NetlistSummary net;
    if (inputs_ > 1) {
        // Full-adder tree: T-1 full adders; each AQFP full adder is two
        // majority gates (sum/carry) plus two inverters.
        const std::size_t fas = inputs_ - 1;
        net.add(aqfp::CellType::Majority, 2 * fas);
        net.add(aqfp::CellType::Inverter, 2 * fas);
        net.add(aqfp::CellType::Splitter, fas); // fanout of carries
    }
    return net;
}

ApproxParallelCounter::ApproxParallelCounter(std::size_t inputs,
                                             double drop_fraction)
    : inputs_(inputs)
{
    assert(inputs >= 1);
    assert(drop_fraction >= 0.0 && drop_fraction <= 1.0);
    const std::size_t pairs = inputs / 2;
    droppedPairs_ = static_cast<std::size_t>(
        std::floor(static_cast<double>(pairs) * drop_fraction));
}

std::size_t
ApproxParallelCounter::count(const std::vector<std::uint8_t> &bits) const
{
    assert(bits.size() == inputs_);
    std::size_t ones = 0;
    const std::size_t pairs = inputs_ / 2;
    for (std::size_t p = 0; p < pairs; ++p) {
        const std::uint8_t a = bits[2 * p];
        const std::uint8_t b = bits[2 * p + 1];
        assert(a <= 1 && b <= 1);
        if (p < droppedPairs_) {
            // Carry path dropped: (1,1) undercounts by one.
            ones += (a | b);
        } else {
            ones += a + b;
        }
    }
    if (inputs_ % 2 == 1)
        ones += bits.back();
    return ones;
}

aqfp::NetlistSummary
ApproxParallelCounter::netlist() const
{
    aqfp::NetlistSummary net;
    // Each dropped pair is pre-combined by a single OR gate (8 JJs),
    // replacing a full-adder path (~24 JJs) in the tree; kept inputs
    // feed the full-adder tree directly.
    net.add(aqfp::CellType::Or, droppedPairs_);
    const std::size_t tree_inputs = inputs_ - droppedPairs_;
    if (tree_inputs > 1) {
        const std::size_t fas = tree_inputs - 1;
        net.add(aqfp::CellType::Majority, 2 * fas);
        net.add(aqfp::CellType::Inverter, 2 * fas);
        net.add(aqfp::CellType::Splitter, fas);
    }
    return net;
}

} // namespace superbnn::sc
