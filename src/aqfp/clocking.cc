#include "aqfp/clocking.h"

#include <cassert>

namespace superbnn::aqfp {

std::size_t
LogicNetlist::addGate(CellType type, std::size_t level,
                      std::vector<std::size_t> fanin)
{
#ifndef NDEBUG
    for (std::size_t src : fanin) {
        assert(src < gates_.size());
        assert(gates_[src].level < level);
    }
#endif
    gates_.push_back({type, level, std::move(fanin)});
    if (level + 1 > depth_)
        depth_ = level + 1;
    return gates_.size() - 1;
}

std::size_t
LogicNetlist::logicJj(const CellLibrary &lib) const
{
    std::size_t total = 0;
    for (const auto &g : gates_)
        total += lib.jjCount(g.type);
    return total;
}

LogicNetlist
LogicNetlist::random(std::size_t gate_count, std::size_t depth,
                     double skip_bias, Rng &rng)
{
    assert(depth >= 2 && gate_count >= depth);
    assert(skip_bias >= 0.0 && skip_bias < 1.0);
    LogicNetlist net;

    // Primary inputs at level 0.
    const std::size_t inputs = std::max<std::size_t>(4, gate_count / 16);
    std::vector<std::vector<std::size_t>> by_level(depth);
    for (std::size_t i = 0; i < inputs; ++i)
        by_level[0].push_back(net.addGate(CellType::Buffer, 0));

    // Gate-type mix tuned to an average of ~6 JJ per functional gate,
    // matching majority-logic-heavy AQFP datapaths.
    const CellType kinds[5] = {CellType::Majority, CellType::And,
                               CellType::Or, CellType::Inverter,
                               CellType::Splitter};

    for (std::size_t i = 0; i < gate_count; ++i) {
        const std::size_t level =
            1 + static_cast<std::size_t>(rng.randint(
                    0, static_cast<std::int64_t>(depth) - 2));
        // Ensure source levels exist: draw the level-gap of each fanin
        // from 1 + Geometric(skip_bias), truncated at the current level.
        std::vector<std::size_t> fanin;
        const CellType type = kinds[rng.randint(0, 4)];
        const std::size_t nin =
            (type == CellType::Inverter || type == CellType::Splitter) ? 1
                                                                       : 2;
        for (std::size_t f = 0; f < nin; ++f) {
            std::size_t gap = 1;
            while (gap < level && rng.bernoulli(skip_bias))
                ++gap;
            const std::size_t src_level = level - gap;
            if (by_level[src_level].empty()) {
                // No gate there yet; fall back to a primary input.
                fanin.push_back(by_level[0][static_cast<std::size_t>(
                    rng.randint(0,
                        static_cast<std::int64_t>(by_level[0].size()) - 1))]);
            } else {
                const auto &cands = by_level[src_level];
                fanin.push_back(cands[static_cast<std::size_t>(rng.randint(
                    0, static_cast<std::int64_t>(cands.size()) - 1))]);
            }
        }
        const std::size_t idx = net.addGate(type, level, std::move(fanin));
        by_level[level].push_back(idx);
    }
    return net;
}

ClockingOptimizer::ClockingOptimizer(CellLibrary library)
    : lib(std::move(library))
{
}

std::size_t
ClockingOptimizer::buffersForEdge(std::size_t gap, std::size_t phases)
{
    assert(gap >= 1 && phases >= 3);
    // Overlap window: with k phases, data can traverse floor(k/4) logic
    // levels per hop (adjacent-stage overlap only for the 4-phase base).
    const std::size_t span = std::max<std::size_t>(1, phases / 4);
    return (gap + span - 1) / span - 1;
}

ClockingReport
ClockingOptimizer::analyze(const LogicNetlist &netlist,
                           std::size_t phases) const
{
    ClockingReport rep;
    rep.phases = phases;
    rep.logicJj = netlist.logicJj(lib);
    rep.bufferCount = 0;
    for (const auto &g : netlist.gates()) {
        for (std::size_t src : g.fanin) {
            const std::size_t gap = g.level - netlist.gates()[src].level;
            rep.bufferCount += buffersForEdge(gap, phases);
        }
    }
    rep.bufferJj = rep.bufferCount * lib.jjCount(CellType::Buffer);
    rep.totalJj = rep.logicJj + rep.bufferJj;
    rep.reductionVs4Phase = 0.0;
    return rep;
}

std::vector<ClockingReport>
ClockingOptimizer::compare(const LogicNetlist &netlist) const
{
    std::vector<ClockingReport> reports;
    for (std::size_t phases : {4u, 8u, 16u})
        reports.push_back(analyze(netlist, phases));
    const double base = static_cast<double>(reports.front().totalJj);
    for (auto &r : reports)
        r.reductionVs4Phase = 1.0 - static_cast<double>(r.totalJj) / base;
    return reports;
}

BufferChainMemory::BufferChainMemory(std::size_t words, std::size_t bits,
                                     std::size_t phases, CellLibrary library)
    : words_(words), bits_(bits), phases_(phases), lib(std::move(library))
{
    assert(words >= 1 && bits >= 1);
    assert(phases >= 3);
}

std::size_t
BufferChainMemory::chainJj() const
{
    // One circulating buffer per clock phase per stored bit; the chain is
    // fully balanced by construction (no inserted path buffers).
    return words_ * bits_ * phases_ * lib.jjCount(CellType::Buffer);
}

std::size_t
BufferChainMemory::fixedJj() const
{
    // Output coupling / readout drivers, independent of the phase count:
    // one 2-JJ coupling element per stored bit.
    return words_ * bits_ * 2;
}

std::size_t
BufferChainMemory::totalJj() const
{
    return chainJj() + fixedJj();
}

} // namespace superbnn::aqfp
