#include "aqfp/ledger.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>

namespace superbnn::aqfp {

TileCounts &
TileCounts::operator+=(const TileCounts &o)
{
    observations += o.observations;
    cycles += o.cycles;
    bernoulliDraws += o.bernoulliDraws;
    return *this;
}

bool
operator==(const TileCounts &a, const TileCounts &b)
{
    return a.observations == b.observations && a.cycles == b.cycles
        && a.bernoulliDraws == b.bernoulliDraws;
}

LedgerCounts &
LedgerCounts::operator+=(const LedgerCounts &o)
{
    samples += o.samples;
    tileObservations += o.tileObservations;
    crossbarCycles += o.crossbarCycles;
    bernoulliDraws += o.bernoulliDraws;
    apcAccumulations += o.apcAccumulations;
    apcInputBits += o.apcInputBits;
    columnGroupSteps += o.columnGroupSteps;
    bufferReadBits += o.bufferReadBits;
    bufferWriteBits += o.bufferWriteBits;
    return *this;
}

bool
operator==(const LedgerCounts &a, const LedgerCounts &b)
{
    return a.samples == b.samples
        && a.tileObservations == b.tileObservations
        && a.crossbarCycles == b.crossbarCycles
        && a.bernoulliDraws == b.bernoulliDraws
        && a.apcAccumulations == b.apcAccumulations
        && a.apcInputBits == b.apcInputBits
        && a.columnGroupSteps == b.columnGroupSteps
        && a.bufferReadBits == b.bufferReadBits
        && a.bufferWriteBits == b.bufferWriteBits;
}

bool
operator!=(const LedgerCounts &a, const LedgerCounts &b)
{
    return !(a == b);
}

void
HardwareLedger::reset()
{
    *this = HardwareLedger();
}

void
HardwareLedger::beginForward(std::size_t row_tiles, std::size_t col_tiles,
                             std::size_t samples)
{
    assert(row_tiles >= 1 && col_tiles >= 1);
    const std::size_t new_rows = std::max(rows_, row_tiles);
    const std::size_t new_cols = std::max(cols_, col_tiles);
    if (new_rows != rows_ || new_cols != cols_) {
        // Remap the old grid coordinate-wise into the union extents.
        std::vector<TileCounts> next(new_rows * new_cols);
        for (std::size_t rt = 0; rt < rows_; ++rt)
            for (std::size_t ct = 0; ct < cols_; ++ct)
                next[rt * new_cols + ct] = grid[rt * cols_ + ct];
        grid = std::move(next);
        rows_ = new_rows;
        cols_ = new_cols;
    }
    counters.samples += samples;
}

void
HardwareLedger::recordTile(std::size_t rt, std::size_t ct,
                           const TileCounts &counts)
{
    assert(rt < rows_ && ct < cols_);
    grid[rt * cols_ + ct] += counts;
}

void
HardwareLedger::recordMerge(std::uint64_t accumulations,
                            std::uint64_t input_bits,
                            std::uint64_t group_steps)
{
    counters.apcAccumulations += accumulations;
    counters.apcInputBits += input_bits;
    counters.columnGroupSteps += group_steps;
}

void
HardwareLedger::recordBuffer(std::uint64_t read_bits,
                             std::uint64_t write_bits)
{
    counters.bufferReadBits += read_bits;
    counters.bufferWriteBits += write_bits;
}

LedgerCounts
HardwareLedger::totals() const
{
    LedgerCounts t = counters;
    for (const TileCounts &tc : grid) {
        t.tileObservations += tc.observations;
        t.crossbarCycles += tc.cycles;
        t.bernoulliDraws += tc.bernoulliDraws;
    }
    return t;
}

TileCounts
HardwareLedger::tile(std::size_t rt, std::size_t ct) const
{
    if (rt >= rows_ || ct >= cols_)
        return {};
    return grid[rt * cols_ + ct];
}

std::string
toJson(const LedgerCounts &c)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"samples\":%" PRIu64 ",\"tileObservations\":%" PRIu64
        ",\"crossbarCycles\":%" PRIu64 ",\"bernoulliDraws\":%" PRIu64
        ",\"apcAccumulations\":%" PRIu64 ",\"apcInputBits\":%" PRIu64
        ",\"columnGroupSteps\":%" PRIu64 ",\"bufferReadBits\":%" PRIu64
        ",\"bufferWriteBits\":%" PRIu64 "}",
        c.samples, c.tileObservations, c.crossbarCycles,
        c.bernoulliDraws, c.apcAccumulations, c.apcInputBits,
        c.columnGroupSteps, c.bufferReadBits, c.bufferWriteBits);
    return buf;
}

} // namespace superbnn::aqfp
