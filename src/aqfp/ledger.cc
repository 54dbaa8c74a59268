#include "aqfp/ledger.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace superbnn::aqfp {

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

LedgerCounts
forwardCounts(std::size_t fan_in, std::size_t fan_out, std::size_t cs,
              std::size_t window, std::size_t samples)
{
    if (fan_in == 0 || fan_out == 0 || cs == 0 || window == 0)
        throw std::invalid_argument(
            "aqfp::forwardCounts: fanIn, fanOut, Cs and window must be "
            ">= 1 (got " + std::to_string(fan_in) + ", "
            + std::to_string(fan_out) + ", " + std::to_string(cs) + ", "
            + std::to_string(window) + ")");
    const std::uint64_t n = samples;
    const std::uint64_t L = window;
    const std::uint64_t rowTiles = (fan_in + cs - 1) / cs;
    const std::uint64_t colTiles = (fan_out + cs - 1) / cs;
    LedgerCounts c;
    c.samples = n;
    c.tileObservations = n * rowTiles * colTiles;
    c.crossbarCycles = c.tileObservations * L;
    // The hardware observes every column of a tile for the window, even
    // the columns of a partial group that no APC reads.
    c.bernoulliDraws = c.crossbarCycles * cs;
    // Only real columns are merged, each from rowTiles streams of L
    // bits, and every (sample, column group) serializes one window.
    c.apcAccumulations = n * fan_out;
    c.apcInputBits = c.apcAccumulations * rowTiles * L;
    c.columnGroupSteps = n * colTiles * L;
    c.bufferReadBits = n * fan_in;
    c.bufferWriteBits = c.apcAccumulations;
    return c;
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
