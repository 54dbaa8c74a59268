/**
 * @file
 * Hardware activity ledger for the word-parallel execution path (the
 * "measure, don't model" side of the Tables 2/3 energy claims).
 *
 * The analytic model in aqfp/energy.h *derives* its activity from a
 * layer's tiling geometry with Cs-wide column groups. The ledger counts
 * what the tile executor does: tile observations, the raw Bernoulli
 * draws the hardware's counter RNG makes, APC merges of the layer's
 * real output columns, serialized column-group steps and buffer
 * traffic. None of these depend on input values, so one function,
 * forwardCounts(), defines them from the geometry; the executor records
 * exactly that, and aqfp::energy prices the counts with the same
 * Table-1 cell costs, frequency scaling and cryocooler overhead it uses
 * analytically. tests/test_energy_ledger.cc checks forwardCounts
 * against real executor runs (and the executor's two-phase reference
 * test against the draws its counter streams actually consume), and
 * reconciles the priced counts with the analytic model per layer.
 *
 * Determinism contract: every count is an integer function of (layer
 * geometry, batch size, window) — never of values, scheduling, thread
 * count, SIMD arm or batch split — so ledger totals are bit-identical
 * across SUPERBNN_THREADS, every SUPERBNN_SIMD arm, and batch-of-N vs
 * N singles.
 */

#ifndef SUPERBNN_AQFP_LEDGER_H
#define SUPERBNN_AQFP_LEDGER_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace superbnn::aqfp {

/**
 * Activity of one crossbar tile, as CrossbarArray::observeBatchSeeded
 * reads it back from its counter streams.
 */
struct TileCounts
{
    std::uint64_t observations = 0;   ///< (sample) observe passes
    std::uint64_t cycles = 0;         ///< active cycles: observations * L
    std::uint64_t bernoulliDraws = 0; ///< raw counter-RNG draws consumed
};

/**
 * Activity totals: everything the pricing model needs, as plain
 * integers (equality-comparable for the determinism property tests).
 */
struct LedgerCounts
{
    /// Executor samples seen (for a conv layer driven patch-wise this
    /// is images * spatial positions, not images).
    std::uint64_t samples = 0;
    std::uint64_t tileObservations = 0; ///< one per (sample, tile)
    std::uint64_t crossbarCycles = 0;   ///< tileObservations * L
    /// Raw counter-RNG draws: every tile observes all Cs columns for
    /// the window, Cs * L per observation.
    std::uint64_t bernoulliDraws = 0;
    /// APC column merges: one per (sample, output column) actually
    /// accumulated — partial tail column groups count only their real
    /// columns, unlike the analytic model's Cs-wide charge.
    std::uint64_t apcAccumulations = 0;
    /// Bits entering the accumulation modules: rowTiles * L per merge.
    std::uint64_t apcInputBits = 0;
    /// Serialized compute cycles: column groups execute one after
    /// another, L cycles each, per sample.
    std::uint64_t columnGroupSteps = 0;
    std::uint64_t bufferReadBits = 0;  ///< activation bits fetched
    std::uint64_t bufferWriteBits = 0; ///< activation bits written back

    LedgerCounts &operator+=(const LedgerCounts &o);
};

bool operator==(const LedgerCounts &a, const LedgerCounts &b);
bool operator!=(const LedgerCounts &a, const LedgerCounts &b);

/**
 * The activity of one executor forward of @p samples samples through a
 * fanIn x fanOut layer tiled at crossbar size @p cs (rowTiles =
 * ceil(fanIn / Cs), colTiles = ceil(fanOut / Cs)) with window @p window.
 * Zero samples give zero counts.
 * @throws std::invalid_argument when fan_in, fan_out, cs or window is 0
 */
LedgerCounts forwardCounts(std::size_t fan_in, std::size_t fan_out,
                           std::size_t cs, std::size_t window,
                           std::size_t samples);

/**
 * Accumulator the executor adds each forward's counts to (counts add
 * up until reset()). A plain single-writer value: the executor adds
 * after its parallel pass, on the calling thread.
 */
class HardwareLedger
{
  public:
    void add(const LedgerCounts &counts) { counts_ += counts; }

    /** The totals so far. */
    LedgerCounts totals() const { return counts_; }

    /** Zero every counter. */
    void reset() { counts_ = LedgerCounts{}; }

  private:
    LedgerCounts counts_;
};

/**
 * Deterministic single-line JSON of the raw counts (fixed key order,
 * locale-independent) — shared by the energy_probe bench and the
 * golden-file regression test so both emit byte-identical text.
 */
std::string toJson(const LedgerCounts &counts);

} // namespace superbnn::aqfp

#endif // SUPERBNN_AQFP_LEDGER_H
