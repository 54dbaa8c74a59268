/**
 * @file
 * Instrumented hardware activity ledger for the word-parallel execution
 * path (the "measure, don't model" side of the Tables 2/3 energy
 * claims).
 *
 * The analytic model in aqfp/energy.h *derives* activity counts from a
 * layer's tiling geometry. The ledger instead *records* them per
 * executed forward: the tile executor reports every tile observation,
 * every raw Bernoulli draw the hardware's counter RNG makes, every APC
 * column merge and every serialized column-group step into a
 * HardwareLedger, and aqfp::energy prices those counts with the same
 * Table-1 cell costs, frequency scaling and cryocooler overhead it uses
 * analytically. The draw counts equal what
 * crossbar::CrossbarArray::observeBatchSeeded reads back from its
 * counter streams (the executor's differential test checks this). A
 * differential test layer (tests/test_energy_ledger.cc) reconciles the
 * two models per layer.
 *
 * Determinism contract: every count is a sum of integer contributions
 * that depend only on (layer geometry, batch size, window) — never on
 * values, scheduling, thread count, SIMD arm or batch split — so ledger
 * totals are bit-identical across SUPERBNN_THREADS, every SUPERBNN_SIMD
 * arm, and batch-of-N vs N singles.
 *
 * Thread safety: a ledger is a plain single-writer value. The executor
 * never records from inside a parallel task — the calling thread
 * records a forward's activity after the barrier — so a ledger needs
 * no synchronization of its own.
 * Concurrent evaluations each record into call-local ledgers and merge
 * the totals under their owner's lock (see core::HardwareEvaluator).
 */

#ifndef SUPERBNN_AQFP_LEDGER_H
#define SUPERBNN_AQFP_LEDGER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace superbnn::aqfp {

/** Observed activity of one crossbar tile. */
struct TileCounts
{
    std::uint64_t observations = 0;   ///< (sample) observe passes
    std::uint64_t cycles = 0;         ///< active cycles: observations * L
    std::uint64_t bernoulliDraws = 0; ///< raw counter-RNG draws consumed

    TileCounts &operator+=(const TileCounts &o);
};

bool operator==(const TileCounts &a, const TileCounts &b);

/**
 * Totals of one ledger: everything the pricing model needs, as plain
 * integers (equality-comparable for the determinism property tests).
 */
struct LedgerCounts
{
    /// Executor samples seen (for a conv layer driven patch-wise this
    /// is images * spatial positions, not images).
    std::uint64_t samples = 0;
    std::uint64_t tileObservations = 0; ///< sum of TileCounts::observations
    std::uint64_t crossbarCycles = 0;   ///< sum of TileCounts::cycles
    std::uint64_t bernoulliDraws = 0;   ///< sum of TileCounts::bernoulliDraws
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
 * Single-writer activity accumulator one executor forward (or many —
 * counts accumulate until reset()) reports into.
 *
 * Usage: pass a ledger to TileExecutor::forward/forwardDecoded. After
 * the parallel pass the executor's calling thread announces it with
 * beginForward() (growing the per-tile grid to the layer's tiling),
 * records every tile's activity with recordTile(), and the pass's
 * merge and buffer activity with recordMerge()/recordBuffer().
 * A ledger reused across layers of different geometry accumulates
 * per-tile counts coordinate-wise over the union grid.
 */
class HardwareLedger
{
  public:
    /** Zero every counter and drop the tile grid. */
    void reset();

    /**
     * Announce a forward pass of @p samples samples over a
     * row_tiles x col_tiles tiling. Grows the tile grid (preserving
     * coordinates) and counts the samples.
     */
    void beginForward(std::size_t row_tiles, std::size_t col_tiles,
                      std::size_t samples);

    /** Add one tile's observed activity (inside the announced grid). */
    void recordTile(std::size_t rt, std::size_t ct,
                    const TileCounts &counts);

    /** Add merge-phase activity. */
    void recordMerge(std::uint64_t accumulations,
                     std::uint64_t input_bits,
                     std::uint64_t group_steps);

    /** Add buffer traffic. */
    void recordBuffer(std::uint64_t read_bits, std::uint64_t write_bits);

    /** The totals so far. */
    LedgerCounts totals() const;

    /** Tile-grid extents seen so far. */
    std::size_t rowTiles() const { return rows_; }
    std::size_t colTiles() const { return cols_; }

    /** Per-tile counts (zero for never-touched coordinates). */
    TileCounts tile(std::size_t rt, std::size_t ct) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    /// Row-major rows_ x cols_ grid; slot (rt, ct) at rt * cols_ + ct.
    std::vector<TileCounts> grid;
    /// Everything but the per-tile fields, which totals() sums from
    /// the grid.
    LedgerCounts counters;
};

/**
 * Deterministic single-line JSON of the raw counts (fixed key order,
 * locale-independent) — shared by the energy_probe bench and the
 * golden-file regression test so both emit byte-identical text.
 */
std::string toJson(const LedgerCounts &counts);

} // namespace superbnn::aqfp

#endif // SUPERBNN_AQFP_LEDGER_H
