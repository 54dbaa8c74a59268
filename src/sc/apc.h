/**
 * @file
 * Parallel counters for stochastic-number accumulation (paper Sec. 4.3).
 *
 * The SC-based accumulation module sums the per-cycle bits coming from the
 * row tiles of a layer with an approximate parallel counter (APC, Kim et
 * al. 2015): the APC counts the ones among its T parallel inputs each
 * cycle and emits a binary count. The approximate variant replaces the
 * lowest adder layer with OR/AND pre-combining, trading a small, bounded
 * counting error for fewer logic gates, which suits AQFP's gate budget.
 */

#ifndef SUPERBNN_SC_APC_H
#define SUPERBNN_SC_APC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aqfp/cell_library.h"
#include "sc/bitstream.h"

namespace superbnn::sc {

/**
 * Exact parallel counter: a full-adder tree counting ones among T inputs.
 */
class ParallelCounter
{
  public:
    explicit ParallelCounter(std::size_t inputs);

    /** Count ones in @p bits (size must equal inputs()). */
    std::size_t count(const std::vector<std::uint8_t> &bits) const;

    /**
     * Total ones counted over a whole observation window at once: input
     * t's per-cycle bit is bit l of streams[t]. Equivalent to summing
     * count() over every cycle slice, but runs word-at-a-time on the
     * packed streams (the exact counter is cycle-separable, so this is
     * just the sum of stream popcounts). Views must share one length
     * and obey the packed zero-tail invariant.
     */
    std::size_t countStreams(const std::vector<StreamView> &streams) const;

    std::size_t inputs() const { return inputs_; }

    /** Gate inventory of the full-adder tree for JJ accounting. */
    aqfp::NetlistSummary netlist() const;

  private:
    std::size_t inputs_;
};

/**
 * Approximate parallel counter: pairs of inputs are pre-combined with one
 * OR and one AND gate (a 2:2 compressor approximation); the OR output is
 * weighted 1 and the AND output is weighted 1, which undercounts exactly
 * when a pair is (1,1) followed by... — concretely, pair (a,b) is
 * approximated as contributing (a|b) + (a&b), which equals a+b, except
 * the approximate variant drops the AND path for the configured fraction
 * of pairs to save gates, undercounting (1,1) pairs there by 1.
 *
 * The default drops the AND path on half of the pairs, matching the
 * gate-count savings of the approximate de-randomizer while keeping the
 * count error small and negatively biased (bounded by droppedPairs()).
 */
class ApproxParallelCounter
{
  public:
    /**
     * @param inputs          number of parallel single-bit inputs T
     * @param drop_fraction   fraction of pairs whose carry (AND) path is
     *                        omitted, in [0, 1]
     */
    explicit ApproxParallelCounter(std::size_t inputs,
                                   double drop_fraction = 0.25);

    /** Approximate ones-count of @p bits. */
    std::size_t count(const std::vector<std::uint8_t> &bits) const;

    /**
     * Window-total approximate count on packed streams: dropped pairs
     * contribute popcount(a | b) word-wise (the OR pre-combine applied
     * every cycle), kept inputs contribute their plain popcounts.
     * Equivalent to summing count() over every cycle slice; views as in
     * ParallelCounter::countStreams.
     */
    std::size_t countStreams(const std::vector<StreamView> &streams) const;

    /** Upper bound on the undercount for any input. */
    std::size_t maxUndercount() const { return droppedPairs_; }

    std::size_t inputs() const { return inputs_; }
    std::size_t droppedPairs() const { return droppedPairs_; }

    /** Gate inventory (strictly smaller than the exact counter's). */
    aqfp::NetlistSummary netlist() const;

  private:
    std::size_t inputs_;
    std::size_t droppedPairs_;
};

} // namespace superbnn::sc

#endif // SUPERBNN_SC_APC_H
