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

    std::size_t inputs() const { return inputs_; }

    /** Gate inventory of the full-adder tree for JJ accounting. */
    aqfp::NetlistSummary netlist() const;

  private:
    std::size_t inputs_;
};

/**
 * Approximate parallel counter: each input pair (a, b) is pre-combined
 * by one OR and one AND gate (a 2:2 compressor) contributing
 * (a|b) + (a&b) = a + b; the configured fraction of pairs drops the AND
 * path to save gates, undercounting a (1,1) pair there by 1. The count
 * error is small and negatively biased (bounded by droppedPairs()).
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
