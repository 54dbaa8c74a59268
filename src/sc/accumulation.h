/**
 * @file
 * SC-based accumulation module (paper Section 4.3, Fig. 6b).
 *
 * A BNN layer whose fan-in exceeds one crossbar is split over T crossbars.
 * Each crossbar column emits an L-bit stochastic stream (the AQFP neuron
 * observed over the window). Per clock cycle an APC counts the ones among
 * the T corresponding column bits; the counts accumulate over the window
 * and a comparator against a reference produces the 1-bit binary
 * activation for the next layer:
 *
 *   output = +1  iff  sum_t sum_l b[t][l] >= Ref,  Ref = T*L/2 + offset
 *
 * which realizes sign( sum of bipolar values ) with an optional threshold
 * offset used to carry the residual of the batch-norm matching.
 */

#ifndef SUPERBNN_SC_ACCUMULATION_H
#define SUPERBNN_SC_ACCUMULATION_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aqfp/cell_library.h"
#include "sc/apc.h"
#include "sc/bitstream.h"

namespace superbnn::sc {

/**
 * The inter-crossbar accumulation module for one output column.
 */
class AccumulationModule
{
  public:
    /**
     * @param crossbars      number of row tiles T feeding the module
     * @param window         SC observation window length L
     * @param use_exact_apc  use the exact parallel counter instead of the
     *                       approximate one (ablation knob)
     * @param drop_fraction  approximation aggressiveness of the APC
     */
    AccumulationModule(std::size_t crossbars, std::size_t window,
                       bool use_exact_apc = false,
                       double drop_fraction = 0.25);

    /**
     * Run the module on T bitstreams of length L.
     *
     * @param streams          one stream per crossbar (size T, length L)
     * @param reference_offset added to the bipolar zero reference T*L/2;
     *                         positive offsets bias the output toward -1
     * @return +1 or -1 binary activation
     */
    int accumulate(const std::vector<Bitstream> &streams,
                   double reference_offset = 0.0) const;

    /** Copy-free variant over word views. */
    int accumulate(const std::vector<StreamView> &streams,
                   double reference_offset = 0.0) const;

    /** Total ones-count over the window (before comparison). */
    std::size_t rawCount(const std::vector<Bitstream> &streams) const;

    /** Copy-free variant of rawCount over word views. */
    std::size_t rawCount(const std::vector<StreamView> &streams) const;

    /**
     * rawCount over T zero-tailed streams packed back to back (stream t
     * at @p streams + t * wordsForLength(L)): the tile executor's layout.
     */
    std::size_t rawCount(const std::uint64_t *streams) const;

    /**
     * Comparator decision for a window-total ones count: +1 iff it
     * reaches T*L/2 - apcBiasPerCycle() * L + @p reference_offset.
     */
    int decideFromCount(std::size_t raw_count,
                        double reference_offset = 0.0) const;

    /** Bipolar decode of a window-total ones count, in [-T, +T]. */
    double decodeFromCount(std::size_t raw_count) const;

    /**
     * Expected per-cycle undercount of the approximate APC around the
     * decision point (0 for the exact counter); the comparator
     * reference and decode are calibrated by this constant.
     */
    double apcBiasPerCycle() const;

    /** The bipolar value implied by the raw count, in [-T, +T]. */
    double decodedSum(const std::vector<Bitstream> &streams) const;

    /** Copy-free variant of decodedSum over word views. */
    double decodedSum(const std::vector<StreamView> &streams) const;

    /** Gate inventory: APC + accumulator + comparator, for JJ accounting. */
    aqfp::NetlistSummary netlist() const;

    /**
     * Bits entering the module over one full accumulation: T streams
     * of L bits. aqfp::forwardCounts charges this per merge (see
     * aqfp::LedgerCounts::apcInputBits).
     */
    std::size_t mergeInputBits() const { return crossbars_ * window_; }

  private:
    std::size_t crossbars_;
    std::size_t window_;
    bool useExact;
    ParallelCounter exact;
    ApproxParallelCounter approx;

    /** Input pairs counted through the OR pre-combine (0 when exact). */
    std::size_t droppedPairs() const;
};

} // namespace superbnn::sc

#endif // SUPERBNN_SC_ACCUMULATION_H
