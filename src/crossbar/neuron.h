/**
 * @file
 * AQFP neuron circuit of a crossbar column (paper Section 4.1).
 *
 * The neuron is a single AQFP buffer acting simultaneously as the sign
 * function and the ADC: it senses the direction of the merged column
 * current and emits a 1-bit result. Its threshold current Ith is
 * programmable (the batch-norm matching of Section 5.2 writes it), and
 * its decision is stochastic inside the gray-zone.
 */

#ifndef SUPERBNN_CROSSBAR_NEURON_H
#define SUPERBNN_CROSSBAR_NEURON_H

#include "aqfp/grayzone.h"

namespace superbnn::crossbar {

/** One crossbar-column neuron: AQFP buffer with programmable threshold. */
class NeuronCircuit
{
  public:
    /**
     * @param delta_iin_ua gray-zone width of the buffer (uA)
     * @param ith_ua       threshold current (uA), default 0 (pure sign)
     */
    explicit NeuronCircuit(double delta_iin_ua = 2.4, double ith_ua = 0.0);

    /** Probability of emitting '1' for a merged column current (uA). */
    double probOne(double current_ua) const;

    double ithUa() const { return model.ith(); }
    void setIthUa(double ith_ua) { model.setIth(ith_ua); }
    double deltaIinUa() const { return model.deltaIin(); }

    const aqfp::GrayZoneModel &grayZone() const { return model; }

    /// Exact equality of every parameter probOne reads (a new neuron
    /// parameter joins here): the tile executor's memo key.
    bool operator==(const NeuronCircuit &other) const
    {
        return ithUa() == other.ithUa()
            && deltaIinUa() == other.deltaIinUa();
    }

  private:
    aqfp::GrayZoneModel model;
};

} // namespace superbnn::crossbar

#endif // SUPERBNN_CROSSBAR_NEURON_H
