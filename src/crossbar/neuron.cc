#include "crossbar/neuron.h"

namespace superbnn::crossbar {

NeuronCircuit::NeuronCircuit(double delta_iin_ua, double ith_ua)
    : model(delta_iin_ua, ith_ua)
{
}

double
NeuronCircuit::probOne(double current_ua) const
{
    return model.probOne(current_ua);
}

} // namespace superbnn::crossbar
