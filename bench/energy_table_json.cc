/**
 * @file
 * Emits the Table 2/3 energy/latency rows as a machine-readable JSON
 * artifact: for every (workload, window) operating point the analytic
 * aqfp::energy prediction AND the ledger measurement — each layer's
 * aqfp::forwardCounts for one spatial position
 * (EnergyModel::measureLayer), priced by the same Table-1 cost model
 * and scaled by the layer's position count. CI uploads the output; the
 * per-row deltas make any drift between the simulator's counts and the
 * analytic tables visible in a diff. The output is fully deterministic.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "aqfp/energy.h"

using namespace superbnn;

namespace {

void
emitWorkload(const aqfp::WorkloadSpec &workload,
             const std::vector<std::size_t> &windows, bool first)
{
    const aqfp::EnergyModel model;
    const std::size_t cs = 16;
    const double freq = 5.0;
    const std::size_t max_act_bits = workload.maxActivationBits();

    for (std::size_t w = 0; w < windows.size(); ++w) {
        const aqfp::AcceleratorConfig config{cs, windows[w], freq, 2.4};
        const aqfp::EnergyReport analytic =
            model.evaluate(workload, config);
        const aqfp::EnergyReport measured =
            model.measureWorkload(workload, config);
        const aqfp::EnergyDelta delta =
            aqfp::reconcile(measured, analytic);

        if (!first || w > 0)
            std::printf(",\n");
        std::printf("{\"workload\":\"%s\",\"crossbarSize\":%zu,"
                    "\"window\":%zu,\"frequencyGhz\":%.17g,\n",
                    workload.name.c_str(), cs, windows[w], freq);
        std::printf(" \"analytic\":%s,\n",
                    aqfp::toJson(analytic).c_str());
        std::printf(" \"measured\":%s,\n",
                    aqfp::toJson(measured).c_str());
        std::printf(" \"delta\":{\"totalEnergyRel\":%.17g,"
                    "\"scModuleEnergyRel\":%.17g,\"latencyRel\":%.17g},\n",
                    delta.totalEnergyRel, delta.scModuleEnergyRel,
                    delta.latencyRel);
        std::printf(" \"layers\":[\n");
        for (std::size_t i = 0; i < workload.layers.size(); ++i) {
            const aqfp::LayerSpec &spec = workload.layers[i];
            std::printf(
                "  {\"name\":\"%s\",\"measured\":%s,"
                "\"analytic\":%s}%s\n",
                spec.name.c_str(),
                aqfp::toJson(model.measureLayer(spec, config, max_act_bits))
                    .c_str(),
                aqfp::toJson(
                    model.evaluateLayer(spec, config, max_act_bits))
                    .c_str(),
                i + 1 < workload.layers.size() ? "," : "");
        }
        std::printf(" ]}");
    }
}

} // namespace

int
main()
{
    std::printf("{\"schema\":\"superbnn-energy-table-v1\",\n");
    std::printf("\"rows\":[\n");
    // Table 2 operating points (CIFAR-scale workloads), then Table 3.
    emitWorkload(aqfp::workloads::vggSmall(), {32, 16, 4, 1}, true);
    emitWorkload(aqfp::workloads::resnet18(), {32}, false);
    emitWorkload(aqfp::workloads::mnistMlp(), {16, 8}, false);
    std::printf("\n]}\n");
    return 0;
}
