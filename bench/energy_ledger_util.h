/**
 * @file
 * The deterministic energy-probe JSON, shared by the energy_probe bench
 * and its golden-file regression test (tests/test_energy_ledger.cc), so
 * the bytes CI diffs across thread counts and SIMD arms are produced by
 * exactly one code path.
 */

#ifndef SUPERBNN_BENCH_ENERGY_LEDGER_UTIL_H
#define SUPERBNN_BENCH_ENERGY_LEDGER_UTIL_H

#include <cstddef>
#include <string>
#include <vector>

#include "aqfp/attenuation.h"
#include "aqfp/energy.h"
#include "aqfp/ledger.h"
#include "crossbar/mapper.h"
#include "crossbar/tile_executor.h"
#include "tensor/random.h"

namespace energy_ledger_util {

using namespace superbnn;

/**
 * The fixed probe workload (two geometry layers at Cs = 16, window 16,
 * a 6-sample batch through forward + forwardDecoded on the default
 * shared-pool executor), measured, priced and reconciled, as
 * deterministic JSON. Nothing timing- or environment-dependent is
 * emitted: the bytes must be identical for every SUPERBNN_THREADS
 * value and every SUPERBNN_SIMD arm.
 */
inline std::string
energyProbeJson()
{
    const aqfp::AttenuationModel atten;
    const aqfp::AcceleratorConfig config{16, 16, 5.0, 2.4};
    const crossbar::MappedLayer l1 =
        crossbar::geometryLayer(96, 48, config.crossbarSize, atten);
    const crossbar::MappedLayer l2 =
        crossbar::geometryLayer(48, 10, config.crossbarSize, atten);

    // threads = 0: the shared pool's shard 0, sized by SUPERBNN_THREADS —
    // the CI diff legs vary real scheduling underneath these counts.
    const crossbar::TileExecutor exec(config.bitstreamLength, false,
                                      0.25, 0);
    std::vector<std::vector<int>> batch(6, std::vector<int>(96));
    Rng setup(7);
    for (auto &sample : batch)
        for (auto &a : sample)
            a = setup.bernoulli(0.5) ? 1 : -1;

    aqfp::HardwareLedger led1, led2;
    Rng rng(11);
    const auto hidden = exec.forward(l1, batch, rng, &led1);
    std::vector<std::vector<int>> mid(hidden.size());
    for (std::size_t b = 0; b < hidden.size(); ++b)
        mid[b].assign(hidden[b].begin(), hidden[b].begin() + 48);
    (void)exec.forwardDecoded(l2, mid, rng, &led2);

    const aqfp::EnergyModel model;
    const std::size_t max_act_bits = 48;
    const aqfp::LayerSpec specs[2] = {
        aqfp::LayerSpec::fc("l1", 96, 48),
        aqfp::LayerSpec::fc("l2", 48, 10),
    };
    const aqfp::LedgerCounts counts[2] = {led1.totals(), led2.totals()};

    std::string out;
    out += "{\"schema\":\"superbnn-energy-probe-v1\",\n";
    out += "\"config\":{\"crossbarSize\":16,\"window\":16,"
           "\"frequencyGhz\":5,\"samples\":6},\n";
    out += "\"layers\":[\n";
    for (int i = 0; i < 2; ++i) {
        aqfp::LedgerPricingContext ctx =
            aqfp::layerReplayContext(specs[i], config, max_act_bits);
        ctx.countScale = 1.0;
        ctx.images = 6.0; // counts cover the whole 6-sample batch
        const aqfp::EnergyReport measured =
            model.priceLedger(counts[i], ctx);
        const aqfp::EnergyReport analytic =
            model.evaluateLayer(specs[i], config, max_act_bits);
        out += "{\"name\":\"" + specs[i].name + "\",\n";
        out += " \"counts\":" + aqfp::toJson(counts[i]) + ",\n";
        out += " \"measured\":" + aqfp::toJson(measured) + ",\n";
        out += " \"analytic\":" + aqfp::toJson(analytic) + "}";
        out += i == 0 ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

} // namespace energy_ledger_util

#endif // SUPERBNN_BENCH_ENERGY_LEDGER_UTIL_H
