/**
 * @file
 * Ablation for Section 5.4.2: the average mismatch error (AME, Eq. 18)
 * over the (gray-zone width, crossbar size) plane, and the co-optimizer
 * choosing a configuration under an energy-efficiency constraint.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/explorer.h"

using namespace superbnn;
using namespace superbnn::core;

int
main()
{
    const aqfp::AttenuationModel atten;
    const AmeAnalyzer analyzer(atten);

    bench_util::header("AME(Cs, deltaIin) grid (Eq. 18)");
    const std::vector<double> sizes = {8, 16, 18, 36, 72, 144};
    const std::vector<double> zones = {0.8, 1.6, 2.4, 3.2, 4.0};
    std::printf("%10s", "Cs \\ dI");
    for (double gz : zones)
        std::printf(" %9.1fuA", gz);
    std::printf("\n");
    for (double cs : sizes) {
        std::printf("%10.0f", cs);
        for (double gz : zones)
            std::printf(" %11.4f", analyzer.ame(cs, gz));
        std::printf("\n");
    }
    const auto best = analyzer.minimize(sizes, zones);
    std::printf("\ngrid minimum: Cs=%.0f, deltaIin=%.1f uA, AME=%.4f\n",
                best.crossbarSize, best.deltaIinUa, best.ame);

    bench_util::header(
        "Co-optimization under an efficiency constraint (Sec 5.4)");
    const DesignSpaceExplorer explorer(atten);
    CoOptSpace space;
    space.minTopsPerWatt = 1e5;
    const auto workload = aqfp::workloads::vggSmall();
    const auto feasible = explorer.explore(workload, space);
    const auto chosen = DesignSpaceExplorer::best(feasible, costs::ame());
    std::printf("feasible candidates: %zu\n", feasible.size());
    std::printf("chosen: Cs=%zu, L=%zu, deltaIin=%.1f uA | "
                "AME=%.4f, %s TOPS/W (w/o cooling)\n",
                chosen.config.crossbarSize,
                chosen.config.bitstreamLength,
                chosen.config.deltaIinUa, chosen.ame,
                bench_util::sci(chosen.energy.topsPerWatt).c_str());
    return 0;
}
