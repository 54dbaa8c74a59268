/**
 * @file
 * Hardware-configuration co-optimization (paper Section 5.4): constrain
 * the search space by an energy-efficiency demand, rank the feasible
 * configurations by the analytic average-mismatch-error, then refine the
 * short-list with measured hardware accuracy (the expensive metric).
 */

#include <algorithm>
#include <cstdio>

#include "core/explorer.h"
#include "core/hardware_eval.h"
#include "core/trainer.h"
#include "data/synthetic_mnist.h"

using namespace superbnn;
using namespace superbnn::core;

int
main()
{
    const aqfp::AttenuationModel atten;
    const DesignSpaceExplorer explorer(atten);

    CoOptSpace space;
    space.crossbarSizes = {8, 16, 36};
    space.grayZones = {1.6, 2.4, 3.2};
    space.bitstreamLengths = {4, 16};
    space.minTopsPerWatt = 5e4; // the efficiency demand

    const auto workload = aqfp::workloads::mnistMlp();
    auto candidates = explorer.explore(workload, space);
    std::printf("feasible configurations: %zu\n", candidates.size());

    // Rank by AME, then short-list the best candidate of *each*
    // crossbar size: AME alone under-weights the training dynamics, so
    // the measured pass must compare across sizes (this mirrors the
    // paper's Fig. 11 grid search). AME ignores L, so the sort is
    // stable: ties keep the explorer's grid order.
    std::stable_sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) { return a.ame < b.ame; });
    std::vector<CoOptCandidate> pruned;
    for (const auto &c : candidates) {
        const bool seen = std::any_of(
            pruned.begin(), pruned.end(), [&](const auto &p) {
                return p.config.crossbarSize == c.config.crossbarSize;
            });
        if (!seen)
            pruned.push_back(c);
    }
    candidates = std::move(pruned);
    const std::size_t shortlist =
        std::min<std::size_t>(candidates.size(), 3);

    data::SyntheticMnistOptions dopts;
    dopts.trainSize = 600;
    dopts.testSize = 150;
    const auto ds = data::makeSyntheticMnist(dopts);

    std::printf("\n%6s %6s %8s %10s %12s %10s\n", "Cs", "L", "dI(uA)",
                "AME", "TOPS/W", "hw acc");
    double best_acc = 0.0;
    aqfp::AcceleratorConfig best_cfg;
    for (std::size_t i = 0; i < shortlist; ++i) {
        const auto &cand = candidates[i];
        Rng rng(2025);
        RandomizedMlp model(
            784, {64}, 10,
            AqfpBehavior{
                static_cast<double>(cand.config.crossbarSize),
                cand.config.deltaIinUa, 0.0},
            atten, rng);
        TrainConfig tcfg;
        tcfg.epochs = 15;
        tcfg.warmupEpochs = 2;
        const Trainer trainer(tcfg);
        trainer.train(model, ds.train, ds.test, rng);
        HardwareEvaluator hw(atten,
                             {cand.config.crossbarSize,
                              cand.config.bitstreamLength,
                              cand.config.deltaIinUa});
        hw.mapMlp(model);
        Rng eval_rng(13);
        const double acc = hw.evaluate(ds.test, 100, eval_rng);
        std::printf("%6zu %6zu %8.1f %10.4f %12.3g %9.1f%%\n",
                    cand.config.crossbarSize,
                    cand.config.bitstreamLength,
                    cand.config.deltaIinUa, cand.ame,
                    cand.energy.topsPerWatt, 100.0 * acc);
        std::fflush(stdout);
        if (acc > best_acc) {
            best_acc = acc;
            best_cfg = cand.config;
        }
    }
    std::printf("\nselected configuration: Cs=%zu, L=%zu, "
                "deltaIin=%.1f uA (measured %.1f%%)\n",
                best_cfg.crossbarSize, best_cfg.bitstreamLength,
                best_cfg.deltaIinUa, 100.0 * best_acc);
    return 0;
}
