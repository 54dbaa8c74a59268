/**
 * @file
 * The trained models and hardware operating points the workloads run:
 * the demo MLP (784-64-10, bench/yield_surface_util.h) at Cs = 16, L = 8,
 * and the Table-2 scaled CNN (channels {6, 12}, both pooled) trained on
 * the synthetic CIFAR set exactly as bench/table2_cifar10 does, at
 * Cs = 16, L = 32. Training is deterministic, so every setup yields the
 * same weights.
 */

#ifndef PERFBENCH_MODELS_H
#define PERFBENCH_MODELS_H

#include <memory>

#include "core/hardware_eval.h"
#include "core/models.h"
#include "data/real_data.h"
#include "yield_surface_util.h"

namespace perfbench {

using namespace superbnn;

using MlpWorkload = yield_surface_util::DemoWorkload;

/** Train the demo MLP (the same run as yield_surface_util). */
MlpWorkload trainMlp();

/** The Table-2 scaled CNN and its synthetic CIFAR data. */
struct CnnWorkload
{
    data::LoadedData data;
    std::unique_ptr<core::RandomizedCnn> cnn;
};

/** Train the Table-2 scaled CNN (the same run as bench/table2_cifar10). */
CnnWorkload trainCnn();

/** The serving operating point (bench/loadgen's): Cs 16, L 8. */
core::HardwareConfig mlpConfig();

/** The CNN evaluation operating point: Cs 16, L 32, eval batch 8. */
core::HardwareConfig cnnConfig();

} // namespace perfbench

#endif // PERFBENCH_MODELS_H
