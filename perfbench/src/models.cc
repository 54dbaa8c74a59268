#include "models.h"

#include "core/trainer.h"

namespace perfbench {

MlpWorkload
trainMlp()
{
    return yield_surface_util::trainDemoWorkload();
}

CnnWorkload
trainCnn()
{
    CnnWorkload work;
    // Always the synthetic set: the benchmark's inputs must not depend
    // on which dataset files a host happens to have.
    work.data = data::loadCifarOrSynthetic("", /*max_train=*/300,
                                           /*max_test=*/100);
    Rng rng(2024);
    core::RandomizedCnn::Config ccfg;
    ccfg.channels = {6, 12};
    ccfg.poolAfter = {true, true};
    work.cnn = std::make_unique<core::RandomizedCnn>(
        ccfg, core::AqfpBehavior{16, 2.4, 0.0}, aqfp::AttenuationModel(),
        rng);
    core::TrainConfig tcfg;
    tcfg.epochs = 8;
    tcfg.batchSize = 32;
    tcfg.warmupEpochs = 1;
    const core::Trainer trainer(tcfg);
    (void)trainer.train(*work.cnn, work.data.train, work.data.test, rng);
    return work;
}

core::HardwareConfig
mlpConfig()
{
    return {16, 8, 2.4, false, 0.25, 0, 8};
}

core::HardwareConfig
cnnConfig()
{
    return {16, 32, 2.4, false, 0.25, 0, 8};
}

} // namespace perfbench
