/**
 * @file
 * SupeRBNN training loop (paper Sections 5.1, 5.3, 6.1).
 *
 * Recipe: SGD with momentum, linear warmup then cosine-annealed learning
 * rate, and the ReCU weight rectified clamp whose tau ramps 0.85 -> 0.99
 * across the run. The randomized-aware forward/backward is inside the
 * model (CellBinarize); the trainer is architecture agnostic.
 */

#ifndef SUPERBNN_CORE_TRAINER_H
#define SUPERBNN_CORE_TRAINER_H

#include <vector>

#include "core/models.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/recu.h"

namespace superbnn::core {

/** Hyper-parameters of one training run. */
struct TrainConfig
{
    std::size_t epochs = 10;
    std::size_t batchSize = 64;
    double lr = 0.05;
    double momentum = 0.9;
    double weightDecay = 1e-4;
    std::size_t warmupEpochs = 2;     ///< paper: 5 (of 600)
    bool useReCU = true;
    double tauStart = 0.85;           ///< paper Section 6.1
    double tauEnd = 0.99;
    bool verbose = false;
};

/** Per-epoch training telemetry. */
struct TrainResult
{
    std::vector<double> trainLoss;     ///< mean loss per epoch
    std::vector<double> testAccuracy;  ///< software accuracy per epoch
    double finalTestAccuracy = 0.0;
};

/**
 * Architecture-agnostic trainer for BnnModels.
 */
class Trainer
{
  public:
    /**
     * @throws std::invalid_argument when config.batchSize is 0; tau
     *         outside [0.5, 1] throws from train()'s ReCUSchedule
     */
    explicit Trainer(TrainConfig config = {});

    /** Train @p model; evaluates on @p test after every epoch. */
    TrainResult train(BnnModel &model, const data::Dataset &train_set,
                      const data::Dataset &test_set, Rng &rng) const;

    /**
     * Software evaluation: forward in inference mode (stochastic
     * activations sample, faithful to the device) and measure accuracy.
     *
     * @param max_samples cap on evaluated samples (0 = all)
     * @throws std::invalid_argument when @p batch_size is 0
     */
    static double evaluate(BnnModel &model, const data::Dataset &dataset,
                           std::size_t max_samples = 0,
                           std::size_t batch_size = 64);

    const TrainConfig &config() const { return cfg; }

  private:
    TrainConfig cfg;
};

} // namespace superbnn::core

#endif // SUPERBNN_CORE_TRAINER_H
