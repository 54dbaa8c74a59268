#include "core/trainer.h"

#include <cstdio>
#include <stdexcept>

namespace superbnn::core {

Trainer::Trainer(TrainConfig config) : cfg(config)
{
    if (cfg.batchSize == 0)
        throw std::invalid_argument(
            "Trainer: TrainConfig::batchSize must be positive");
}

TrainResult
Trainer::train(BnnModel &model, const data::Dataset &train_set,
               const data::Dataset &test_set, Rng &rng) const
{
    TrainResult result;
    nn::Sgd sgd(cfg.lr, cfg.momentum, cfg.weightDecay);
    nn::CosineWarmupSchedule schedule(cfg.lr, cfg.warmupEpochs,
                                      cfg.epochs);
    nn::ReCUSchedule recu(cfg.tauStart, cfg.tauEnd);
    nn::SoftmaxCrossEntropy loss;
    data::DataLoader loader(train_set, cfg.batchSize);
    auto params = model.parameters();

    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        sgd.setLr(schedule.lrAt(epoch));
        loader.shuffle(rng);
        double epoch_loss = 0.0;
        const std::size_t batches = loader.batchCount();
        for (std::size_t b = 0; b < batches; ++b) {
            const auto batch = loader.batch(b);
            nn::Sgd::zeroGrad(params);
            const Tensor logits = model.forward(batch.inputs, true);
            epoch_loss += loss.forward(logits, batch.labels);
            model.backward(loss.backward());
            sgd.step(params);
            if (cfg.useReCU) {
                const double tau = recu.tauAt(epoch, cfg.epochs);
                for (Tensor *w : model.binaryWeightTensors())
                    nn::applyReCU(*w, tau);
            }
        }
        epoch_loss /= static_cast<double>(batches);
        result.trainLoss.push_back(epoch_loss);
        const double acc = evaluate(model, test_set);
        result.testAccuracy.push_back(acc);
        if (cfg.verbose) {
            std::printf("epoch %2zu  lr %.4f  loss %.4f  test acc %.2f%%\n",
                        epoch, sgd.lr(), epoch_loss, 100.0 * acc);
        }
    }
    result.finalTestAccuracy = result.testAccuracy.empty()
        ? 0.0
        : result.testAccuracy.back();
    return result;
}

double
Trainer::evaluate(BnnModel &model, const data::Dataset &dataset,
                  std::size_t max_samples, std::size_t batch_size)
{
    if (batch_size == 0)
        throw std::invalid_argument(
            "Trainer::evaluate: batch_size must be positive");
    data::DataLoader loader(dataset, batch_size);
    std::size_t seen = 0, correct = 0;
    const std::size_t cap =
        max_samples == 0 ? dataset.size() : max_samples;
    for (std::size_t b = 0; b < loader.batchCount() && seen < cap; ++b) {
        const auto batch = loader.batch(b);
        const Tensor logits = model.forward(batch.inputs, false);
        const std::size_t n = batch.labels.size();
        const std::size_t c = logits.dim(1);
        for (std::size_t i = 0; i < n && seen < cap; ++i, ++seen) {
            std::size_t best = 0;
            float best_v = logits[i * c];
            for (std::size_t j = 1; j < c; ++j) {
                if (logits[i * c + j] > best_v) {
                    best_v = logits[i * c + j];
                    best = j;
                }
            }
            if (best == batch.labels[i])
                ++correct;
        }
    }
    return seen == 0 ? 0.0
                     : static_cast<double>(correct)
            / static_cast<double>(seen);
}

} // namespace superbnn::core
