/**
 * @file
 * Trained-weight hash gate: training runs its kernels on the shared
 * executor pool, and the trained models must stay bit-identical to the
 * recorded ones at every pool size. The hash is FNV-1a-64 over the
 * little-endian bytes of every parameter value, then of every
 * batch-norm running mean and variance.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/models.h"
#include "core/trainer.h"
#include "data/real_data.h"
#include "scoped_threads.h"
#include "yield_surface_util.h"

namespace {

using namespace superbnn;

// Recorded with the sequential training kernels; no golden, digest or
// trained model may move, so these never get re-recorded.
constexpr std::uint64_t kDemoMlpHash = 0x90e8039b804552afULL;
constexpr std::uint64_t kTable2CnnHash = 0x8b374a85ed6ff618ULL;

void
hashTensor(std::uint64_t &h, const Tensor &t)
{
    for (std::size_t i = 0; i < t.size(); ++i) {
        const float v = t[i];
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xFFu;
            h *= 0x100000001b3ULL;
        }
    }
}

template <typename Model>
std::uint64_t
weightHash(Model &model)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const nn::Parameter *p : model.parameters())
        hashTensor(h, p->value);
    for (const auto &cell : model.cells()) {
        hashTensor(h, cell.bn->runningMean());
        hashTensor(h, cell.bn->runningVar());
    }
    return h;
}

using test_util::ScopedThreads;

std::uint64_t
demoMlpHash()
{
    auto work = yield_surface_util::trainDemoWorkload();
    return weightHash(*work.mlp);
}

/** A short run of the Table-2 CNN configuration (channels {6, 12}, Cs 16). */
std::uint64_t
table2CnnHash()
{
    const data::LoadedData data = data::loadCifarOrSynthetic("", 96, 32);
    Rng rng(2024);
    core::RandomizedCnn::Config ccfg;
    ccfg.channels = {6, 12};
    ccfg.poolAfter = {true, true};
    core::RandomizedCnn cnn(ccfg, core::AqfpBehavior{16, 2.4, 0.0},
                            aqfp::AttenuationModel(), rng);
    core::TrainConfig tcfg;
    tcfg.epochs = 2;
    tcfg.batchSize = 32;
    tcfg.warmupEpochs = 1;
    (void)core::Trainer(tcfg).train(cnn, data.train, data.test, rng);
    return weightHash(cnn);
}

TEST(TrainedWeightHash, DemoMlpAtOneAndFourThreads)
{
    for (const char *threads : {"1", "4"}) {
        ScopedThreads scope(threads);
        const std::uint64_t h = demoMlpHash();
        EXPECT_EQ(h, kDemoMlpHash) << "SUPERBNN_THREADS=" << threads
                                   << " hash 0x" << std::hex << h;
    }
}

TEST(TrainedWeightHash, Table2CnnAtOneAndFourThreads)
{
    for (const char *threads : {"1", "4"}) {
        ScopedThreads scope(threads);
        const std::uint64_t h = table2CnnHash();
        EXPECT_EQ(h, kTable2CnnHash) << "SUPERBNN_THREADS=" << threads
                                     << " hash 0x" << std::hex << h;
    }
}

} // namespace
