/**
 * @file
 * Recorded reference values the correctness gate compares against. All
 * are deterministic by the library's contracts (identical for every
 * thread count, SIMD arm and batch composition) and independent of the
 * workload seed; a change that moves one has changed what the simulator
 * computes, not how fast.
 */

#ifndef PERFBENCH_EXPECTED_H
#define PERFBENCH_EXPECTED_H

#include <cstddef>
#include <cstdint>

namespace perfbench::expected {

/// Digest of the serve request pool's reference answers: for pool
/// entries 0..255 in order, (predicted class, score vector) of a direct
/// single-request classScoresSeeded call.
constexpr std::uint64_t kServePoolDigest = 12433644274361058065ULL;

/// Digest of the eval-cnn reference pass: per-image (index, predicted
/// class, score vector) hashes, in image order.
constexpr std::uint64_t kCnnPassDigest = 16897979740713747081ULL;

/// Correct predictions of the eval-cnn reference pass (of 64 images).
constexpr std::size_t kCnnPassCorrect = 23;

/// Digest of the demo yield surface, core::toJson(...) + "\n" — the
/// bytes of tests/golden/yield_surface.json.
constexpr std::uint64_t kDemoSurfaceDigest = 12720797028647532557ULL;

/// Ledger totals per image (aqfp::toJson) of the MLP at Cs 16, L 8.
constexpr const char *kMlpCountsPerImage =
    "{\"samples\":2,\"tileObservations\":200,\"crossbarCycles\":1600,"
    "\"bernoulliDraws\":25600,\"apcAccumulations\":74,"
    "\"apcInputBits\":25408,\"columnGroupSteps\":40,"
    "\"bufferReadBits\":848,\"bufferWriteBits\":74}";

/// Ledger totals per image (aqfp::toJson) of the CNN at Cs 16, L 32.
constexpr const char *kCnnCountsPerImage =
    "{\"samples\":1281,\"tileObservations\":3120,\"crossbarCycles\":99840,"
    "\"bernoulliDraws\":1597440,\"apcAccumulations\":9226,"
    "\"apcInputBits\":801792,\"columnGroupSteps\":40992,"
    "\"bufferReadBits\":42240,\"bufferWriteBits\":9226}";

} // namespace perfbench::expected

#endif // PERFBENCH_EXPECTED_H
