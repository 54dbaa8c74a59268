/**
 * @file
 * The three workloads. Each drives the library only through public
 * entry points and checks every output it measures:
 *
 *  - serve: the demo MLP behind serve::InferenceService. A closed phase
 *    keeps 16 requests in flight from one generator thread; an open
 *    phase sends a seeded Poisson schedule at 1000 req/s over the
 *    AF_UNIX line protocol to a serve::SocketServer on at most 4
 *    connections, timing each request from its due time.
 *  - eval-cnn: offline evaluation of the Table-2 scaled CNN on a fixed
 *    64-image test set, 8 images per classScoresSeeded call.
 *  - yield-sweep: core::ScenarioSweep over the demo grid (6 corners) at
 *    16 chips per corner, chips striped over the sharded pool.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aqfp/ledger.h"
#include "common.h"
#include "core/scenario_sweep.h"
#include "models.h"
#include "serve/inference_service.h"
#include "serve/server.h"

namespace perfbench {

/**
 * Exact per-image ledger totals of the activity between two snapshots;
 * false when @p images does not divide every field of the difference.
 */
bool countsPerImage(const aqfp::LedgerCounts &before,
                    const aqfp::LedgerCounts &after, std::uint64_t images,
                    aqfp::LedgerCounts &per_image);

/** CPU utilization over an interval: CPU seconds / (wall * threads). */
double cpuUtilization(double cpu_seconds, double wall_seconds);

// ------------------------------------------------------------- serve ---

class ServeBench
{
  public:
    static constexpr std::size_t kPool = 256;
    static constexpr std::size_t kInFlight = 16;
    static constexpr double kOpenRatePerS = 1000.0;
    static constexpr std::size_t kConnections = 4;

    ServeBench();
    ~ServeBench();
    ServeBench(const ServeBench &) = delete;
    ServeBench &operator=(const ServeBench &) = delete;

    /**
     * One full setup: train the demo MLP, map it, start the service and
     * the socket server (any previous setup is stopped first). Returns
     * the wall seconds; mapMs() and trainS() split it.
     */
    double setup();

    /**
     * Reference answers for the request pool from direct single-request
     * classScoresSeeded calls (outside any timed window), checked
     * against the recorded pool digest.
     */
    void buildReference(Outcome &out);

    struct Closed
    {
        double qps = 0.0;
        double latencyP50Us = 0.0;
        double latencyP99Us = 0.0;
        double batchMean = 0.0;
        double evalP50Us = 0.0;
        double cpuUtil = 0.0;
    };
    Closed closedPhase(double seconds, std::uint64_t seed, Outcome &out);

    struct Open
    {
        double latencyP50Us = 0.0;
        double latencyP99Us = 0.0;
        double lateP99Us = 0.0;
        double queueP50Us = 0.0; ///< in-process replay only
        double evalP50Us = 0.0;  ///< in-process replay only
        double batchMean = 0.0;  ///< in-process replay only
        double cpuUtil = 0.0;
        std::uint64_t completed = 0;
    };
    /** The open schedule over the socket transport. */
    Open openSocketPhase(double seconds, std::uint64_t seed, Outcome &out);
    /** The same schedule submitted in-process (traced run only). */
    Open openReplayPhase(double seconds, std::uint64_t seed, Outcome &out);

    /** Requests the service refused so far. */
    std::uint64_t rejected() const;

    /** Stop the socket server and the service (idempotent). */
    void stop();

    double trainS() const { return trainS_; }
    double mapMs() const { return mapMs_; }
    const MlpWorkload &work() const { return *work_; }
    std::shared_ptr<const MlpWorkload> workPtr() const { return work_; }
    const core::HardwareEvaluator &evaluator() const { return *evaluator_; }

  private:
    struct Arrival
    {
        double dueUs;
        std::size_t pool;
        bool measured; ///< false during the warm-up prefix
    };
    std::vector<Arrival> schedule(double seconds,
                                  std::uint64_t seed) const;
    std::uint64_t poolSeed(std::size_t i) const;
    std::size_t poolSample(std::size_t i) const;
    /** Bit-exact equality with the pool entry's reference answer. */
    bool matches(const serve::InferenceResponse &r,
                 std::size_t pool) const;

    std::shared_ptr<const MlpWorkload> work_;
    std::unique_ptr<core::HardwareEvaluator> evaluator_;
    std::unique_ptr<serve::InferenceService> service_;
    std::unique_ptr<serve::SocketServer> server_;
    std::string socketPath_;
    double trainS_ = 0.0;
    double mapMs_ = 0.0;

    std::vector<Tensor> poolSamples_;
    std::vector<std::vector<double>> refScores_;
    std::vector<std::size_t> refPredicted_;
    std::string refEnergyText_; ///< "<energy> <latency>" as the socket prints
    aqfp::LedgerCounts refCounts_; ///< every response's ledger share
};

// ---------------------------------------------------------- eval-cnn ---

class EvalCnnBench
{
  public:
    static constexpr std::size_t kImages = 64;
    static constexpr std::size_t kBatch = 8;

    /** Train the CNN and map it; returns wall seconds. */
    double setup();

    /** The reference pass in image order, checked against the record. */
    void buildReference(Outcome &out);

    struct Result
    {
        double imagesPerS = 0.0;
        double batchP50Us = 0.0;
        double cpuUtil = 0.0;
    };
    /** Seeded image orders, kBatch images per call, for @p seconds. */
    Result run(double seconds, std::uint64_t seed, Outcome &out);

    double trainS() const { return trainS_; }
    double mapMs() const { return mapMs_; }
    const CnnWorkload &work() const { return *work_; }
    const core::HardwareEvaluator &evaluator() const { return *evaluator_; }
    /** Per-image seed of test image @p i. */
    static std::uint64_t imageSeed(std::size_t i) { return 0xC1FA0000ULL + i; }

  private:
    std::unique_ptr<CnnWorkload> work_;
    std::unique_ptr<core::HardwareEvaluator> evaluator_;
    double trainS_ = 0.0;
    double mapMs_ = 0.0;
    std::vector<Tensor> images_;
    std::vector<std::uint64_t> refHash_; ///< per image
};

// ------------------------------------------------------- yield-sweep ---

class YieldSweepBench
{
  public:
    static constexpr std::size_t kChipsPerCorner = 16;

    explicit YieldSweepBench(std::shared_ptr<const MlpWorkload> work);

    /** The demo surface (6 corners x 12 chips), against the golden digest. */
    void checkDemoSurface(Outcome &out) const;

    struct Result
    {
        double chipsPerS = 0.0;
        double sweepP50Us = 0.0;
        double cpuUtil = 0.0;
    };
    /** Sweeps with seeded master seeds for @p seconds, then verified. */
    Result run(double seconds, std::uint64_t seed, Outcome &out);

    struct ChipPhases
    {
        double mapUs = 0.0;
        double injectUs = 0.0;
        double evalUs = 0.0;
        aqfp::LedgerCounts counts; ///< of the last chip timed
    };
    /** Medians of a sequential replay of runChip's three phases. */
    ChipPhases timeChipPhases(std::size_t chips, std::uint64_t seed) const;

  private:
    /** One chip through the public per-chip calls ScenarioSweep makes. */
    core::ChipResult replayChip(const core::ScenarioCorner &corner,
                                const core::SweepOptions &options,
                                std::uint64_t chip,
                                ChipPhases *phases) const;

    std::shared_ptr<const MlpWorkload> work_;
    core::HardwareConfig base_;
    std::shared_ptr<crossbar::ProgrammedModelCache> refCache_;
};

/** The sweep options one timed sweep runs with. */
core::SweepOptions sweepOptions(std::uint64_t master_seed);

// ------------------------------------------------------------ layers ---

/**
 * Per-layer diagnostics of the traced run: timed single calls into the
 * core, crossbar, sc/simd, aqfp and util layers (metric names in
 * perfbench/README.md), appended to @p out.
 */
void layerDiagnostics(const ServeBench &serve, const EvalCnnBench &cnn,
                      const YieldSweepBench &sweep, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
