/**
 * @file
 * In-process inference service: concurrent request admission, linger
 * batching onto the executor pool, per-request ledger attribution.
 *
 * The service wraps one mapped core::HardwareEvaluator and turns it
 * from a batch-evaluation API into a request/response one: callers on
 * any thread submit() single samples and receive futures, while a
 * single dispatcher thread coalesces queued requests into executor
 * megabatches. Coalescing is invisible in the responses — each request
 * carries its own noise seed and runs through
 * core::HardwareEvaluator::classScoresSeeded, whose contract makes
 * every response bit-identical to a direct single-sample
 * `classScores(sample, Rng(seed))` call regardless of batch
 * composition, batch size, thread count, or SIMD arm.
 *
 * The full request lifecycle, batching/linger semantics, backpressure
 * policy, and attribution math are documented in docs/SERVING.md.
 */

#ifndef SUPERBNN_SERVE_INFERENCE_SERVICE_H
#define SUPERBNN_SERVE_INFERENCE_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "aqfp/ledger.h"
#include "core/hardware_eval.h"
#include "util/sharded_executor_pool.h"

namespace superbnn::serve {

namespace detail {

/**
 * One request's exact share of a megabatch's ledger activity: every
 * field of @p batch divided by @p n. The division is exact by
 * construction — activity counts are value-independent and identical
 * for every sample of a batch — and that contract is *checked*, not
 * assumed: a zero @p n or any non-divisible field throws
 * std::invalid_argument (naming the offending field) instead of
 * silently truncating in Release builds. @p batch is the megabatch's
 * own counts (core::HardwareEvaluator::classScoresSeeded's `counts`
 * out-parameter), so a non-divisible field can only mean an
 * accounting bug; the service fails the batch's requests with it.
 */
aqfp::LedgerCounts countsShare(const aqfp::LedgerCounts &batch,
                               std::uint64_t n);

} // namespace detail

/**
 * Admission and batching knobs. fromEnv() overlays the defaults with
 * the SUPERBNN_SERVE_* environment variables so the standalone server
 * and loadgen binaries are tunable without flags.
 */
struct ServiceConfig
{
    /// Largest megabatch the dispatcher hands the evaluator at once.
    std::size_t maxBatch = 16;
    /// Most the dispatcher lingers after the oldest queued request
    /// arrived, waiting for the batch to fill, before dispatching a
    /// partial one. It lingers only while arrivals overlap: the oldest
    /// request arrived within this window of the previous batch
    /// finishing (or of the service starting), or more than one
    /// request is queued. A lone request that finds the dispatcher
    /// idle for a full window is dispatched at once. 0 = never linger.
    /// At most kMaxLingerMicros.
    std::size_t maxLingerMicros = 200;
    /// Upper bound on maxLingerMicros (10 s): larger values are
    /// rejected, so a linger deadline cannot overflow the clock.
    static constexpr std::size_t kMaxLingerMicros = 10'000'000;
    /// Bounded admission queue: submit() beyond this rejects with
    /// QueueFullError (backpressure; see docs/SERVING.md).
    std::size_t maxQueue = 256;
    /// AQFP clock the per-request energy/latency attribution is priced
    /// at (passed to core::HardwareEvaluator::energyReports).
    double frequencyGhz = 5.0;

    /**
     * Defaults overridden by SUPERBNN_SERVE_MAX_BATCH (>= 1),
     * SUPERBNN_SERVE_LINGER_US (0 to kMaxLingerMicros), and
     * SUPERBNN_SERVE_QUEUE (>= 1), each with util::envSize's
     * ignore-invalid-with-notice semantics.
     */
    static ServiceConfig fromEnv();
};

/**
 * One served request: the prediction plus this request's exact share
 * of the hardware cost of the megabatch it rode in.
 *
 * Attribution is exact, not amortized-approximate: ledger counts are
 * value-independent and identical for every sample in a batch, so the
 * batch's own observed counts divide by the batch size without
 * remainder (checked by detail::countsShare).
 */
struct InferenceResponse
{
    std::uint64_t requestId = 0;       ///< service-assigned, monotonic
    std::size_t predicted = 0;         ///< argmax class
    std::vector<double> scores;        ///< per-class scores
    aqfp::LedgerCounts counts;         ///< this request's activity share
    double energyAj = 0.0;             ///< measured energy, this request
    double hardwareLatencyUs = 0.0;    ///< simulated on-chip latency
    double queueMicros = 0.0;          ///< host wall time spent queued
    double serviceMicros = 0.0;        ///< host wall time submit -> done
    std::size_t batchSize = 0;         ///< megabatch it was served in
};

/** submit() on a full admission queue (the documented reject policy). */
class QueueFullError : public std::runtime_error
{
  public:
    QueueFullError() : std::runtime_error("inference queue full") {}
};

/** submit() on a stopped (or stopping) service. */
class ShutdownError : public std::runtime_error
{
  public:
    ShutdownError() : std::runtime_error("inference service stopped") {}
};

/** Monotonic service counters (snapshot; see InferenceService::stats). */
struct ServiceStats
{
    std::uint64_t accepted = 0; ///< requests admitted to the queue
    std::uint64_t rejected = 0; ///< requests refused (queue full)
    std::uint64_t served = 0;   ///< responses fulfilled
    std::uint64_t batches = 0;  ///< megabatches dispatched
    std::size_t largestBatch = 0;
    std::uint64_t lingered = 0; ///< batches held back for the linger
};

/**
 * The long-lived in-process inference service.
 *
 * Threading: submit()/trySubmit()/stats() are safe from any number of
 * client threads. Only the dispatcher drives evaluation, and it
 * attributes each megabatch from the counts its own evaluation calls
 * return (see detail::countsShare), so other callers may evaluate on
 * the same evaluator without skewing any response. Within one
 * megabatch the dispatcher may fan out: on hosts where
 * util::ShardedExecutorPool resolves more than one shard
 * (SUPERBNN_NUMA), the batch splits into per-shard sub-batches
 * evaluated concurrently, each pinned to its node's pool. That is
 * invisible in the responses, which stay bit-identical across every
 * SUPERBNN_NUMA / SUPERBNN_PIN / thread-count setting.
 *
 * Shutdown: stop() (also run by the destructor) drains — requests
 * already admitted are still served and their futures fulfilled; only
 * NEW submissions are rejected with ShutdownError. No future obtained
 * from submit() is ever abandoned.
 */
class InferenceService
{
  public:
    /**
     * @param evaluator  a mapped evaluator (must outlive the service)
     * @param config     admission/batching knobs
     * @throws std::invalid_argument when config.maxBatch is 0 or
     *         config.maxLingerMicros exceeds
     *         ServiceConfig::kMaxLingerMicros
     */
    InferenceService(const core::HardwareEvaluator &evaluator,
                     ServiceConfig config);
    ~InferenceService();

    InferenceService(const InferenceService &) = delete;
    InferenceService &operator=(const InferenceService &) = delete;

    /**
     * Admit one request. @p sample is a (1, D) or (1, C, H, W) tensor;
     * @p seed pins the request's stochastic-computing noise stream —
     * the response is a pure function of (mapped model, sample, seed).
     *
     * @throws std::invalid_argument when @p sample's element count is
     *         not the mapped model's input size (nothing is queued)
     * @throws QueueFullError when maxQueue requests are already queued
     * @throws ShutdownError  after stop()
     */
    std::future<InferenceResponse> submit(Tensor sample,
                                          std::uint64_t seed);

    /**
     * Load-shedding admission: nullopt instead of QueueFullError /
     * ShutdownError (the load generator's drop-and-count path). A
     * wrong-size sample is a caller error, not load, and still throws
     * std::invalid_argument.
     */
    std::optional<std::future<InferenceResponse>>
    trySubmit(Tensor sample, std::uint64_t seed);

    /**
     * Stop admitting, drain every queued request, join the dispatcher.
     * Idempotent.
     */
    void stop();

    ServiceStats stats() const;

    const ServiceConfig &config() const { return cfg; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        std::uint64_t id;
        Tensor sample;
        std::uint64_t seed;
        Clock::time_point enqueued;
        std::promise<InferenceResponse> promise;
    };

    /**
     * Shared admission path: nullopt (or, when @p throw_on_reject, the
     * corresponding exception) on a stopped service or full queue.
     */
    std::optional<std::future<InferenceResponse>>
    trySubmitLocked(Tensor sample, std::uint64_t seed,
                    bool throw_on_reject);
    /**
     * The dispatcher thread's admit-linger-dispatch loop. It lingers
     * only while arrivals overlap (see ServiceConfig::maxLingerMicros).
     */
    void dispatchLoop();
    /** Evaluate one megabatch and fulfill its promises. */
    void serveBatch(std::vector<Pending> &batch);
    /**
     * classScoresSeeded across the sharded executor pool: with k > 1
     * shards the megabatch splits into up to k contiguous sub-batches,
     * sub-batch j run as task j of ShardedExecutorPool::
     * parallelForSharded, on shard j, so every shard's tile loops stay
     * on its own NUMA node. Responses are bit-identical to the unsharded
     * call — classScoresSeeded makes each entry a pure function of
     * (model, sample, seed), so partitioning cannot change answers.
     * @p counts receives the summed activity of the sub-batches.
     */
    std::vector<std::vector<double>>
    shardedScores(std::vector<Tensor> &samples,
                  const std::vector<std::uint64_t> &seeds,
                  aqfp::LedgerCounts &counts) const;
    /** Lazily price one image's energy/latency from the ledgers. */
    void refreshUnitCost();

    const core::HardwareEvaluator &evaluator;
    const ServiceConfig cfg;
    /// The process-wide sharded pool, acquired at construction (the
    /// SUPERBNN_NUMA / SUPERBNN_PIN resolution point for this service).
    const std::shared_ptr<util::ShardedExecutorPool> shards_;

    mutable std::mutex mutex_;
    std::condition_variable wake;
    std::deque<Pending> queue;
    bool stopping = false;
    std::uint64_t nextId = 1;
    ServiceStats counters;

    /// Per-image measured cost, priced once after the first batch
    /// (ledger activity per image is constant for a mapped model).
    bool unitCostValid = false;
    double unitEnergyAj = 0.0;
    double unitLatencyUs = 0.0;

    /// Serializes the dispatcher join (concurrent stop() calls).
    std::mutex joinMutex;
    std::thread dispatcher;
};

} // namespace superbnn::serve

#endif // SUPERBNN_SERVE_INFERENCE_SERVICE_H
