#include "serve/inference_service.h"

#include <algorithm>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/env.h"

namespace superbnn::serve {

namespace {

double
elapsedMicros(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

} // namespace

namespace detail {

namespace {

/** @p value / @p n, throwing (naming @p field) unless exact. */
std::uint64_t
exactShare(std::uint64_t value, std::uint64_t n, const char *field)
{
    if (value % n != 0)
        throw std::invalid_argument(
            std::string("countsShare: ") + field + " ("
            + std::to_string(value)
            + ") not divisible by batch size " + std::to_string(n)
            + " — a batch's counts must split evenly over its "
              "requests");
    return value / n;
}

} // namespace

aqfp::LedgerCounts
countsShare(const aqfp::LedgerCounts &batch, std::uint64_t n)
{
    // The exact-divisibility contract is CHECKED (not an assert): a
    // Release build must refuse to mis-attribute rather than silently
    // truncate if the accounting is ever wrong.
    if (n == 0)
        throw std::invalid_argument("countsShare: batch size is zero");
    aqfp::LedgerCounts s;
    s.samples = exactShare(batch.samples, n, "samples");
    s.tileObservations =
        exactShare(batch.tileObservations, n, "tileObservations");
    s.crossbarCycles =
        exactShare(batch.crossbarCycles, n, "crossbarCycles");
    s.bernoulliDraws =
        exactShare(batch.bernoulliDraws, n, "bernoulliDraws");
    s.apcAccumulations =
        exactShare(batch.apcAccumulations, n, "apcAccumulations");
    s.apcInputBits = exactShare(batch.apcInputBits, n, "apcInputBits");
    s.columnGroupSteps =
        exactShare(batch.columnGroupSteps, n, "columnGroupSteps");
    s.bufferReadBits =
        exactShare(batch.bufferReadBits, n, "bufferReadBits");
    s.bufferWriteBits =
        exactShare(batch.bufferWriteBits, n, "bufferWriteBits");
    return s;
}

} // namespace detail

ServiceConfig
ServiceConfig::fromEnv()
{
    ServiceConfig cfg;
    cfg.maxBatch = util::envSize("SUPERBNN_SERVE_MAX_BATCH",
                                 cfg.maxBatch, /*min_value=*/1);
    cfg.maxLingerMicros =
        util::envSize("SUPERBNN_SERVE_LINGER_US", cfg.maxLingerMicros,
                      /*min_value=*/0, ServiceConfig::kMaxLingerMicros);
    cfg.maxQueue = util::envSize("SUPERBNN_SERVE_QUEUE", cfg.maxQueue,
                                 /*min_value=*/1);
    return cfg;
}

InferenceService::InferenceService(
    const core::HardwareEvaluator &evaluator, ServiceConfig config)
    : evaluator(evaluator), cfg(config),
      shards_(util::ShardedExecutorPool::shared())
{
    // A zero maxBatch would spin the dispatcher on empty batches
    // forever, never serving a request.
    if (cfg.maxBatch == 0)
        throw std::invalid_argument("InferenceService: maxBatch is 0");
    if (cfg.maxLingerMicros > ServiceConfig::kMaxLingerMicros)
        throw std::invalid_argument(
            "InferenceService: maxLingerMicros "
            + std::to_string(cfg.maxLingerMicros) + " exceeds "
            + std::to_string(ServiceConfig::kMaxLingerMicros));
    dispatcher = std::thread([this] { dispatchLoop(); });
}

InferenceService::~InferenceService()
{
    stop();
}

std::future<InferenceResponse>
InferenceService::submit(Tensor sample, std::uint64_t seed)
{
    auto admitted = trySubmitLocked(std::move(sample), seed,
                                    /*throw_on_reject=*/true);
    return std::move(*admitted);
}

std::optional<std::future<InferenceResponse>>
InferenceService::trySubmit(Tensor sample, std::uint64_t seed)
{
    return trySubmitLocked(std::move(sample), seed,
                           /*throw_on_reject=*/false);
}

std::optional<std::future<InferenceResponse>>
InferenceService::trySubmitLocked(Tensor sample, std::uint64_t seed,
                                  bool throw_on_reject)
{
    // A malformed request fails alone, here, instead of failing every
    // other request of the megabatch it would have ridden in. An
    // unmapped evaluator (input size 0) is left to report through the
    // future.
    const std::size_t want = evaluator.inputSize();
    if (want != 0 && sample.size() != want)
        throw std::invalid_argument(
            "InferenceService: sample has " + std::to_string(sample.size())
            + " elements, the mapped model's input size is "
            + std::to_string(want));
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping) {
        if (throw_on_reject)
            throw ShutdownError();
        return std::nullopt;
    }
    if (queue.size() >= cfg.maxQueue) {
        ++counters.rejected;
        if (throw_on_reject)
            throw QueueFullError();
        return std::nullopt;
    }
    Pending p;
    p.id = nextId++;
    p.sample = std::move(sample);
    p.seed = seed;
    p.enqueued = Clock::now();
    std::future<InferenceResponse> fut = p.promise.get_future();
    queue.push_back(std::move(p));
    ++counters.accepted;
    // Only these two pushes can turn a dispatcher predicate true (work
    // to take, or a full batch ending the linger); any other push would
    // wake it for nothing.
    const bool notify =
        queue.size() == 1 || queue.size() == cfg.maxBatch;
    lock.unlock();
    if (notify)
        wake.notify_all();
    return fut;
}

void
InferenceService::stop()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping = true;
    }
    wake.notify_all();
    // Serialize the join so concurrent stop() calls (or stop() racing
    // the destructor) are safe and both return only after the drain.
    const std::lock_guard<std::mutex> join_lock(joinMutex);
    if (dispatcher.joinable())
        dispatcher.join();
}

ServiceStats
InferenceService::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters;
}

void
InferenceService::dispatchLoop()
{
    const std::chrono::microseconds window(cfg.maxLingerMicros);
    // When the previous batch finished; starting at dispatcher start
    // keeps a burst into a fresh service coalesced.
    Clock::time_point lastDone = Clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty())
            return; // stopping and drained
        // Linger: give the batch a chance to fill, bounded by the
        // oldest request's deadline — but only while arrivals overlap:
        // the oldest request came within a window of the last batch
        // finishing, or others already queued behind it (a client burst
        // after a pause). A lone request that found the dispatcher idle
        // for a full window goes at once. A stopping service skips the
        // linger — drain latency beats drain batching.
        const Clock::time_point oldest = queue.front().enqueued;
        const Clock::time_point deadline = oldest + window;
        const bool overlapping =
            oldest < lastDone + window || queue.size() > 1;
        if (cfg.maxLingerMicros > 0 && !stopping
            && queue.size() < cfg.maxBatch && overlapping
            && Clock::now() < deadline) {
            ++counters.lingered;
            wake.wait_until(lock, deadline, [&] {
                return stopping || queue.size() >= cfg.maxBatch;
            });
        }
        std::vector<Pending> batch;
        const std::size_t take =
            std::min(queue.size(), cfg.maxBatch);
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
            batch.push_back(std::move(queue.front()));
            queue.pop_front();
        }
        ++counters.batches;
        counters.largestBatch =
            std::max(counters.largestBatch, batch.size());
        lock.unlock();
        serveBatch(batch);
        lastDone = Clock::now();
        lock.lock();
        counters.served += batch.size();
    }
}

void
InferenceService::serveBatch(std::vector<Pending> &batch)
{
    const auto dispatched = Clock::now();
    std::vector<Tensor> samples;
    std::vector<std::uint64_t> seeds;
    samples.reserve(batch.size());
    seeds.reserve(batch.size());
    for (Pending &p : batch) {
        samples.push_back(std::move(p.sample));
        seeds.push_back(p.seed);
    }

    std::vector<std::vector<double>> scores;
    aqfp::LedgerCounts share;
    try {
        aqfp::LedgerCounts counts;
        scores = shardedScores(samples, seeds, counts);
        share = detail::countsShare(counts, batch.size());
        refreshUnitCost();
    } catch (...) {
        // A failed megabatch fails every rider; futures are never
        // abandoned.
        for (Pending &p : batch)
            p.promise.set_exception(std::current_exception());
        return;
    }

    const auto done = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        InferenceResponse r;
        r.requestId = batch[i].id;
        r.scores = std::move(scores[i]);
        r.predicted = static_cast<std::size_t>(
            std::max_element(r.scores.begin(), r.scores.end())
            - r.scores.begin());
        r.counts = share;
        r.energyAj = unitEnergyAj;
        r.hardwareLatencyUs = unitLatencyUs;
        r.queueMicros = elapsedMicros(batch[i].enqueued, dispatched);
        r.serviceMicros = elapsedMicros(batch[i].enqueued, done);
        r.batchSize = batch.size();
        batch[i].promise.set_value(std::move(r));
    }
}

std::vector<std::vector<double>>
InferenceService::shardedScores(
    std::vector<Tensor> &samples, const std::vector<std::uint64_t> &seeds,
    aqfp::LedgerCounts &counts) const
{
    const std::size_t shard_count = shards_->shardCount();
    const std::size_t k = std::min(shard_count, samples.size());
    if (k <= 1)
        return evaluator.classScoresSeeded(samples, seeds, &counts);

    // Contiguous even split: sub-batch j takes [starts[j], starts[j+1]).
    // parallelForSharded runs task j on shard j under a ShardBinding, so
    // the evaluator's shared-pool executors route every nested tile loop
    // to shard j's node-local pool. Bit-exactness is free: each score is
    // a pure function of (model, sample, seed), so the partition is
    // unobservable in the responses.
    std::vector<std::size_t> starts(k + 1, 0);
    for (std::size_t j = 0; j < k; ++j) {
        std::size_t count = samples.size() / k;
        if (j < samples.size() % k)
            ++count;
        starts[j + 1] = starts[j] + count;
    }

    std::vector<std::vector<std::vector<double>>> sub(k);
    std::vector<aqfp::LedgerCounts> sub_counts(k);
    shards_->parallelForSharded(k, [&](std::size_t j) {
        std::vector<Tensor> part(
            std::make_move_iterator(samples.begin() + starts[j]),
            std::make_move_iterator(samples.begin() + starts[j + 1]));
        const std::vector<std::uint64_t> part_seeds(
            seeds.begin() + starts[j], seeds.begin() + starts[j + 1]);
        sub[j] = evaluator.classScoresSeeded(part, part_seeds,
                                             &sub_counts[j]);
    });

    std::vector<std::vector<double>> scores;
    scores.reserve(samples.size());
    counts = {};
    for (std::size_t j = 0; j < k; ++j) {
        counts += sub_counts[j];
        for (std::vector<double> &s : sub[j])
            scores.push_back(std::move(s));
    }
    return scores;
}

void
InferenceService::refreshUnitCost()
{
    // Activity per image is value-independent and constant for a
    // mapped model, so the per-image price is too: one pricing pass
    // after the first batch serves every response.
    if (unitCostValid)
        return;
    unitEnergyAj = 0.0;
    unitLatencyUs = 0.0;
    bool valid = evaluator.imagesObserved() > 0;
    for (const core::LayerEnergyReport &layer :
         evaluator.energyReports(cfg.frequencyGhz)) {
        valid = valid && layer.measuredValid;
        unitEnergyAj += layer.measured.totalEnergyAj;
        unitLatencyUs += layer.measured.latencyUs;
    }
    unitCostValid = valid;
}

} // namespace superbnn::serve
