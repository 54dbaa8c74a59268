/**
 * @file
 * Shared cache of programmed crossbar models.
 *
 * Workloads that map the same trained weights many times — the yield
 * sweep's thousands of chip tasks, a fleet of serving evaluators —
 * would otherwise re-map identical MappedLayers per use.
 * ProgrammedModelCache builds each one once under a string key and
 * hands out shared_ptr<const MappedLayer> — programmed tile state is
 * shared READ-ONLY across callers (TileExecutor never mutates the layer
 * it executes), so concurrent tasks can run one cached model
 * simultaneously. core::HardwareEvaluator::mapMlp(model, cache, tag)
 * installs private copies of one cached pristine mapping (see
 * docs/SERVING.md); core::ScenarioSweep and bench/yield_surface share
 * one cache across every chip of a sweep.
 *
 * Key contract: the key encodes everything the build depends on (model
 * tag, layer index, Cs, deltaIin and attenuation-fit bit patterns). The
 * SC window L is not part of it — a MappedLayer is window-independent
 * (the executor owns L). One cache serves one attenuation model.
 *
 * Determinism contract: a cached layer is bit-identical to a freshly
 * mapped one, so any computation is bit-identical with the cache warm
 * or cold, at any thread count.
 */

#ifndef SUPERBNN_CROSSBAR_MODEL_CACHE_H
#define SUPERBNN_CROSSBAR_MODEL_CACHE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "crossbar/mapper.h"

namespace superbnn::crossbar {

/** Cache of mapped crossbar models, shared read-only. */
class ProgrammedModelCache
{
  public:
    /** Lifetime hit/miss counters (monotonic until clear()). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    explicit ProgrammedModelCache(aqfp::AttenuationModel atten);

    /**
     * The mapped model for @p key, built on first request by @p build
     * and shared read-only by every later call with the same key. The
     * builder runs at most once per key, under the cache lock, and must
     * not call back into this cache. Thread-safe; the returned layer
     * must be treated as immutable (it may be executing on another
     * thread).
     */
    std::shared_ptr<const MappedLayer>
    named(const std::string &key,
          const std::function<MappedLayer()> &build);

    /** Snapshot of the hit/miss counters. Thread-safe. */
    Stats namedStats() const;

    /** Distinct entries currently cached. */
    std::size_t size() const;

    /** Drop every entry and zero the counters (holders keep theirs). */
    void clear();

    const aqfp::AttenuationModel &attenuation() const { return atten; }

  private:
    aqfp::AttenuationModel atten;
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const MappedLayer>>
        namedEntries;
    Stats namedStats_;
};

} // namespace superbnn::crossbar

#endif // SUPERBNN_CROSSBAR_MODEL_CACHE_H
