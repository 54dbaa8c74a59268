#include "crossbar/model_cache.h"

namespace superbnn::crossbar {

ProgrammedModelCache::ProgrammedModelCache(aqfp::AttenuationModel atten_model)
    : atten(std::move(atten_model))
{
}

std::shared_ptr<const MappedLayer>
ProgrammedModelCache::named(const std::string &key,
                            const std::function<MappedLayer()> &build)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = namedEntries.find(key);
    if (it != namedEntries.end()) {
        ++namedStats_.hits;
        return it->second;
    }
    ++namedStats_.misses;
    // Built under the lock: a second requester of the same key waits
    // instead of mapping a duplicate, so the miss count equals the
    // number of models ever built.
    auto layer = std::make_shared<const MappedLayer>(build());
    namedEntries.emplace(key, layer);
    return layer;
}

ProgrammedModelCache::Stats
ProgrammedModelCache::namedStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return namedStats_;
}

std::size_t
ProgrammedModelCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return namedEntries.size();
}

void
ProgrammedModelCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    namedEntries.clear();
    namedStats_ = Stats{};
}

} // namespace superbnn::crossbar
