#include "core/hardware_eval.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

namespace superbnn::core {

namespace {

/** SplitMix64 finalizer (same mixing the executor's tile seeds use). */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
bitPattern(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/**
 * Named-cache key of one pristine mapped layer: everything the build
 * depends on beyond the weights themselves (which @p tag names).
 */
std::string
modelCacheKey(const std::string &tag, const std::string &layer,
              std::size_t cs, double delta_iin_ua,
              const aqfp::PowerLawFit &fit)
{
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "/cs%zu/d%016llx/a%016llx/b%016llx", cs,
                  static_cast<unsigned long long>(
                      bitPattern(delta_iin_ua)),
                  static_cast<unsigned long long>(bitPattern(fit.a)),
                  static_cast<unsigned long long>(bitPattern(fit.b)));
    return tag + "/" + layer + buf;
}

/** setThresholds, naming mapped layer @p name in any error. */
void
installThresholds(crossbar::MappedLayer &layer,
                  const std::vector<double> &vth, const std::string &name)
{
    try {
        crossbar::CrossbarMapper::setThresholds(layer, vth);
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument("HardwareEvaluator: layer " + name
                                    + ": " + e.what());
    }
}

/**
 * Checked at mapping: evaluation reads @p width activations into layer
 * @p name's fan-in without scanning them.
 */
void
requireWidth(const crossbar::MappedLayer &layer, std::size_t width,
             const std::string &name)
{
    if (layer.fanIn != width)
        throw std::invalid_argument(
            "HardwareEvaluator: layer " + name + " has fan-in "
            + std::to_string(layer.fanIn) + ", its input rows have "
            + std::to_string(width) + " activations");
}

/** Per-sample argmax of a batch of class scores. */
std::vector<std::size_t>
argmaxEach(const std::vector<std::vector<double>> &scores)
{
    std::vector<std::size_t> best(scores.size(), 0);
    for (std::size_t b = 0; b < scores.size(); ++b)
        for (std::size_t j = 1; j < scores[b].size(); ++j)
            if (scores[b][j] > scores[b][best[b]])
                best[b] = j;
    return best;
}

/**
 * Where each row of a padded 3x3 patch reads a channels x side x side
 * map, [position][channel][ky][kx] with positions row-major: the
 * element's offset in the map, or -1 for a padding row.
 */
std::vector<std::int32_t>
patchMap(std::size_t channels, std::size_t side)
{
    const int n = static_cast<int>(side);
    std::vector<std::int32_t> map;
    map.reserve(side * side * channels * 9);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            for (int c = 0; c < static_cast<int>(channels); ++c)
                for (int iy = y - 1; iy <= y + 1; ++iy)
                    for (int ix = x - 1; ix <= x + 1; ++ix)
                        map.push_back(iy < 0 || ix < 0 || iy >= n || ix >= n
                                          ? -1
                                          : (c * n + iy) * n + ix);
    return map;
}

/** 2x2 max-pool of @p maps consecutive side x side maps. */
std::vector<int>
maxPool2x2(const std::vector<int> &in, std::size_t maps, std::size_t side)
{
    const std::size_t half = side / 2;
    std::vector<int> out(maps * half * half);
    int *dst = out.data();
    for (std::size_t m = 0; m < maps; ++m)
        for (std::size_t y = 0; y < half; ++y)
            for (std::size_t x = 0; x < half; ++x, ++dst) {
                const int *p = in.data() + (m * side + 2 * y) * side + 2 * x;
                *dst = std::max({p[0], p[1], p[side], p[side + 1]});
            }
    return out;
}

} // namespace

std::uint64_t
faultMaskSeed(std::uint64_t master_seed, std::uint64_t chip_index,
              std::size_t layer, std::size_t rt, std::size_t ct)
{
    std::uint64_t s = splitmix64(master_seed ^ 0x7969656c64ULL); // "yield"
    s = splitmix64(s ^ chip_index);
    return splitmix64(s ^ (static_cast<std::uint64_t>(layer) << 42)
                      ^ (static_cast<std::uint64_t>(rt) << 21)
                      ^ static_cast<std::uint64_t>(ct));
}

HardwareEvaluator::HardwareEvaluator(aqfp::AttenuationModel attenuation,
                                     HardwareConfig config)
    : HardwareEvaluator(std::move(attenuation), HardwarePlan(config))
{
}

HardwareEvaluator::HardwareEvaluator(aqfp::AttenuationModel attenuation,
                                     HardwarePlan plan)
    : atten(std::move(attenuation)), plan_(std::move(plan)),
      cfg(plan_.representative())
{
}

void
HardwareEvaluator::resolvePlan(std::size_t cell_count)
{
    resolved_ = plan_.resolve(cell_count);
    // One executor per DISTINCT window, first-occurrence order: a
    // uniform plan builds exactly one with the legacy constructor
    // arguments, so its forward passes are bit-identical to the old
    // single-executor member.
    executors_.clear();
    execIndex_.assign(resolved_.size(), 0);
    std::vector<std::size_t> windows;
    for (std::size_t i = 0; i < resolved_.size(); ++i) {
        const std::size_t w = resolved_[i].window;
        std::size_t slot = windows.size();
        for (std::size_t j = 0; j < windows.size(); ++j) {
            if (windows[j] == w) {
                slot = j;
                break;
            }
        }
        if (slot == windows.size()) {
            windows.push_back(w);
            executors_.emplace_back(w, plan_.exactApc, plan_.dropFraction,
                                    plan_.threads);
        }
        execIndex_[i] = slot;
    }
}

void
HardwareEvaluator::mapMlp(const RandomizedMlp &model)
{
    mapMlp(model, nullptr, "mlp");
}

void
HardwareEvaluator::mapMlp(const RandomizedMlp &model,
                          crossbar::ProgrammedModelCache *cache,
                          const std::string &tag)
{
    // Unmapped until the last layer is in: a mapping that throws leaves
    // an evaluator every entry point rejects.
    kind = Kind::None;
    mapped.clear();
    resolvePlan(model.cells().size() + 1);
    // Each cell is mapped at ITS OWN plan entry's (Cs, deltaIin). With
    // a cache, each pristine thresholded layer is built at most once
    // per (tag, layer, operating point) and this evaluator takes a
    // private copy; the build is deterministic, so cached and direct
    // maps are bit-identical — and because the key already carries the
    // per-layer point, plans that differ in only one layer share every
    // other layer's cached build.
    auto mapLayer = [&](std::size_t li, const std::string &name,
                        const std::function<crossbar::MappedLayer()>
                            &build) {
        if (!cache)
            return build();
        return crossbar::MappedLayer(*cache->named(
            modelCacheKey(tag, name, resolved_[li].crossbarSize,
                          resolved_[li].deltaIinUa, atten.fit()),
            build));
    };
    std::size_t li = 0;
    for (const auto &cell : model.cells()) {
        const crossbar::CrossbarMapper mapper(resolved_[li].crossbarSize,
                                              atten,
                                              resolved_[li].deltaIinUa);
        MappedCell mc;
        const FoldedBn folded =
            foldBatchNorm(*cell.bn, cell.linear->alpha().value);
        const std::string name = "fc" + std::to_string(li + 1);
        mc.layer = mapLayer(li, name, [&]() {
            crossbar::MappedLayer layer =
                mapper.map(cell.linear->signedWeights());
            installThresholds(layer, folded.vth, name);
            return layer;
        });
        mc.flip = folded.flip;
        mc.inChannels = mc.layer.fanIn;
        if (li > 0)
            requireWidth(mc.layer, mapped.back().layer.fanOut, name);
        mapped.push_back(std::move(mc));
        ++li;
    }
    const auto &head = model.head();
    const crossbar::CrossbarMapper headMapper(
        resolved_[li].crossbarSize, atten, resolved_[li].deltaIinUa);
    headMapped = mapLayer(
        li, "head", [&]() { return headMapper.map(head.signedWeights()); });
    if (li > 0)
        requireWidth(headMapped, mapped.back().layer.fanOut, "head");
    headAlpha.assign(head.alpha().value.data(),
                     head.alpha().value.data()
                         + head.alpha().value.size());
    kind = Kind::Mlp;
    resetLedgers();
}

void
HardwareEvaluator::mapCnn(const RandomizedCnn &model)
{
    kind = Kind::None; // until the last layer is in (see mapMlp)
    mapped.clear();
    resolvePlan(model.cells().size() + 1);
    std::size_t side = model.config().inputSide;
    std::size_t in_ch = model.config().inputChannels;
    for (const auto &cell : model.cells()) {
        const std::size_t li = mapped.size();
        const crossbar::CrossbarMapper mapper(resolved_[li].crossbarSize,
                                              atten,
                                              resolved_[li].deltaIinUa);
        MappedCell mc;
        mc.layer = mapper.map(cell.conv->signedWeightMatrix());
        const FoldedBn folded =
            foldBatchNorm(*cell.bn, cell.conv->alpha().value);
        const std::string name = "conv" + std::to_string(li + 1);
        installThresholds(mc.layer, folded.vth, name);
        mc.flip = folded.flip;
        mc.inChannels = in_ch;
        mc.inSide = side;
        mc.pooled = cell.pooled;
        requireWidth(mc.layer, in_ch * 9, name);
        mc.patches = patchMap(in_ch, side);
        in_ch = mc.layer.fanOut;
        if (cell.pooled)
            side /= 2;
        mapped.push_back(std::move(mc));
    }
    const auto &head = model.head();
    const crossbar::CrossbarMapper headMapper(
        resolved_[mapped.size()].crossbarSize, atten,
        resolved_[mapped.size()].deltaIinUa);
    headMapped = headMapper.map(head.signedWeights());
    requireWidth(headMapped, in_ch * side * side, "head");
    headAlpha.assign(head.alpha().value.data(),
                     head.alpha().value.data()
                         + head.alpha().value.size());
    kind = Kind::Cnn;
    resetLedgers();
}

void
HardwareEvaluator::resetLedgers()
{
    const std::lock_guard<std::mutex> lock(countsMutex_);
    counts_.assign(mapped.size() + 1, {});
    images_ = 0;
}

std::uint64_t
HardwareEvaluator::imagesObserved() const
{
    const std::lock_guard<std::mutex> lock(countsMutex_);
    return images_;
}

aqfp::LayerSpec
HardwareEvaluator::layerSpec(std::size_t i) const
{
    if (i == mapped.size())
        return aqfp::LayerSpec::fc("head", headMapped.fanIn,
                                   headMapped.fanOut);
    const MappedCell &mc = mapped[i];
    return {(kind == Kind::Cnn ? "conv" : "fc") + std::to_string(i + 1),
            mc.layer.fanIn, mc.layer.fanOut, mc.inSide * mc.inSide};
}

std::vector<LayerEnergyReport>
HardwareEvaluator::energyReports(double frequency_ghz) const
{
    if (kind == Kind::None)
        throw std::logic_error(
            "HardwareEvaluator::energyReports: map a model first");
    // Counts and image count from the same set of whole calls.
    const std::lock_guard<std::mutex> lock(countsMutex_);

    const aqfp::EnergyModel model;
    // The analytic memory term sizes the buffer for the widest
    // activation of the whole mapped network; price the counts
    // against the same hardware.
    aqfp::WorkloadSpec mapped_spec;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        mapped_spec.layers.push_back(layerSpec(i));
    const std::size_t max_act_bits = mapped_spec.maxActivationBits();

    std::vector<LayerEnergyReport> reports;
    reports.reserve(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const aqfp::LayerSpec &spec = mapped_spec.layers[i];
        const crossbar::MappedLayer &layer =
            i == mapped.size() ? headMapped : mapped[i].layer;
        // Each layer is priced at ITS OWN operating point (uniform
        // plans resolve every entry to the same point, reproducing the
        // legacy single-acfg path bit-exactly).
        const aqfp::AcceleratorConfig acfg{
            resolved_[i].crossbarSize, resolved_[i].window, frequency_ghz,
            resolved_[i].deltaIinUa};

        LayerEnergyReport rep;
        rep.name = spec.name;
        rep.counts = counts_[i];
        rep.analytic = model.evaluateLayer(spec, acfg, max_act_bits);

        // With no images observed there is nothing to normalize per
        // image: emit flagged placeholder measurements instead of
        // dividing the (all-zero) counts by zero.
        if (images_ > 0) {
            aqfp::LedgerPricingContext ctx;
            ctx.config = acfg;
            ctx.rowTiles = layer.rowTiles;
            ctx.colTiles = layer.colTiles;
            ctx.opsPerImage = spec.ops();
            // The executor really ran every spatial position (conv
            // layers are driven patch-wise), so the counts need no
            // replay scaling — only normalization to one image.
            ctx.images = static_cast<double>(images_);
            ctx.maxActBits = max_act_bits;
            rep.measured = model.priceLedger(rep.counts, ctx);
            rep.delta = aqfp::reconcile(rep.measured, rep.analytic);
            rep.measuredValid = true;
        }
        reports.push_back(std::move(rep));
    }
    return reports;
}

/**
 * Root-draw provider for one batched evaluation. Exactly one of the
 * two fields is set. With `shared`, draws come from the one engine in
 * executor-sample order per pass — layer-major across the batch, the
 * historical contract of classScores(samples, rng). With `perRequest`,
 * request b's draws come from its own engine in the same order a
 * singleton run would consume them — so coalescing never reassigns
 * noise between requests.
 */
struct HardwareEvaluator::RootSource
{
    Rng *shared = nullptr;
    std::vector<Rng> *perRequest = nullptr;

    /**
     * Roots for one executor pass covering @p group consecutive
     * executor samples per request (1 for fc layers, the spatial
     * position count for patch-driven conv layers), requests in batch
     * order.
     */
    std::vector<std::uint64_t>
    draw(std::size_t requests, std::size_t group)
    {
        std::vector<std::uint64_t> roots(requests * group);
        if (shared) {
            for (auto &r : roots)
                r = shared->raw()();
            return roots;
        }
        for (std::size_t b = 0; b < requests; ++b)
            for (std::size_t p = 0; p < group; ++p)
                roots[b * group + p] = (*perRequest)[b].raw()();
        return roots;
    }
};

std::size_t
HardwareEvaluator::inputSize() const
{
    if (kind == Kind::None)
        return 0;
    if (mapped.empty())
        return headMapped.fanIn;
    const MappedCell &first = mapped.front();
    return first.inChannels * first.inSide * first.inSide;
}

std::vector<int>
HardwareEvaluator::binarizeInputs(const std::vector<Tensor> &samples,
                                  const char *caller) const
{
    // Checked in every build: an unmapped evaluator has no executors,
    // and a short sample would be read past its end.
    if (kind == Kind::None)
        throw std::logic_error(std::string("HardwareEvaluator::")
                               + caller + ": map a model first");
    const std::size_t want = inputSize();
    std::vector<int> inputs(samples.size() * want);
    for (std::size_t b = 0; b < samples.size(); ++b) {
        const Tensor &sample = samples[b];
        if (sample.size() != want)
            throw std::invalid_argument(
                std::string("HardwareEvaluator::") + caller + ": sample "
                + std::to_string(b) + " has "
                + std::to_string(sample.size())
                + " elements, the mapped model's input size is "
                + std::to_string(want));
        for (std::size_t i = 0; i < want; ++i)
            inputs[b * want + i] = sample[i] >= 0.0f ? 1 : -1;
    }
    return inputs;
}

std::vector<std::vector<double>>
HardwareEvaluator::runBatch(std::vector<int> acts, std::size_t samples,
                            RootSource &roots,
                            aqfp::LedgerCounts *counts) const
{
    // Activations stay flat, [samples][width], channel-major for conv
    // maps. Each layer is ONE executor pass over all samples and
    // positions; its tasks gather the patches and write flipped outputs.
    std::vector<aqfp::LedgerCounts> layerCounts(mapped.size() + 1);
    for (std::size_t li = 0; li < mapped.size(); ++li) {
        const MappedCell &mc = mapped[li];
        const std::size_t positions = mc.inSide * mc.inSide;
        std::vector<int> out(samples * positions * mc.layer.fanOut);
        const crossbar::InputView in{
            acts.data(), samples * positions, mc.inChannels * positions,
            mc.patches.empty() ? nullptr : mc.patches.data(), positions};
        // One root per (request, position), request-major — with a
        // per-request source this is exactly the draw order a
        // singleton run consumes, which is what keeps seeded batches
        // bit-identical to singles.
        executorFor(li).forward(mc.layer, in,
                                roots.draw(samples, positions), out.data(),
                                &mc.flip);
        layerCounts[li] =
            aqfp::forwardCounts(mc.layer.fanIn, mc.layer.fanOut,
                                mc.layer.cs, resolved_[li].window,
                                samples * positions);
        // Pooling reads a 2x2 window across task boundaries, so it is a
        // separate pass after the barrier.
        acts = mc.pooled
            ? maxPool2x2(out, samples * mc.layer.fanOut, mc.inSide)
            : std::move(out);
    }
    std::vector<double> decoded(samples * headMapped.fanOut);
    executorFor(mapped.size())
        .forwardDecoded(headMapped,
                        crossbar::InputView{acts.data(), samples,
                                            headMapped.fanIn},
                        roots.draw(samples, 1), decoded.data());
    layerCounts.back() = aqfp::forwardCounts(
        headMapped.fanIn, headMapped.fanOut, headMapped.cs,
        resolved_[mapped.size()].window, samples);
    std::vector<std::vector<double>> scores(
        samples, std::vector<double>(headMapped.fanOut));
    for (std::size_t b = 0; b < samples; ++b)
        for (std::size_t j = 0; j < headMapped.fanOut; ++j)
            scores[b][j] = decoded[b * headMapped.fanOut + j] * headAlpha[j];

    aqfp::LedgerCounts call;
    {
        const std::lock_guard<std::mutex> lock(countsMutex_);
        for (std::size_t i = 0; i < layerCounts.size(); ++i) {
            counts_[i] += layerCounts[i];
            call += layerCounts[i];
        }
        images_ += samples;
    }
    if (counts)
        *counts = call;
    return scores;
}

std::vector<std::vector<double>>
HardwareEvaluator::classScores(const std::vector<Tensor> &samples,
                               Rng &rng) const
{
    std::vector<int> inputs = binarizeInputs(samples, "classScores");
    RootSource roots;
    roots.shared = &rng;
    return runBatch(std::move(inputs), samples.size(), roots, nullptr);
}

std::vector<std::vector<double>>
HardwareEvaluator::classScoresSeeded(
    const std::vector<Tensor> &samples,
    const std::vector<std::uint64_t> &seeds,
    aqfp::LedgerCounts *counts) const
{
    std::vector<int> inputs = binarizeInputs(samples, "classScoresSeeded");
    if (samples.size() != seeds.size())
        throw std::invalid_argument(
            "HardwareEvaluator::classScoresSeeded: "
            + std::to_string(seeds.size()) + " seeds for "
            + std::to_string(samples.size()) + " samples");
    // One private engine per request: sample i consumes the exact draw
    // sequence classScores(samples[i], Rng(seeds[i])) would.
    std::vector<Rng> engines;
    engines.reserve(seeds.size());
    for (const std::uint64_t seed : seeds)
        engines.emplace_back(seed);
    RootSource roots;
    roots.perRequest = &engines;
    return runBatch(std::move(inputs), samples.size(), roots, counts);
}

std::vector<std::size_t>
HardwareEvaluator::predictSeeded(
    const std::vector<Tensor> &samples,
    const std::vector<std::uint64_t> &seeds) const
{
    return argmaxEach(classScoresSeeded(samples, seeds));
}

std::vector<double>
HardwareEvaluator::classScores(const Tensor &sample, Rng &rng) const
{
    auto batched = classScores(std::vector<Tensor>{sample}, rng);
    return std::move(batched[0]);
}

std::vector<std::size_t>
HardwareEvaluator::predict(const std::vector<Tensor> &samples,
                           Rng &rng) const
{
    return argmaxEach(classScores(samples, rng));
}

std::size_t
HardwareEvaluator::predict(const Tensor &sample, Rng &rng) const
{
    return predict(std::vector<Tensor>{sample}, rng)[0];
}

double
HardwareEvaluator::evaluate(const data::Dataset &dataset,
                            std::size_t max_samples, Rng &rng) const
{
    const std::size_t count = max_samples == 0
        ? dataset.size()
        : std::min(max_samples, dataset.size());
    const std::size_t chunk = cfg.evalBatch == 0 ? 1 : cfg.evalBatch;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < count; i += chunk) {
        const std::size_t n = std::min(chunk, count - i);
        std::vector<Tensor> samples;
        samples.reserve(n);
        for (std::size_t b = 0; b < n; ++b)
            samples.push_back(dataset.sample(i + b));
        const std::vector<std::size_t> preds = predict(samples, rng);
        for (std::size_t b = 0; b < n; ++b)
            if (preds[b] == dataset.labels[i + b])
                ++correct;
    }
    return count == 0 ? 0.0
                      : static_cast<double>(correct)
            / static_cast<double>(count);
}

std::size_t
HardwareEvaluator::injectVariationSeeded(double gray_zone_sigma,
                                         double stuck_cell_fraction,
                                         std::uint64_t master_seed,
                                         std::uint64_t chip_index)
{
    // Checked before any tile is touched, so a rejected call leaves the
    // mapped model as it was.
    if (!std::isfinite(gray_zone_sigma) || gray_zone_sigma < 0.0)
        throw std::invalid_argument(
            "HardwareEvaluator::injectVariationSeeded: gray_zone_sigma "
            "must be finite and >= 0 (got "
            + std::to_string(gray_zone_sigma) + ")");
    if (!(stuck_cell_fraction >= 0.0 && stuck_cell_fraction <= 1.0))
        throw std::invalid_argument(
            "HardwareEvaluator::injectVariationSeeded: "
            "stuck_cell_fraction must be in [0, 1] (got "
            + std::to_string(stuck_cell_fraction) + ")");
    std::size_t stuck = 0;
    auto hit = [&](crossbar::MappedLayer &layer, std::size_t li) {
        for (std::size_t rt = 0; rt < layer.rowTiles; ++rt) {
            for (std::size_t ct = 0; ct < layer.colTiles; ++ct) {
                const std::uint64_t seed = faultMaskSeed(
                    master_seed, chip_index, li, rt, ct);
                crossbar::CrossbarArray &tile = layer.tile(rt, ct);
                if (gray_zone_sigma > 0.0) {
                    // Private per-tile generator derived from the same
                    // seed chain: no cross-tile draw-order coupling.
                    Rng grng(splitmix64(seed ^ 0x67726179ULL)); // "gray"
                    tile.applyGrayZoneVariation(gray_zone_sigma, grng);
                }
                if (stuck_cell_fraction > 0.0)
                    stuck += tile.injectStuckCellsSeeded(
                        stuck_cell_fraction, seed);
            }
        }
    };
    for (std::size_t i = 0; i < mapped.size(); ++i)
        hit(mapped[i].layer, i);
    hit(headMapped, mapped.size());
    return stuck;
}

aqfp::LedgerCounts
HardwareEvaluator::totalLedgerCounts() const
{
    const std::lock_guard<std::mutex> lock(countsMutex_);
    aqfp::LedgerCounts total;
    for (const aqfp::LedgerCounts &layer : counts_)
        total += layer;
    return total;
}

std::size_t
HardwareEvaluator::totalCrossbars() const
{
    std::size_t total = headMapped.tileCount();
    for (const auto &mc : mapped)
        total += mc.layer.tileCount();
    return total;
}

} // namespace superbnn::core
