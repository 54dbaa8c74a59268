#include "core/hardware_eval.h"

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
        mapped.push_back(std::move(mc));
        ++li;
    }
    const auto &head = model.head();
    const crossbar::CrossbarMapper headMapper(
        resolved_[li].crossbarSize, atten, resolved_[li].deltaIinUa);
    headMapped = mapLayer(
        li, "head", [&]() { return headMapper.map(head.signedWeights()); });
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
        installThresholds(mc.layer, folded.vth,
                          "conv" + std::to_string(li + 1));
        mc.flip = folded.flip;
        mc.inChannels = in_ch;
        mc.inSide = side;
        mc.outChannels = cell.conv->outChannels();
        mc.pooled = cell.pooled;
        mapped.push_back(std::move(mc));
        in_ch = mc.outChannels;
        if (cell.pooled)
            side /= 2;
    }
    const auto &head = model.head();
    const crossbar::CrossbarMapper headMapper(
        resolved_[mapped.size()].crossbarSize, atten,
        resolved_[mapped.size()].deltaIinUa);
    headMapped = headMapper.map(head.signedWeights());
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
    if (kind == Kind::Cnn) {
        aqfp::LayerSpec spec;
        spec.name = "conv" + std::to_string(i + 1);
        spec.fanIn = mc.layer.fanIn;
        spec.fanOut = mc.layer.fanOut;
        spec.positions = mc.inSide * mc.inSide;
        return spec;
    }
    return aqfp::LayerSpec::fc("fc" + std::to_string(i + 1),
                               mc.layer.fanIn, mc.layer.fanOut);
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
    return kind == Kind::Cnn
        ? first.inChannels * first.inSide * first.inSide
        : first.layer.fanIn;
}

std::vector<std::vector<int>>
HardwareEvaluator::binarizeInputs(const std::vector<Tensor> &samples,
                                  const char *caller) const
{
    // Checked in every build: an unmapped evaluator has no executors,
    // and a short sample would be read past its end.
    if (kind == Kind::None)
        throw std::logic_error(std::string("HardwareEvaluator::")
                               + caller + ": map a model first");
    const std::size_t want = inputSize();
    std::vector<std::vector<int>> inputs;
    inputs.reserve(samples.size());
    for (std::size_t b = 0; b < samples.size(); ++b) {
        const Tensor &sample = samples[b];
        if (sample.size() != want)
            throw std::invalid_argument(
                std::string("HardwareEvaluator::") + caller + ": sample "
                + std::to_string(b) + " has "
                + std::to_string(sample.size())
                + " elements, the mapped model's input size is "
                + std::to_string(want));
        std::vector<int> &out = inputs.emplace_back(sample.size());
        for (std::size_t i = 0; i < sample.size(); ++i)
            out[i] = sample[i] >= 0.0f ? 1 : -1;
    }
    return inputs;
}

std::vector<std::vector<double>>
HardwareEvaluator::runBatch(const std::vector<std::vector<int>> &inputs,
                            RootSource &roots,
                            aqfp::LedgerCounts *counts) const
{
    std::vector<aqfp::HardwareLedger> ledgers(mapped.size() + 1);
    std::vector<std::vector<double>> scores =
        kind == Kind::Mlp ? runMlpBatch(inputs, roots, ledgers)
                          : runCnnBatch(inputs, roots, ledgers);
    aqfp::LedgerCounts call;
    {
        const std::lock_guard<std::mutex> lock(countsMutex_);
        for (std::size_t i = 0; i < ledgers.size(); ++i) {
            const aqfp::LedgerCounts layer = ledgers[i].totals();
            counts_[i] += layer;
            call += layer;
        }
        images_ += inputs.size();
    }
    if (counts)
        *counts = call;
    return scores;
}

std::vector<std::vector<double>>
HardwareEvaluator::runMlpBatch(
    const std::vector<std::vector<int>> &inputs, RootSource &roots,
    std::vector<aqfp::HardwareLedger> &ledgers) const
{
    const std::size_t samples = inputs.size();
    std::vector<std::vector<int>> acts = inputs;
    for (std::size_t i = 0; i < mapped.size(); ++i) {
        const MappedCell &mc = mapped[i];
        std::vector<std::vector<int>> next =
            executorFor(i).forwardSeeded(mc.layer, acts,
                                         roots.draw(samples, 1),
                                         &ledgers[i]);
        for (auto &sample : next)
            for (std::size_t j = 0; j < sample.size(); ++j)
                if (mc.flip[j])
                    sample[j] = -sample[j];
        acts = std::move(next);
    }
    std::vector<std::vector<double>> scores =
        executorFor(mapped.size())
            .forwardDecodedSeeded(headMapped, acts,
                                  roots.draw(samples, 1),
                                  &ledgers.back());
    for (auto &sample : scores)
        for (std::size_t j = 0; j < sample.size(); ++j)
            sample[j] *= headAlpha[j];
    return scores;
}

std::vector<std::vector<double>>
HardwareEvaluator::runCnnBatch(
    const std::vector<std::vector<int>> &inputs, RootSource &roots,
    std::vector<aqfp::HardwareLedger> &ledgers) const
{
    // Activations held channel-major per sample:
    // acts[b][c * side * side + y * side + x]. Every conv layer runs as
    // ONE batched executor pass over the receptive-field patches of all
    // samples and all spatial positions — the mapped tiles are walked
    // once for samples * side * side patches instead of once per patch.
    const std::size_t samples = inputs.size();
    std::vector<std::vector<int>> acts = inputs;
    for (std::size_t li = 0; li < mapped.size(); ++li) {
        const MappedCell &mc = mapped[li];
        const std::size_t side = mc.inSide;
        const std::size_t in_ch = mc.inChannels;
        const std::size_t out_ch = mc.outChannels;
        const std::size_t positions = side * side;
        std::vector<std::vector<int>> patches(
            samples * positions, std::vector<int>(in_ch * 9));
        for (std::size_t b = 0; b < samples; ++b) {
            for (std::size_t y = 0; y < side; ++y) {
                for (std::size_t x = 0; x < side; ++x) {
                    // Gather the padded 3x3 receptive field (padding
                    // rows are driven with no current -> activation 0).
                    std::vector<int> &patch =
                        patches[b * positions + y * side + x];
                    std::size_t p = 0;
                    for (std::size_t c = 0; c < in_ch; ++c) {
                        for (int ky = -1; ky <= 1; ++ky) {
                            for (int kx = -1; kx <= 1; ++kx, ++p) {
                                const int iy = static_cast<int>(y) + ky;
                                const int ix = static_cast<int>(x) + kx;
                                if (iy < 0 || ix < 0
                                    || iy >= static_cast<int>(side)
                                    || ix >= static_cast<int>(side)) {
                                    patch[p] = 0;
                                } else {
                                    patch[p] =
                                        acts[b][(c * side + iy) * side
                                                + ix];
                                }
                            }
                        }
                    }
                }
            }
        }
        // One root per (request, patch), request-major — with a
        // per-request source this is exactly the draw order a
        // singleton run consumes, which is what keeps seeded batches
        // bit-identical to singles.
        const std::vector<std::vector<int>> outs =
            executorFor(li).forwardSeeded(mc.layer, patches,
                                          roots.draw(samples, positions),
                                          &ledgers[li]);
        std::vector<std::vector<int>> conv_out(
            samples, std::vector<int>(out_ch * side * side));
        for (std::size_t b = 0; b < samples; ++b) {
            for (std::size_t y = 0; y < side; ++y) {
                for (std::size_t x = 0; x < side; ++x) {
                    const std::vector<int> &o_vec =
                        outs[b * positions + y * side + x];
                    for (std::size_t o = 0; o < out_ch; ++o) {
                        int v = o_vec[o];
                        if (mc.flip[o])
                            v = -v;
                        conv_out[b][(o * side + y) * side + x] = v;
                    }
                }
            }
        }
        if (mc.pooled) {
            const std::size_t half = side / 2;
            for (std::size_t b = 0; b < samples; ++b) {
                std::vector<int> pooled(out_ch * half * half);
                for (std::size_t c = 0; c < out_ch; ++c) {
                    for (std::size_t y = 0; y < half; ++y) {
                        for (std::size_t x = 0; x < half; ++x) {
                            int best = -1;
                            for (int ky = 0; ky < 2; ++ky)
                                for (int kx = 0; kx < 2; ++kx)
                                    best = std::max(
                                        best,
                                        conv_out[b]
                                                [(c * side + 2 * y + ky)
                                                     * side
                                                 + 2 * x + kx]);
                            pooled[(c * half + y) * half + x] = best;
                        }
                    }
                }
                acts[b] = std::move(pooled);
            }
        } else {
            acts = std::move(conv_out);
        }
    }
    std::vector<std::vector<double>> scores =
        executorFor(mapped.size())
            .forwardDecodedSeeded(headMapped, acts,
                                  roots.draw(samples, 1),
                                  &ledgers.back());
    for (auto &sample : scores)
        for (std::size_t j = 0; j < sample.size(); ++j)
            sample[j] *= headAlpha[j];
    return scores;
}

std::vector<std::vector<double>>
HardwareEvaluator::classScores(const std::vector<Tensor> &samples,
                               Rng &rng) const
{
    const std::vector<std::vector<int>> inputs =
        binarizeInputs(samples, "classScores");
    RootSource roots;
    roots.shared = &rng;
    return runBatch(inputs, roots, nullptr);
}

std::vector<std::vector<double>>
HardwareEvaluator::classScoresSeeded(
    const std::vector<Tensor> &samples,
    const std::vector<std::uint64_t> &seeds,
    aqfp::LedgerCounts *counts) const
{
    const std::vector<std::vector<int>> inputs =
        binarizeInputs(samples, "classScoresSeeded");
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
    return runBatch(inputs, roots, counts);
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
