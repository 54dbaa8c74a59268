#include "core/randomized_binarize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/bn_matching.h"

namespace superbnn::core {

namespace {

constexpr double kSqrtPi = 1.7724538509055160273;

/** Integral partials within this distance of zero are memoized. */
constexpr int kMemoRadius = 64;
constexpr std::size_t kMemoSpan = 2 * kMemoRadius + 1;

/**
 * f(s) for a tile partial s, through a kMemoSpan-slot @p table (NaN =
 * not yet computed): +/-1 activations and weights make every partial
 * an integer, so the same few values repeat across a batch. A slot
 * keys the exact value of s (-0 and +0 share one, which the
 * probability maps alike), so a memoized result is bit-identical to
 * computing f(s) again.
 */
template <typename F>
double
memoized(double *table, float s, const F &f)
{
    if (!(s >= -kMemoRadius && s <= kMemoRadius))
        return f(s);
    const int si = static_cast<int>(s);
    if (static_cast<float>(si) != s)
        return f(s);
    double &slot = table[si + kMemoRadius];
    if (std::isnan(slot))
        slot = f(s);
    return slot;
}

/** Elements per CellBinarize probability chunk. */
constexpr std::size_t kDrawChunk = 64;


} // namespace

RandomizedBinarize::RandomizedBinarize(const AqfpBehavior &behavior,
                                       const aqfp::AttenuationModel &atten,
                                       Rng &rng, bool sample_in_eval)
    : deltaVin_(behavior.deltaVin(atten)), vth_(behavior.vth), rng_(&rng),
      sampleInEval(sample_in_eval)
{
    assert(deltaVin_ > 0.0);
}

double
RandomizedBinarize::probPlusOne(double ar) const
{
    return 0.5 + 0.5 * std::erf(kSqrtPi * (ar - vth_) / deltaVin_);
}

Tensor
RandomizedBinarize::forward(const Tensor &input, bool training)
{
    if (training)
        cachedInput = input;
    Tensor out(input.shape());
    const bool sample = training || sampleInEval;
    for (std::size_t i = 0; i < input.size(); ++i) {
        const double p = probPlusOne(input[i]);
        if (sample) {
            out[i] = rng_->bernoulli(p) ? 1.0f : -1.0f;
        } else {
            out[i] = p >= 0.5 ? 1.0f : -1.0f;
        }
    }
    return out;
}

Tensor
RandomizedBinarize::backward(const Tensor &grad_output)
{
    assert(!cachedInput.empty());
    assert(grad_output.shape() == cachedInput.shape());
    Tensor dx(grad_output.shape());
    for (std::size_t i = 0; i < dx.size(); ++i) {
        const double z = (cachedInput[i] - vth_) / deltaVin_;
        const double de = (2.0 / deltaVin_) * std::exp(-M_PI * z * z);
        dx[i] = grad_output[i] * static_cast<float>(de);
    }
    return dx;
}

CellBinarize::CellBinarize(const AqfpBehavior &behavior,
                           const aqfp::AttenuationModel &atten, Rng &rng,
                           const nn::BatchNorm *bn,
                           const nn::Parameter *alpha,
                           const nn::TilePartialSource *tiles)
    : deltaVin_(behavior.deltaVin(atten)), rng_(&rng), bn_(bn),
      alpha_(alpha), tiles_(tiles)
{
    assert(deltaVin_ > 0.0);
    assert(bn_ != nullptr && alpha_ != nullptr);
}

double
CellBinarize::channelWidth(std::size_t c) const
{
    const double gamma = bn_->gamma().value[c];
    const double alpha = alpha_->value[c];
    const double inv_std =
        1.0 / std::sqrt(bn_->runningVar()[c] + bn_->eps());
    // The cell fires +1 exactly when the BN output is positive, for
    // either sign of gamma (the gamma < 0 flip of Eq. 15 is relative to
    // the *raw sum*, which the BN output already absorbs). The width of
    // the stochastic transition in the BN-output domain is |k| times the
    // raw-sum gray zone.
    const double k = std::fabs(gamma * alpha * inv_std);
    // Guard against a degenerate (zero) slope: treat as a tiny slope so
    // probabilities saturate instead of dividing by zero.
    return std::max(k, 1e-8) * deltaVin_;
}

std::size_t
CellBinarize::channelOf(const Shape &shape, std::size_t flat) const
{
    if (shape.size() == 2)
        return flat % shape[1];
    const std::size_t plane = shape[2] * shape[3];
    return (flat / plane) % shape[1];
}

Tensor
CellBinarize::forwardTiled(const Tensor &input, bool training)
{
    // Exact hardware semantics: fold the BN into per-channel thresholds
    // (Eq. 16), divide each threshold evenly over the row tiles, sample
    // each tile neuron's stochastic bit from its own partial sum, and
    // take the SC accumulation module's majority decision; gamma < 0
    // inverts the output (Eq. 15). During training the fold uses the
    // current batch statistics (what the BN layer itself just used);
    // inference uses the running statistics programmed into Ith.
    FoldedBn folded;
    if (training && bn_->hasBatchStats()) {
        const std::size_t channels = bn_->channels();
        folded.vth.resize(channels);
        folded.flip.resize(channels);
        for (std::size_t c = 0; c < channels; ++c) {
            const double gamma = bn_->gamma().value[c];
            const double beta = bn_->beta().value[c];
            const double mu = bn_->batchMean()[c];
            const double sd = 1.0 / bn_->batchInvStd()[c];
            const double a = alpha_->value[c];
            double g = gamma;
            if (std::fabs(g) < 1e-12)
                g = 1e-12;
            folded.vth[c] = mu / a - beta * sd / (g * a);
            folded.flip[c] = gamma < 0.0;
        }
    } else {
        folded = foldBatchNorm(*bn_, alpha_->value);
    }
    const std::size_t t_count = tiles_->tileCount();
    const std::size_t e = input.size();
    const float *partials = tiles_->tilePartials().data();
    assert(tiles_->tilePartials().size() == t_count * e);
    const double share = 1.0 / static_cast<double>(t_count);
    std::vector<double> vth_share(bn_->channels());
    for (std::size_t c = 0; c < vth_share.size(); ++c)
        vth_share[c] = folded.vth[c] * share;
    std::vector<double> memo(bn_->channels() * kMemoSpan,
                             std::numeric_limits<double>::quiet_NaN());
    // Elements go a chunk at a time: gather every tile's probability,
    // reading each tile's partials contiguously; settle the saturated
    // tiles (p <= 0 or p >= 1, which Rng::bernoulli decides without a
    // draw) branch-free; then make the remaining draws in element-major
    // order, the exact Rng calls of a per-element loop. Channels are
    // stepped element by element (NCHW or NC order), not divided out.
    const std::size_t channels = input.dim(1);
    const std::size_t plane =
        input.rank() == 4 ? input.dim(2) * input.dim(3) : 1;
    std::size_t ch = 0, pos = 0;
    std::size_t chan[kDrawChunk], ones[kDrawChunk];
    std::vector<double> probs(kDrawChunk * t_count);
    std::vector<double> draw_p(kDrawChunk * t_count);
    std::vector<std::size_t> draw_elem(kDrawChunk * t_count);
    Tensor out(input.shape());
    for (std::size_t c0 = 0; c0 < e; c0 += kDrawChunk) {
        const std::size_t len = std::min(kDrawChunk, e - c0);
        for (std::size_t j = 0; j < len; ++j) {
            chan[j] = ch;
            if (++pos == plane) {
                pos = 0;
                ch = ch + 1 == channels ? 0 : ch + 1;
            }
        }
        for (std::size_t t = 0; t < t_count; ++t) {
            const float *row = partials + t * e + c0;
            for (std::size_t j = 0; j < len; ++j) {
                const double vth = vth_share[chan[j]];
                probs[j * t_count + t] = memoized(
                    memo.data() + chan[j] * kMemoSpan, row[j],
                    [&](double s_t) {
                        return 0.5
                            + 0.5 * std::erf(kSqrtPi * (s_t - vth)
                                             / deltaVin_);
                    });
            }
        }
        std::size_t draws = 0;
        for (std::size_t j = 0; j < len; ++j) {
            ones[j] = 0;
            for (std::size_t t = 0; t < t_count; ++t) {
                const double p = probs[j * t_count + t];
                ones[j] += p >= 1.0;
                draw_p[draws] = p;
                draw_elem[draws] = j;
                draws += static_cast<std::size_t>(!(p <= 0.0))
                    & static_cast<std::size_t>(!(p >= 1.0));
            }
        }
        for (std::size_t d = 0; d < draws; ++d)
            ones[draw_elem[d]] += rng_->bernoulli(draw_p[d]) ? 1 : 0;
        for (std::size_t j = 0; j < len; ++j) {
            int v = (2 * ones[j] >= t_count) ? 1 : -1;
            if (folded.flip[chan[j]])
                v = -v;
            out[c0 + j] = static_cast<float>(v);
        }
    }
    return out;
}

Tensor
CellBinarize::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 2 || input.rank() == 4);
    assert(input.dim(1) == bn_->channels());
    if (training)
        cachedInput = input;
    if (tiles_ != nullptr)
        return forwardTiled(input, training);
    Tensor out(input.shape());
    std::vector<double> widths(bn_->channels());
    for (std::size_t c = 0; c < widths.size(); ++c)
        widths[c] = channelWidth(c);
    for (std::size_t i = 0; i < input.size(); ++i) {
        const double w = widths[channelOf(input.shape(), i)];
        const double p =
            0.5 + 0.5 * std::erf(kSqrtPi * input[i] / w);
        out[i] = rng_->bernoulli(p) ? 1.0f : -1.0f;
    }
    return out;
}

Tensor
CellBinarize::backward(const Tensor &grad_output)
{
    assert(!cachedInput.empty());
    assert(grad_output.shape() == cachedInput.shape());
    Tensor dx(grad_output.shape());
    std::vector<double> widths(bn_->channels());
    for (std::size_t c = 0; c < widths.size(); ++c) {
        widths[c] = channelWidth(c);
        // In tile-aware mode the decision is a majority over row tiles;
        // its transition width in the BN-output domain is set by the
        // tile-sum dispersion (O(1) after normalization), not by the
        // single-buffer gray zone. Flooring the surrogate width at 1
        // keeps gradients alive across the realistic operating range.
        if (tiles_ != nullptr)
            widths[c] = std::max(widths[c], 1.0);
    }
    for (std::size_t i = 0; i < dx.size(); ++i) {
        const double w = widths[channelOf(cachedInput.shape(), i)];
        const double z = cachedInput[i] / w;
        const double de = (2.0 / w) * std::exp(-M_PI * z * z);
        dx[i] = grad_output[i] * static_cast<float>(de);
    }
    return dx;
}

HeadReadout::HeadReadout(const AqfpBehavior &behavior,
                         const aqfp::AttenuationModel &atten,
                         const nn::TilePartialSource *tiles,
                         const nn::Parameter *alpha,
                         std::size_t tile_size)
    : deltaVin_(behavior.deltaVin(atten)),
      surrogateWidth_(std::max(
          deltaVin_, 2.0 * std::sqrt(static_cast<double>(
                         std::max<std::size_t>(tile_size, 1))))),
      tiles_(tiles), alpha_(alpha)
{
    assert(tiles_ != nullptr && alpha_ != nullptr);
}

Tensor
HeadReadout::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 2);
    assert(input.dim(1) == alpha_->value.size());
    const std::size_t t_count = tiles_->tileCount();
    const std::size_t e = input.size();
    const float *partials = tiles_->tilePartials().data();
    assert(tiles_->tilePartials().size() == t_count * e);
    Tensor out(input.shape());
    Tensor slope(input.shape());
    for (std::size_t i = 0; i < e; ++i) {
        const std::size_t c = i % input.dim(1);
        double acc = 0.0, dacc = 0.0;
        for (std::size_t t = 0; t < t_count; ++t) {
            const double s_t = partials[t * e + i];
            acc += std::erf(kSqrtPi * s_t / deltaVin_);
            const double z = s_t / surrogateWidth_;
            dacc += std::exp(-M_PI * z * z);
        }
        out[i] = static_cast<float>(acc) * alpha_->value[c];
        // Mean surrogate slope of the squashed sum with respect to the
        // head's linear output alpha*s (chain through s = y/alpha).
        // The (2/W) physical prefactor is dropped so the surrogate has
        // unit scale inside the window — the standard STE convention.
        slope[i] = static_cast<float>(
            dacc / static_cast<double>(t_count));
    }
    if (training) {
        cachedShape = input.shape();
        cachedMeanSlope = std::move(slope);
    }
    return out;
}

Tensor
HeadReadout::backward(const Tensor &grad_output)
{
    assert(!cachedMeanSlope.empty());
    assert(grad_output.shape() == cachedShape);
    Tensor dx(grad_output.shape());
    for (std::size_t i = 0; i < dx.size(); ++i)
        dx[i] = grad_output[i] * cachedMeanSlope[i];
    return dx;
}

} // namespace superbnn::core
