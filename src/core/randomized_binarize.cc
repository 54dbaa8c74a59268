#include "core/randomized_binarize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bn_matching.h"
#include "tensor/tensor_ops.h"

namespace superbnn::core {

namespace {

constexpr double kSqrtPi = 1.7724538509055160273;

/**
 * Widest tile partial with a probability-table slot, so that a slot
 * index (partial + radius) fits in one byte.
 */
constexpr std::size_t kTableRadius = 127;

/** Elements per CellBinarize::forward round. */
constexpr std::size_t kRoundElems = std::size_t{1} << 14;

/** Draw records (element x tile slots) per CellBinarize::forward round. */
constexpr std::size_t kRoundSlots = std::size_t{1} << 16;

/** Most elements in one unit, so a record's element fits a byte. */
constexpr std::size_t kUnitElems = 256;

/** Most units in one round: kRoundElems / kUnitElems (wide tiles fit fewer). */
constexpr std::size_t kRoundUnits = kRoundElems / kUnitElems;

/** parallelRowBlocks work units (multiply-adds) of one erf / exp. */
constexpr std::size_t kErfWork = 32;

/** parallelRowBlocks work units of one coded tile partial. */
constexpr std::size_t kTileWork = 8;

/**
 * Bytes of slot codes one unit gathers at a time, and so the most row
 * tiles CellBinarize::forward takes (a fan-in of 65,536 at Cs 16).
 */
constexpr std::size_t kCodeBytes = 4096;

/** Slot code of a partial the probability table does not hold. */
constexpr std::uint8_t kNoSlot = 0xFF;

/** Slot classes: p >= 1 (a one without a draw), 0 < p < 1 (a draw). */
constexpr std::uint8_t kOne = 1;
constexpr std::uint8_t kDraw = 2;

/**
 * 1.5 * 2^23, in the middle of a binade of unit spacing: for an integer
 * v with |v| < 2^22, v + kRoundMagic is exact and its bits exceed
 * kRoundMagicBits by v.
 */
constexpr float kRoundMagic = 12582912.0f;
constexpr std::uint32_t kRoundMagicBits = 0x4B400000u;

/**
 * code[j] = v[j] + radius when v[j] is an integer in [-radius, radius]
 * (radius <= 127), else kNoSlot: v[j] is such an integer exactly when
 * f = v[j] + kRoundMagic gives back v[j] and f's bits lie within
 * radius of kRoundMagicBits (NaN fails the first test). Unsigned and
 * branch-free, so the loop vectorizes.
 */
void
slotCodes(const float *v, std::size_t len, std::uint32_t radius,
          std::uint8_t *code)
{
    for (std::size_t j = 0; j < len; ++j) {
        const float f = v[j] + kRoundMagic;
        std::uint32_t bits;
        std::memcpy(&bits, &f, sizeof bits);
        const std::uint32_t slot = bits - kRoundMagicBits + radius;
        const bool hit = (f - kRoundMagic == v[j]) & (slot <= 2 * radius);
        code[j] = hit ? static_cast<std::uint8_t>(slot) : kNoSlot;
    }
}

/** Grow @p v to at least @p n elements; never shrinks or re-fills. */
template <typename T>
T *
atLeast(std::vector<T> &v, std::size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return v.data();
}

} // namespace

CellBinarize::CellBinarize(const AqfpBehavior &behavior,
                           const aqfp::AttenuationModel &atten, Rng &rng,
                           const nn::BatchNorm *bn,
                           const nn::Parameter *alpha,
                           const nn::TilePartialSource &tiles)
    : deltaVin_(behavior.deltaVin(atten)), rng_(&rng), bn_(bn),
      alpha_(alpha), tiles_(&tiles)
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

Tensor
CellBinarize::forward(const Tensor &input, bool training)
{
    assert(input.rank() == 2 || input.rank() == 4);
    assert(input.dim(1) == bn_->channels());
    if (training)
        cachedInput = input;
    // During training the fold uses the current batch statistics (what
    // the BN layer itself just used); inference uses the running
    // statistics programmed into Ith.
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
    if (tiles_->tilePartials().size() != t_count * e)
        throw std::logic_error(
            "CellBinarize::forward: the tile partials hold "
            + std::to_string(tiles_->tilePartials().size())
            + " values, expected tileCount() * elements = "
            + std::to_string(t_count * e));
    if (t_count == 0 || t_count > kCodeBytes)
        throw std::logic_error(
            "CellBinarize::forward: " + std::to_string(t_count)
            + " row tiles, outside [1, " + std::to_string(kCodeBytes) + "]");
    const float *partials = tiles_->tilePartials().data();
    const std::size_t channels = input.dim(1);
    const std::size_t plane =
        input.rank() == 4 ? input.dim(2) * input.dim(3) : 1;
    const double share = 1.0 / static_cast<double>(t_count);
    std::vector<double> vth_share(channels);
    for (std::size_t c = 0; c < channels; ++c)
        vth_share[c] = folded.vth[c] * share;
    Tensor out(input.shape());
    const auto tile_prob = [&](double s_t, std::size_t c) {
        return 0.5
            + 0.5 * std::erf(kSqrtPi * (s_t - vth_share[c]) / deltaVin_);
    };

    // +/-1 activations and weights make every partial an integer in
    // [-tileRows, tileRows], so each channel's probabilities are one
    // table over that range, built before any task reads it, with each
    // slot's class beside it (slot kNoSlot has none). -0 and +0 share a
    // slot, which the probability maps alike.
    const std::size_t radius =
        std::min(tiles_->tileRows(), kTableRadius);
    const std::size_t span = 2 * radius + 1;
    double *table = atLeast(probTable_, channels * span);
    std::uint8_t *classes = atLeast(slotClass_, channels * 256);
    parallelRowBlocks(channels, span * kErfWork,
                      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
            std::uint8_t *cls = classes + c * 256;
            std::fill(cls, cls + 256, std::uint8_t{0});
            for (std::size_t k = 0; k < span; ++k) {
                const double p = tile_prob(
                    static_cast<double>(k) - static_cast<double>(radius),
                    c);
                table[c * span + k] = p;
                // Rng::bernoulli settles p <= 0 and p >= 1 without a
                // draw; anything else (NaN too) draws.
                cls[k] = p >= 1.0 ? kOne
                                  : !(p <= 0.0) ? kDraw : std::uint8_t{0};
            }
        }
    });

    // Elements go a round at a time, in units of up to kUnitElems.
    // Phase 1, on the pool, one unit per step: code every partial,
    // count each element's p >= 1 tiles, and write one record (table
    // slot, element) per tile that needs a draw, element-major and in
    // tile order; an element with a partial the table does not hold gets
    // one kNoSlot record instead. Phase 2, on this thread: walk the
    // records unit by unit, the exact Rng calls of a per-element loop,
    // then take each majority and apply the flip. The round scratch
    // lives on this thread's stack (~160 KiB): bounded, reused by every
    // round, and never part of the heap.
    const auto decide = [&](std::size_t ones, std::size_t c) {
        const bool one = 2 * ones >= t_count;
        return one != folded.flip[c] ? 1.0f : -1.0f;
    };
    const std::size_t unit =
        std::clamp<std::size_t>(kCodeBytes / t_count, 1, kUnitElems);
    const std::size_t units_per_round =
        std::min(kRoundSlots / (unit * t_count), kRoundElems / unit);
    const std::size_t round = units_per_round * unit;
    assert(units_per_round <= kRoundUnits && round * t_count <= kRoundSlots);
    std::uint8_t rec_slot[kRoundSlots], rec_elem[kRoundSlots];
    std::uint32_t rec_count[kRoundUnits];
    std::uint16_t sat[kRoundElems];
    std::size_t ch = 0, pos = 0;
    for (std::size_t r0 = 0; r0 < e; r0 += round) {
        const std::size_t len = std::min(round, e - r0);
        const std::size_t units = (len + unit - 1) / unit;
        parallelRowBlocks(units, unit * t_count * kTileWork,
                          [&, r0, len](std::size_t lo, std::size_t hi) {
            // Locals: a byte store may alias anything a capture reaches,
            // so reads through captures would reload after each one.
            const std::size_t tc = t_count, stride = e, nc = channels;
            const std::size_t pl = plane, un = unit;
            const auto rad = static_cast<std::uint32_t>(radius);
            const float *part = partials + r0;
            const std::uint8_t *cls_all = classes;
            std::uint8_t unit_codes[kCodeBytes];
            for (std::size_t u = lo; u < hi; ++u) {
                const std::size_t j0 = u * un;
                const std::size_t nj = std::min(un, len - j0);
                std::uint8_t *rs = rec_slot + j0 * tc;
                std::uint8_t *re = rec_elem + j0 * tc;
                // Codes tile-major, so each tile's partials are read
                // contiguously.
                for (std::size_t t = 0; t < tc; ++t)
                    slotCodes(part + t * stride + j0, nj, rad,
                              unit_codes + t * nj);
                std::size_t c = (r0 + j0) / pl % nc, p = (r0 + j0) % pl;
                std::size_t n = 0;
                for (std::size_t j = 0; j < nj; ++j) {
                    const std::uint8_t *cls = cls_all + c * 256;
                    const std::size_t first = n;
                    std::uint32_t ones = 0;
                    bool direct = false;
                    for (std::size_t t = 0; t < tc; ++t) {
                        const std::uint8_t k = unit_codes[t * nj + j];
                        const std::uint8_t q = cls[k];
                        direct |= k == kNoSlot;
                        ones += q & kOne;
                        rs[n] = k;
                        re[n] = static_cast<std::uint8_t>(j);
                        n += q >> 1;
                    }
                    if (direct) {
                        n = first;
                        ones = 0;
                        rs[n] = kNoSlot;
                        re[n++] = static_cast<std::uint8_t>(j);
                    }
                    sat[j0 + j] = static_cast<std::uint16_t>(ones);
                    if (++p == pl) {
                        p = 0;
                        c = c + 1 == nc ? 0 : c + 1;
                    }
                }
                rec_count[u] = static_cast<std::uint32_t>(n);
            }
        });
        std::size_t chan[kUnitElems];
        std::uint32_t ones[kUnitElems];
        for (std::size_t u = 0; u < units; ++u) {
            const std::size_t j0 = u * unit;
            const std::size_t nj = std::min(unit, len - j0);
            for (std::size_t j = 0; j < nj; ++j) {
                chan[j] = ch;
                ones[j] = sat[j0 + j];
                if (++pos == plane) {
                    pos = 0;
                    ch = ch + 1 == channels ? 0 : ch + 1;
                }
            }
            const std::uint8_t *rs = rec_slot + j0 * t_count;
            const std::uint8_t *re = rec_elem + j0 * t_count;
            for (std::size_t k = 0; k < rec_count[u]; ++k) {
                const std::size_t j = re[k];
                if (rs[k] == kNoSlot) {
                    for (std::size_t t = 0; t < t_count; ++t)
                        ones[j] += rng_->bernoulli(tile_prob(
                            partials[t * e + r0 + j0 + j], chan[j]));
                } else {
                    ones[j] += rng_->bernoulli(
                        table[chan[j] * span + rs[k]]);
                }
            }
            for (std::size_t j = 0; j < nj; ++j)
                out[r0 + j0 + j] = decide(ones[j], chan[j]);
        }
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
    // The decision is a majority over row tiles; its transition width
    // in the BN-output domain is set by the tile-sum dispersion (O(1)
    // after normalization), not by the single-buffer gray zone.
    // Flooring the surrogate width at 1 keeps gradients alive across
    // the realistic operating range.
    for (std::size_t c = 0; c < widths.size(); ++c)
        widths[c] = std::max(channelWidth(c), 1.0);
    forEachPlane(cachedInput.shape(), kErfWork,
                 [&](std::size_t lo, std::size_t hi, std::size_t c) {
        const double w = widths[c];
        for (std::size_t i = lo; i < hi; ++i) {
            const double z = cachedInput[i] / w;
            const double de = (2.0 / w) * std::exp(-M_PI * z * z);
            dx[i] = grad_output[i] * static_cast<float>(de);
        }
    });
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
    if (tiles_->tilePartials().size() != t_count * e)
        throw std::logic_error(
            "HeadReadout::forward: the tile partials hold "
            + std::to_string(tiles_->tilePartials().size())
            + " values, expected tileCount() * elements = "
            + std::to_string(t_count * e));
    const float *partials = tiles_->tilePartials().data();
    Tensor out(input.shape());
    Tensor slope(input.shape());
    const std::size_t classes = input.dim(1);
    parallelRowBlocks(e, 2 * t_count * kErfWork,
                      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            double acc = 0.0, dacc = 0.0;
            for (std::size_t t = 0; t < t_count; ++t) {
                const double s_t = partials[t * e + i];
                acc += std::erf(kSqrtPi * s_t / deltaVin_);
                const double z = s_t / surrogateWidth_;
                dacc += std::exp(-M_PI * z * z);
            }
            out[i] = static_cast<float>(acc) * alpha_->value[i % classes];
            // Mean surrogate slope of the squashed sum with respect to
            // the head's linear output alpha*s (chain through
            // s = y/alpha). The (2/W) physical prefactor is dropped so
            // the surrogate has unit scale inside the window — the
            // standard STE convention.
            slope[i] = static_cast<float>(
                dacc / static_cast<double>(t_count));
        }
    });
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
