#include "nn/recu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace superbnn::nn {

namespace {

/** Below this many values the order statistics come from nth_element. */
constexpr std::size_t kRadixMin = 5000;

/** Buckets of the radix histogram: the top 16 bits of a key. */
constexpr std::size_t kBuckets = std::size_t{1} << 16;

/** Buckets the rank scan sums at a time. */
constexpr std::size_t kScanBlock = 64;

/** Ranks one radix select serves: both statistics of two quantiles. */
constexpr std::size_t kMaxRanks = 4;

/** True for tau in [0.5, 1]; false for NaN. */
bool
validTau(double tau)
{
    return tau >= 0.5 && tau <= 1.0;
}

/**
 * Order-preserving key of a non-NaN float: a < b as floats implies
 * key(a) < key(b). -0 and +0 get distinct keys (-0 below +0), an order
 * a float sort may also produce.
 */
std::uint32_t
floatKey(float v)
{
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof b);
    return (b & 0x80000000u) ? ~b : b | 0x80000000u;
}

float
keyFloat(std::uint32_t k)
{
    const std::uint32_t b = (k & 0x80000000u) ? k & 0x7FFFFFFFu : ~k;
    float v;
    std::memcpy(&v, &b, sizeof v);
    return v;
}

[[noreturn]] void
throwNaN(const char *who, const char *what, std::size_t index)
{
    throw std::invalid_argument(std::string(who) + ": " + what + "["
                                + std::to_string(index) + "] is NaN");
}

/**
 * Linear interpolation between the order statistics lo = floor(pos)
 * and lo + 1 (lo again at the top) of pos = q * (n - 1).
 */
struct QuantileRanks
{
    std::size_t lo, hi;
    double frac;

    QuantileRanks(double q, std::size_t n)
    {
        const double pos = q * static_cast<double>(n - 1);
        lo = static_cast<std::size_t>(std::floor(pos));
        hi = std::min(lo + 1, n - 1);
        frac = pos - static_cast<double>(lo);
    }

    float
    interpolate(float lo_v, float hi_v) const
    {
        return static_cast<float>((1.0 - frac) * lo_v + frac * hi_v);
    }
};

/** Throws naming the first NaN of @p values. */
void
rejectNaN(const Tensor &values, const char *who, const char *what)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        if (std::isnan(values[i]))
            throwNaN(who, what, i);
}

/**
 * The quantile by selection on a float copy: nth_element at lo, and
 * the minimum of what it left above for lo + 1 — the floats a full
 * sort would put there.
 */
float
selectQuantile(const Tensor &values, const QuantileRanks &at)
{
    std::vector<float> order(values.data(), values.data() + values.size());
    const auto lo_it = order.begin() + static_cast<std::ptrdiff_t>(at.lo);
    std::nth_element(order.begin(), lo_it, order.end());
    const float lo_v = *lo_it;
    const float hi_v =
        at.hi > at.lo ? *std::min_element(lo_it + 1, order.end()) : lo_v;
    return at.interpolate(lo_v, hi_v);
}

/**
 * out[r] = the value at 0-based rank ranks[r] of @p values in floatKey
 * order, for at most kMaxRanks strictly ascending ranks, by radix
 * select: one pass counts a histogram of the keys' top 16 bits
 * (throwing at the first NaN, naming its index), a scan finds each
 * rank's bucket, one pass copies the keys of those buckets, and each
 * rank is selected inside its bucket.
 */
void
radixSelect(const Tensor &values, const std::size_t *ranks,
            std::size_t count, float *out, const char *who,
            const char *what)
{
    assert(count >= 1 && count <= kMaxRanks);
    const std::size_t n = values.size();
    const float *v = values.data();
    std::vector<std::uint32_t> hist(kBuckets, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (std::isnan(v[i]))
            throwNaN(who, what, i);
        ++hist[floatKey(v[i]) >> 16];
    }

    // Each rank's bucket and the count below it, skipping whole
    // kScanBlock runs of buckets while they end below the rank.
    std::size_t bucket[kMaxRanks], below[kMaxRanks];
    std::size_t sum = 0, b = 0;
    for (std::size_t r = 0; r < count; ++r) {
        while (b % kScanBlock == 0 && b + kScanBlock <= kBuckets) {
            std::uint32_t run = 0;
            for (std::size_t k = b; k < b + kScanBlock; ++k)
                run += hist[k];
            if (sum + run > ranks[r])
                break;
            sum += run;
            b += kScanBlock;
        }
        while (sum + hist[b] <= ranks[r])
            sum += hist[b++];
        bucket[r] = b;
        below[r] = sum;
    }

    // One pass copies the keys of every distinct target bucket.
    std::vector<std::uint32_t> in_bucket[kMaxRanks];
    std::size_t distinct[kMaxRanks], m = 0;
    for (std::size_t r = 0; r < count; ++r)
        if (m == 0 || bucket[r] != distinct[m - 1]) {
            in_bucket[m].reserve(hist[bucket[r]]);
            distinct[m++] = bucket[r];
        }
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t key = floatKey(v[i]);
        for (std::size_t d = 0; d < m; ++d)
            if ((key >> 16) == distinct[d])
                in_bucket[d].push_back(key);
    }
    // Every rank of a bucket, in ascending order, each selected from
    // what the previous one left above it.
    for (std::size_t r = 0, d = 0; r < count; ++d) {
        std::vector<std::uint32_t> &keys = in_bucket[d];
        auto from = keys.begin();
        for (; r < count && bucket[r] == distinct[d]; ++r) {
            const auto it =
                keys.begin() + static_cast<std::ptrdiff_t>(ranks[r] - below[r]);
            std::nth_element(from, it, keys.end());
            out[r] = keyFloat(*it);
            from = it + 1;
        }
    }
}

} // namespace

float
quantile(const Tensor &values, double q)
{
    if (values.empty())
        throw std::invalid_argument("nn::quantile: values is empty");
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument("nn::quantile: q must be in [0, 1]");
    const QuantileRanks at(q, values.size());
    if (values.size() < kRadixMin) {
        rejectNaN(values, "nn::quantile", "values");
        return selectQuantile(values, at);
    }
    const std::size_t ranks[2] = {at.lo, at.hi};
    float sel[2];
    const std::size_t count = at.hi > at.lo ? 2 : 1;
    radixSelect(values, ranks, count, sel, "nn::quantile", "values");
    return at.interpolate(sel[0], sel[count - 1]);
}

std::pair<float, float>
applyReCU(Tensor &weights, double tau)
{
    if (!validTau(tau))
        throw std::invalid_argument("nn::applyReCU: tau must be in [0.5, 1]");
    if (weights.empty())
        throw std::invalid_argument("nn::applyReCU: weights is empty");
    const QuantileRanks high_at(tau, weights.size());
    const QuantileRanks low_at(1.0 - tau, weights.size());
    float high, low;
    if (weights.size() < kRadixMin) {
        rejectNaN(weights, "nn::applyReCU", "weights");
        high = selectQuantile(weights, high_at);
        low = selectQuantile(weights, low_at);
    } else {
        // Both bounds from one key copy and one histogram: the ranks of
        // Q(1 - tau) sit at or below those of Q(tau).
        std::size_t ranks[4];
        std::size_t count = 0;
        for (const std::size_t r :
             {low_at.lo, low_at.hi, high_at.lo, high_at.hi})
            if (count == 0 || r > ranks[count - 1])
                ranks[count++] = r;
        float sel[4];
        radixSelect(weights, ranks, count, sel, "nn::applyReCU", "weights");
        const auto at = [&](std::size_t r) {
            return sel[std::lower_bound(ranks, ranks + count, r) - ranks];
        };
        high = high_at.interpolate(at(high_at.lo), at(high_at.hi));
        low = low_at.interpolate(at(low_at.lo), at(low_at.hi));
    }
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = std::max(std::min(weights[i], high), low);
    return {low, high};
}

ReCUSchedule::ReCUSchedule(double tau_start, double tau_end)
    : tauStart(tau_start), tauEnd(tau_end)
{
    if (!validTau(tau_start))
        throw std::invalid_argument(
            "nn::ReCUSchedule: tau_start must be in [0.5, 1]");
    if (!validTau(tau_end) || tau_end < tau_start)
        throw std::invalid_argument(
            "nn::ReCUSchedule: tau_end must be in [tau_start, 1]");
}

double
ReCUSchedule::tauAt(std::size_t epoch, std::size_t total) const
{
    if (total <= 1)
        return tauEnd;
    const double progress = static_cast<double>(epoch)
        / static_cast<double>(total - 1);
    return tauStart + (tauEnd - tauStart) * std::min(progress, 1.0);
}

} // namespace superbnn::nn
