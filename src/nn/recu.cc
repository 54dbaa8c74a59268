#include "nn/recu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace superbnn::nn {

namespace {

/** True for tau in [0.5, 1]; false for NaN. */
bool
validTau(double tau)
{
    return tau >= 0.5 && tau <= 1.0;
}

} // namespace

float
quantile(const Tensor &values, double q)
{
    if (values.empty())
        throw std::invalid_argument("nn::quantile: values is empty");
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument("nn::quantile: q must be in [0, 1]");
    // The two order statistics at lo and lo + 1 by selection: the same
    // floats a full sort would put there.
    std::vector<float> order(values.data(), values.data() + values.size());
    const double pos = q * static_cast<double>(order.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const auto lo_it = order.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(order.begin(), lo_it, order.end());
    const float lo_v = *lo_it;
    const float hi_v = lo + 1 < order.size()
        ? *std::min_element(lo_it + 1, order.end())
        : lo_v;
    const double frac = pos - static_cast<double>(lo);
    return static_cast<float>((1.0 - frac) * lo_v + frac * hi_v);
}

std::pair<float, float>
applyReCU(Tensor &weights, double tau)
{
    if (!validTau(tau))
        throw std::invalid_argument("nn::applyReCU: tau must be in [0.5, 1]");
    const float high = quantile(weights, tau);
    const float low = quantile(weights, 1.0 - tau);
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
