#include "aqfp/grayzone.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace superbnn::aqfp {

namespace {
constexpr double kSqrtPi = 1.7724538509055160273;
} // namespace

GrayZoneModel::GrayZoneModel(double delta_iin, double ith) : ith_(ith)
{
    setDeltaIin(delta_iin);
}

void
GrayZoneModel::setDeltaIin(double d)
{
    if (!std::isfinite(d) || !(d > 0.0))
        throw std::invalid_argument(
            "GrayZoneModel: delta_iin must be positive and finite (got "
            + std::to_string(d) + ")");
    deltaIin_ = d;
}

double
GrayZoneModel::probOne(double iin) const
{
    return 0.5 + 0.5 * std::erf(kSqrtPi * (iin - ith_) / deltaIin_);
}

double
GrayZoneModel::expectationGrad(double iin) const
{
    const double z = (iin - ith_) / deltaIin_;
    return (2.0 / deltaIin_) * std::exp(-M_PI * z * z);
}

int
GrayZoneModel::sampleBit(double iin, Rng &rng) const
{
    return rng.bernoulli(probOne(iin)) ? 1 : 0;
}

double
GrayZoneModel::deterministicBoundary(double eps) const
{
    // Solve 0.5 + 0.5 erf(sqrt(pi) x / D) = 1 - eps  =>
    // x = D * erfinv(1 - 2 eps) / sqrt(pi). Newton iteration on erf.
    assert(eps > 0.0 && eps < 0.5);
    const double target = 1.0 - 2.0 * eps;
    double x = 1.0;
    for (int i = 0; i < 60; ++i) {
        const double f = std::erf(x) - target;
        const double df = 2.0 / kSqrtPi * std::exp(-x * x);
        x -= f / df;
    }
    return deltaIin_ * x / kSqrtPi;
}

} // namespace superbnn::aqfp
