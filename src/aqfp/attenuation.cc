#include "aqfp/attenuation.h"

#include <cassert>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

namespace superbnn::aqfp {

double
PowerLawFit::evaluate(double cs) const
{
    return a * std::pow(cs, -b);
}

LadderAttenuationSimulator::LadderAttenuationSimulator(
    double drive_current_ua, double coupling, double l_out, double l_seg)
    : driveCurrent(drive_current_ua), couplingRatio(coupling),
      lOut(l_out), lSeg(l_seg)
{
    assert(drive_current_ua > 0.0 && coupling > 0.0);
    assert(l_out > 0.0 && l_seg > 0.0);
}

double
LadderAttenuationSimulator::outputCurrent(std::size_t cs) const
{
    assert(cs >= 1);
    return driveCurrent * couplingRatio * lOut
        / (lOut + static_cast<double>(cs) * lSeg);
}

double
LadderAttenuationSimulator::mergedCurrent(
    const std::vector<int> &products) const
{
    long sum = 0;
    for (int p : products) {
        assert(p == 1 || p == -1);
        sum += p;
    }
    return static_cast<double>(sum) * outputCurrent(products.size());
}

std::vector<AttenuationPoint>
LadderAttenuationSimulator::measure(const std::vector<std::size_t> &sizes,
                                    double noise_fraction,
                                    unsigned seed) const
{
    std::mt19937_64 engine(seed);
    std::normal_distribution<double> noise(0.0, 1.0);
    std::vector<AttenuationPoint> points;
    points.reserve(sizes.size());
    for (std::size_t cs : sizes) {
        double i1 = outputCurrent(cs);
        if (noise_fraction > 0.0)
            i1 *= 1.0 + noise_fraction * noise(engine);
        points.push_back({cs, i1});
    }
    return points;
}

PowerLawFit
fitPowerLaw(const std::vector<AttenuationPoint> &points)
{
    assert(points.size() >= 2);
    // Linear regression of log(I1) = log(A) - B * log(Cs).
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    const double n = static_cast<double>(points.size());
    for (const auto &p : points) {
        assert(p.crossbarSize >= 1 && p.outputCurrentUa > 0.0);
        const double x = std::log(static_cast<double>(p.crossbarSize));
        const double y = std::log(p.outputCurrentUa);
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    const double denom = n * sxx - sx * sx;
    assert(denom != 0.0);
    const double slope = (n * sxy - sx * sy) / denom;
    const double intercept = (sy - slope * sx) / n;

    PowerLawFit fit;
    fit.a = std::exp(intercept);
    fit.b = -slope;

    double err = 0.0;
    for (const auto &p : points) {
        const double pred = std::log(fit.evaluate(
            static_cast<double>(p.crossbarSize)));
        const double d = std::log(p.outputCurrentUa) - pred;
        err += d * d;
    }
    fit.rmsLogError = std::sqrt(err / n);
    return fit;
}

namespace {

PowerLawFit
defaultFit()
{
    const LadderAttenuationSimulator sim;
    const std::vector<std::size_t> sizes =
        {4, 8, 16, 18, 24, 36, 48, 72, 96, 144};
    return fitPowerLaw(sim.measure(sizes));
}

} // namespace

AttenuationModel::AttenuationModel() : fit_(defaultFit()) {}

AttenuationModel::AttenuationModel(PowerLawFit fit) : fit_(fit) {}

double
AttenuationModel::currentForValueOne(double cs) const
{
    if (!(cs >= 1.0))
        throw std::invalid_argument(
            "AttenuationModel: crossbar size Cs must be >= 1, got "
            + std::to_string(cs));
    return fit_.evaluate(cs);
}

double
AttenuationModel::valueGrayZone(double cs, double delta_iin_ua) const
{
    if (!(delta_iin_ua > 0.0))
        throw std::invalid_argument(
            "AttenuationModel: gray-zone width deltaIin must be > 0 uA, "
            "got " + std::to_string(delta_iin_ua));
    return delta_iin_ua / currentForValueOne(cs);
}

} // namespace superbnn::aqfp
