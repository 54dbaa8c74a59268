#include "core/bn_matching.h"

#include <cassert>
#include <cmath>

namespace superbnn::core {

namespace {
constexpr double kSqrtPi = 1.7724538509055160273;
} // namespace

FoldedBn
foldBatchNorm(const nn::BatchNorm &bn, const Tensor &alpha)
{
    const std::size_t channels = bn.channels();
    assert(alpha.size() == channels);
    FoldedBn folded;
    folded.vth.resize(channels);
    folded.flip.resize(channels);
    for (std::size_t c = 0; c < channels; ++c) {
        const double gamma = bn.gamma().value[c];
        const double beta = bn.beta().value[c];
        const double mu = bn.runningMean()[c];
        const double sd = std::sqrt(bn.runningVar()[c] + bn.eps());
        // A zero alpha (or a NaN weight or statistic) yields a
        // non-finite vth, which CrossbarMapper::setThresholds rejects.
        const double a = alpha[c];
        double g = gamma;
        // Degenerate slope: fall back to the sign of beta alone (the BN
        // output is the constant beta).
        if (std::fabs(g) < 1e-12)
            g = 1e-12;
        // vth solves gamma (alpha s - mu)/sd + beta = 0 (Eq. 16 in the
        // value domain).
        folded.vth[c] = mu / a - beta * sd / (g * a);
        folded.flip[c] = gamma < 0.0;
    }
    return folded;
}

double
explicitCellProbability(const nn::BatchNorm &bn, const Tensor &alpha,
                        std::size_t c, double s, double delta_vin)
{
    assert(c < bn.channels());
    const double gamma = bn.gamma().value[c];
    const double beta = bn.beta().value[c];
    const double mu = bn.runningMean()[c];
    const double sd = std::sqrt(bn.runningVar()[c] + bn.eps());
    const double a = alpha[c];
    const double xbn = gamma * (a * s - mu) / sd + beta;
    // The cell fires +1 iff the BN output is positive; in the BN-output
    // domain the stochastic transition width is |k| * deltaVin with k
    // the BN slope in the raw-sum domain. (The gamma < 0 flip of Eq. 15
    // is already absorbed by the sign of xbn itself.)
    const double k = std::max(std::fabs(gamma * a / sd), 1e-12);
    return 0.5 + 0.5 * std::erf(kSqrtPi * xbn / (k * delta_vin));
}

double
foldedCellProbability(const FoldedBn &folded, std::size_t c, double s,
                      double delta_vin)
{
    assert(c < folded.channels());
    const double p =
        0.5 + 0.5 * std::erf(kSqrtPi * (s - folded.vth[c]) / delta_vin);
    return folded.flip[c] ? 1.0 - p : p;
}

} // namespace superbnn::core
