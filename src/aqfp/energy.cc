#include "aqfp/energy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "aqfp/clocking.h"

namespace superbnn::aqfp {

namespace {

/**
 * The shared buffer-chain activation memory both pricing paths charge:
 * one word of the workload's widest activation, 3-phase clocking
 * (Section 4.4). Single construction point — the measured-vs-analytic
 * memory-term agreement depends on every caller sizing identical
 * hardware.
 */
BufferChainMemory
activationBuffer(std::size_t max_act_bits, const CellLibrary &lib)
{
    return BufferChainMemory(1, std::max<std::size_t>(max_act_bits, 1),
                             3, lib);
}

} // namespace

LayerSpec
LayerSpec::conv(std::string name, std::size_t in_ch, std::size_t out_ch,
                std::size_t kernel, std::size_t out_h, std::size_t out_w)
{
    return {std::move(name), in_ch * kernel * kernel, out_ch, out_h * out_w};
}

LayerSpec
LayerSpec::fc(std::string name, std::size_t in_features,
              std::size_t out_features)
{
    return {std::move(name), in_features, out_features, 1};
}

std::size_t
LayerSpec::macs() const
{
    std::size_t product = 0;
    if (__builtin_mul_overflow(fanIn, fanOut, &product)
        || __builtin_mul_overflow(product, positions, &product))
        throw std::overflow_error(
            "LayerSpec::macs: fanIn * fanOut * positions overflows "
            "std::size_t in layer '"
            + name + "'");
    return product;
}

std::size_t
LayerSpec::ops() const
{
    std::size_t result = 0;
    if (__builtin_mul_overflow(macs(), std::size_t{2}, &result))
        throw std::overflow_error(
            "LayerSpec::ops: 2 * macs() overflows std::size_t in "
            "layer '"
            + name + "'");
    return result;
}

void
LayerSpec::validate() const
{
    if (fanIn == 0 || fanOut == 0 || positions == 0)
        throw std::invalid_argument(
            "LayerSpec '" + name
            + "': fanIn, fanOut and positions must all be nonzero (got "
            + std::to_string(fanIn) + " x " + std::to_string(fanOut)
            + " x " + std::to_string(positions) + ")");
}

std::size_t
WorkloadSpec::totalMacs() const
{
    std::size_t total = 0;
    for (const auto &l : layers)
        if (__builtin_add_overflow(total, l.macs(), &total))
            throw std::overflow_error(
                "WorkloadSpec::totalMacs overflows std::size_t in "
                "workload '"
                + name + "'");
    return total;
}

std::size_t
WorkloadSpec::totalOps() const
{
    std::size_t ops = 0;
    if (__builtin_mul_overflow(totalMacs(), std::size_t{2}, &ops))
        throw std::overflow_error(
            "WorkloadSpec::totalOps overflows std::size_t in workload '"
            + name + "'");
    return ops;
}

std::size_t
WorkloadSpec::totalWeightBits() const
{
    std::size_t total = 0;
    for (const auto &l : layers)
        total += l.fanIn * l.fanOut;
    return total;
}

std::size_t
WorkloadSpec::maxActivationBits() const
{
    std::size_t max_bits = 0;
    for (const auto &l : layers) {
        std::size_t bits = 0;
        if (__builtin_mul_overflow(l.fanOut, l.positions, &bits))
            throw std::overflow_error(
                "WorkloadSpec::maxActivationBits: fanOut * positions "
                "overflows std::size_t in layer '"
                + l.name + "'");
        max_bits = std::max(max_bits, bits);
    }
    return max_bits;
}

void
WorkloadSpec::validate() const
{
    if (layers.empty())
        throw std::invalid_argument("WorkloadSpec '" + name
                                    + "' has no layers");
    for (const auto &l : layers)
        l.validate();
}

EnergyModel::EnergyModel(CrossbarHardwareModel hardware)
    : hw(std::move(hardware))
{
}

std::size_t
EnergyModel::scModuleJj(std::size_t row_tiles,
                        std::size_t bitstream_len) const
{
    const CellLibrary &lib = hw.library();
    // Approximate parallel counter: a tree of majority-based full adders.
    // An exact parallel counter over T inputs needs about T-1 full adders;
    // the approximate design (Kim et al.) replaces the bottom layer with
    // OR-based approximation units, saving roughly a quarter of the gates.
    const std::size_t t = std::max<std::size_t>(row_tiles, 1);
    const std::size_t full_adders = (t > 1) ? (3 * (t - 1)) / 4 : 0;
    const std::size_t fa_jj = 2 * lib.jjCount(CellType::Majority)
        + 2 * lib.jjCount(CellType::Inverter); // MAJ-based carry/sum pair
    // Accumulator register sized to count up to T * L.
    const std::size_t count_bits = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(t * bitstream_len) + 1.0)));
    const std::size_t accumulator_jj =
        count_bits * (lib.jjCount(CellType::Buffer)
                      + lib.jjCount(CellType::Majority));
    // Comparator against the reference Ref (Fig. 6b): one majority stage
    // per count bit plus a readout.
    const std::size_t comparator_jj =
        count_bits * lib.jjCount(CellType::Majority)
        + lib.jjCount(CellType::ReadOut);
    return full_adders * fa_jj + accumulator_jj + comparator_jj;
}

void
EnergyModel::finalizeReport(EnergyReport &rep,
                            const AcceleratorConfig &config) const
{
    rep.totalEnergyAj = rep.crossbarEnergyAj + rep.scModuleEnergyAj
        + rep.memoryEnergyAj;
    rep.latencyUs = rep.cyclesPerImage / (config.frequencyGhz * 1e3);
    rep.throughputImagesPerMs =
        (rep.latencyUs > 0.0) ? 1e3 / rep.latencyUs : 0.0;

    const double joules = rep.totalEnergyAj * 1e-18;
    rep.powerW = joules * rep.throughputImagesPerMs * 1e3;
    rep.topsPerWatt = (joules > 0.0)
        ? static_cast<double>(rep.opsPerImage) / joules / 1e12
        : 0.0;
    rep.topsPerWattCooled = rep.topsPerWatt / kCoolingFactor;
}

EnergyReport
EnergyModel::evaluateLayer(const LayerSpec &layer,
                           const AcceleratorConfig &config,
                           std::size_t max_act_bits) const
{
    assert(config.crossbarSize >= 1 && config.bitstreamLength >= 1);
    assert(config.frequencyGhz > 0.0);
    layer.validate();

    const std::size_t cs = config.crossbarSize;
    const std::size_t len = config.bitstreamLength;
    const double e_jj = CellLibrary::energyPerJjAj(config.frequencyGhz);
    const double e_xbar_cycle =
        hw.energyPerCycleAj(cs, config.frequencyGhz);

    const std::size_t row_tiles = (layer.fanIn + cs - 1) / cs;
    const std::size_t col_tiles = (layer.fanOut + cs - 1) / cs;

    EnergyReport rep;
    rep.opsPerImage = layer.ops();

    // Each output position evaluates all row tiles of one column group
    // in parallel for L cycles; column groups serialize.
    const double evals = static_cast<double>(layer.positions)
        * static_cast<double>(col_tiles) * static_cast<double>(len);
    rep.crossbarEnergyAj =
        evals * static_cast<double>(row_tiles) * e_xbar_cycle;

    // One SC accumulation module per crossbar column, Cs columns per
    // column group, active for every evaluation cycle.
    const std::size_t sc_jj = scModuleJj(row_tiles, len);
    rep.scModuleEnergyAj = evals * static_cast<double>(sc_jj)
        * static_cast<double>(cs) * e_jj;

    // Activation memory: buffer-chain memory holding the widest
    // intermediate feature map of the whole workload, refreshed every
    // compute cycle; only the accessed slice (one column group worth
    // per cycle) switches.
    const BufferChainMemory act_mem =
        activationBuffer(max_act_bits, hw.library());
    rep.memoryEnergyAj = evals
        * static_cast<double>(act_mem.totalJj()) * kMemoryActiveFraction
        * e_jj;

    rep.cyclesPerImage = evals;
    finalizeReport(rep, config);

    rep.crossbarCount = row_tiles * col_tiles;
    rep.totalJj = rep.crossbarCount * hw.jjCount(cs)
        + sc_jj * cs * col_tiles;
    return rep;
}

EnergyReport
EnergyModel::combineLayerReports(const std::vector<EnergyReport> &layers,
                                 const AcceleratorConfig &config,
                                 std::size_t ops_per_image,
                                 std::size_t max_act_bits) const
{
    EnergyReport rep;
    rep.opsPerImage = ops_per_image;
    for (const EnergyReport &lr : layers) {
        rep.crossbarEnergyAj += lr.crossbarEnergyAj;
        rep.scModuleEnergyAj += lr.scModuleEnergyAj;
        rep.memoryEnergyAj += lr.memoryEnergyAj;
        rep.cyclesPerImage += lr.cyclesPerImage;
        rep.crossbarCount += lr.crossbarCount;
        rep.totalJj += lr.totalJj;
    }
    finalizeReport(rep, config);
    // The shared activation buffer is one piece of hardware; count its
    // JJs once at the workload level (per-layer reports exclude it).
    rep.totalJj += activationBuffer(max_act_bits, hw.library()).totalJj();
    return rep;
}

namespace {

/** @p layerReport over every layer, folded through combineLayerReports. */
template <typename LayerReport>
EnergyReport
foldWorkload(const EnergyModel &model, const WorkloadSpec &workload,
             const AcceleratorConfig &config,
             const LayerReport &layerReport)
{
    workload.validate();
    const std::size_t max_act_bits = workload.maxActivationBits();

    std::vector<EnergyReport> layers;
    layers.reserve(workload.layers.size());
    for (const auto &layer : workload.layers)
        layers.push_back(layerReport(layer, max_act_bits));
    return model.combineLayerReports(layers, config, workload.totalOps(),
                                     max_act_bits);
}

} // namespace

EnergyReport
EnergyModel::evaluate(const WorkloadSpec &workload,
                      const AcceleratorConfig &config) const
{
    return foldWorkload(*this, workload, config,
                        [&](const LayerSpec &layer, std::size_t bits) {
                            return evaluateLayer(layer, config, bits);
                        });
}

EnergyReport
EnergyModel::measureLayer(const LayerSpec &layer,
                          const AcceleratorConfig &config,
                          std::size_t max_act_bits) const
{
    const LedgerPricingContext ctx =
        layerReplayContext(layer, config, max_act_bits);
    return priceLedger(forwardCounts(layer.fanIn, layer.fanOut,
                                     config.crossbarSize,
                                     config.bitstreamLength, 1),
                       ctx);
}

EnergyReport
EnergyModel::measureWorkload(const WorkloadSpec &workload,
                             const AcceleratorConfig &config) const
{
    return foldWorkload(*this, workload, config,
                        [&](const LayerSpec &layer, std::size_t bits) {
                            return measureLayer(layer, config, bits);
                        });
}

EnergyReport
EnergyModel::priceLedger(const LedgerCounts &counts,
                         const LedgerPricingContext &ctx) const
{
    const AcceleratorConfig &config = ctx.config;
    assert(config.crossbarSize >= 1 && config.bitstreamLength >= 1);
    assert(config.frequencyGhz > 0.0);
    if (!(ctx.images > 0.0) || !(ctx.countScale > 0.0))
        throw std::invalid_argument(
            "EnergyModel::priceLedger: images and countScale must be "
            "positive (counts cannot be normalized per image "
            "otherwise); callers with zero observed images should "
            "emit flagged placeholder reports instead — see "
            "HardwareEvaluator::energyReports");

    const std::size_t cs = config.crossbarSize;
    const std::size_t len = config.bitstreamLength;
    const double e_jj = CellLibrary::energyPerJjAj(config.frequencyGhz);
    const double e_xbar_cycle =
        hw.energyPerCycleAj(cs, config.frequencyGhz);
    const double scale = ctx.countScale / ctx.images;

    EnergyReport rep;
    rep.opsPerImage = ctx.opsPerImage;

    // Crossbar arrays: every observed active tile-cycle costs one
    // Table-1 per-cycle energy quantum.
    rep.crossbarEnergyAj =
        static_cast<double>(counts.crossbarCycles) * scale * e_xbar_cycle;

    // SC accumulation modules: each observed column merge keeps one
    // module busy for the whole window. Only real columns are counted
    // (the analytic model charges whole Cs-wide groups — the one
    // documented divergence, asserted by the differential suite).
    const std::size_t sc_jj = scModuleJj(ctx.rowTiles, len);
    rep.scModuleEnergyAj = static_cast<double>(counts.apcAccumulations)
        * scale * static_cast<double>(len) * static_cast<double>(sc_jj)
        * e_jj;

    // Activation memory: priced over the observed serialized cycles
    // with the same workload-wide buffer the analytic model sizes.
    const double serial =
        static_cast<double>(counts.columnGroupSteps) * scale;
    const BufferChainMemory act_mem =
        activationBuffer(ctx.maxActBits, hw.library());
    rep.memoryEnergyAj = serial
        * static_cast<double>(act_mem.totalJj()) * kMemoryActiveFraction
        * e_jj;

    rep.cyclesPerImage = serial;
    finalizeReport(rep, config);

    rep.crossbarCount = ctx.rowTiles * ctx.colTiles;
    rep.totalJj = rep.crossbarCount * hw.jjCount(cs)
        + sc_jj * cs * ctx.colTiles;
    return rep;
}

LedgerPricingContext
layerReplayContext(const LayerSpec &spec, const AcceleratorConfig &config,
                   std::size_t max_act_bits)
{
    spec.validate();
    assert(config.crossbarSize >= 1);
    LedgerPricingContext ctx;
    ctx.config = config;
    ctx.rowTiles =
        (spec.fanIn + config.crossbarSize - 1) / config.crossbarSize;
    ctx.colTiles =
        (spec.fanOut + config.crossbarSize - 1) / config.crossbarSize;
    ctx.opsPerImage = spec.ops();
    ctx.countScale = static_cast<double>(spec.positions);
    ctx.maxActBits = max_act_bits;
    return ctx;
}

namespace {

double
relDelta(double measured, double analytic)
{
    if (analytic == 0.0)
        return measured == 0.0
            ? 0.0
            : std::copysign(INFINITY, measured);
    return (measured - analytic) / analytic;
}

} // namespace

EnergyDelta
reconcile(const EnergyReport &measured, const EnergyReport &analytic)
{
    EnergyDelta d;
    d.crossbarEnergyRel =
        relDelta(measured.crossbarEnergyAj, analytic.crossbarEnergyAj);
    d.scModuleEnergyRel =
        relDelta(measured.scModuleEnergyAj, analytic.scModuleEnergyAj);
    d.memoryEnergyRel =
        relDelta(measured.memoryEnergyAj, analytic.memoryEnergyAj);
    d.totalEnergyRel =
        relDelta(measured.totalEnergyAj, analytic.totalEnergyAj);
    d.latencyRel = relDelta(measured.latencyUs, analytic.latencyUs);
    return d;
}

std::string
toJson(const EnergyReport &rep)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"opsPerImage\":%zu,\"crossbarEnergyAj\":%.17g"
        ",\"scModuleEnergyAj\":%.17g,\"memoryEnergyAj\":%.17g"
        ",\"totalEnergyAj\":%.17g,\"cyclesPerImage\":%.17g"
        ",\"latencyUs\":%.17g,\"throughputImagesPerMs\":%.17g"
        ",\"powerW\":%.17g,\"topsPerWatt\":%.17g"
        ",\"topsPerWattCooled\":%.17g,\"totalJj\":%zu"
        ",\"crossbarCount\":%zu}",
        rep.opsPerImage, rep.crossbarEnergyAj, rep.scModuleEnergyAj,
        rep.memoryEnergyAj, rep.totalEnergyAj, rep.cyclesPerImage,
        rep.latencyUs, rep.throughputImagesPerMs, rep.powerW,
        rep.topsPerWatt, rep.topsPerWattCooled, rep.totalJj,
        rep.crossbarCount);
    return buf;
}

namespace workloads {

WorkloadSpec
vggSmall()
{
    WorkloadSpec w;
    w.name = "VGG-Small";
    w.layers = {
        LayerSpec::conv("conv1", 3, 128, 3, 32, 32),
        LayerSpec::conv("conv2", 128, 128, 3, 32, 32),
        LayerSpec::conv("conv3", 128, 256, 3, 16, 16),
        LayerSpec::conv("conv4", 256, 256, 3, 16, 16),
        LayerSpec::conv("conv5", 256, 512, 3, 8, 8),
        LayerSpec::conv("conv6", 512, 512, 3, 8, 8),
        LayerSpec::fc("fc1", 512 * 4 * 4, 1024),
        LayerSpec::fc("fc2", 1024, 10),
    };
    return w;
}

WorkloadSpec
resnet18()
{
    WorkloadSpec w;
    w.name = "ResNet-18";
    w.layers = {
        LayerSpec::conv("conv1", 3, 64, 3, 32, 32),
    };
    // Four stages of two basic blocks each (CIFAR-style ResNet-18).
    const std::size_t chans[4] = {64, 128, 256, 512};
    const std::size_t sides[4] = {32, 16, 8, 4};
    std::size_t in_ch = 64;
    for (int s = 0; s < 4; ++s) {
        for (int b = 0; b < 2; ++b) {
            w.layers.push_back(LayerSpec::conv(
                "stage" + std::to_string(s) + "_block" + std::to_string(b)
                    + "_a",
                in_ch, chans[s], 3, sides[s], sides[s]));
            w.layers.push_back(LayerSpec::conv(
                "stage" + std::to_string(s) + "_block" + std::to_string(b)
                    + "_b",
                chans[s], chans[s], 3, sides[s], sides[s]));
            in_ch = chans[s];
        }
    }
    w.layers.push_back(LayerSpec::fc("fc", 512, 10));
    return w;
}

WorkloadSpec
mnistMlp()
{
    WorkloadSpec w;
    w.name = "MLP";
    w.layers = {
        LayerSpec::fc("fc1", 784, 256),
        LayerSpec::fc("fc2", 256, 256),
        LayerSpec::fc("fc3", 256, 10),
    };
    return w;
}

} // namespace workloads

} // namespace superbnn::aqfp
