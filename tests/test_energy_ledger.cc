/**
 * @file
 * Differential test layer for the instrumented energy/latency ledger:
 * the ledger-priced reports of the real word-parallel simulator are
 * reconciled against the analytic aqfp::energy predictions on the
 * paper's Table 2/3 workloads.
 *
 * Reconciliation contract (also documented in docs/ARCHITECTURE.md):
 *  - crossbar energy, memory energy, serialized cycles and latency
 *    agree EXACTLY (the observed counts equal the analytic closed
 *    forms, and both sides price them identically);
 *  - the SC accumulation term intentionally diverges on partial tail
 *    column groups: the simulator merges only the layer's real output
 *    columns while the analytic model charges whole Cs-wide groups, so
 *    measured = analytic * fanOut / (colTiles * Cs), asserted exactly
 *    (<= 1e-12 relative); layers whose fanOut is a multiple of Cs
 *    reconcile bit-for-bit on every component;
 *  - whole-workload totals therefore agree within 1% on the Table 2/3
 *    workloads (the partial-group fc tails are a small share).
 *
 * The measured side prices aqfp::forwardCounts; the real executor is
 * the reference for that closed form (every recorded total equals it
 * across geometries, windows, APC kinds, batch sizes and input views).
 * Plus the ledger determinism properties (bit-identical totals across
 * thread counts, SIMD arms and batch splits), the draw-accounting
 * identities, and the golden-file regression test for the probe JSON.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/hardware_eval.h"
#include "core/models.h"
#include "energy_ledger_util.h"
#include "simd/kernels.h"
#include "simd_test_util.h"

using namespace superbnn;
using namespace superbnn::core;
using superbnn::test::ArmRestore;

namespace {

/** A small mapped layer with real weights for the property tests. */
crossbar::MappedLayer
weightedLayer(std::size_t out, std::size_t in, std::size_t cs, Rng &rng)
{
    const aqfp::AttenuationModel atten;
    const crossbar::CrossbarMapper mapper(cs, atten, 2.4);
    Tensor w({out, in});
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
    crossbar::MappedLayer layer = mapper.map(w);
    crossbar::CrossbarMapper::setThresholds(
        layer, std::vector<double>(out, 0.0));
    return layer;
}

std::vector<std::vector<int>>
randomBatch(std::size_t samples, std::size_t n, Rng &rng)
{
    std::vector<std::vector<int>> batch(samples, std::vector<int>(n));
    for (auto &sample : batch)
        for (auto &a : sample)
            a = rng.bernoulli(0.5) ? 1 : -1;
    return batch;
}

/** Run the per-layer reconciliation over a whole workload spec. */
void
reconcileWorkload(const aqfp::WorkloadSpec &workload,
                  const aqfp::AcceleratorConfig &config)
{
    const aqfp::EnergyModel model;
    const std::size_t cs = config.crossbarSize;
    const std::size_t max_act_bits = workload.maxActivationBits();

    double measured_total = 0.0, analytic_total = 0.0;
    for (const aqfp::LayerSpec &spec : workload.layers) {
        SCOPED_TRACE(workload.name + "/" + spec.name);
        const aqfp::EnergyReport measured =
            model.measureLayer(spec, config, max_act_bits);
        const aqfp::EnergyReport analytic =
            model.evaluateLayer(spec, config, max_act_bits);

        // Exact agreement everywhere the dataflows coincide.
        EXPECT_DOUBLE_EQ(measured.crossbarEnergyAj,
                         analytic.crossbarEnergyAj);
        EXPECT_DOUBLE_EQ(measured.memoryEnergyAj,
                         analytic.memoryEnergyAj);
        EXPECT_DOUBLE_EQ(measured.cyclesPerImage,
                         analytic.cyclesPerImage);
        EXPECT_DOUBLE_EQ(measured.latencyUs, analytic.latencyUs);
        EXPECT_EQ(measured.crossbarCount, analytic.crossbarCount);
        EXPECT_EQ(measured.totalJj, analytic.totalJj);
        EXPECT_EQ(measured.opsPerImage, analytic.opsPerImage);

        // The one documented divergence: partial tail column groups
        // merge only their real columns.
        const std::size_t col_tiles = (spec.fanOut + cs - 1) / cs;
        const double ratio = static_cast<double>(spec.fanOut)
            / static_cast<double>(col_tiles * cs);
        EXPECT_NEAR(measured.scModuleEnergyAj,
                    analytic.scModuleEnergyAj * ratio,
                    analytic.scModuleEnergyAj * 1e-12);
        if (spec.fanOut % cs == 0)
            EXPECT_DOUBLE_EQ(measured.scModuleEnergyAj,
                             analytic.scModuleEnergyAj);

        const aqfp::EnergyDelta delta =
            aqfp::reconcile(measured, analytic);
        EXPECT_LE(delta.totalEnergyRel, 1e-12);
        // Bounded by the SC share of the analytic total.
        EXPECT_GE(delta.totalEnergyRel,
                  -analytic.scModuleEnergyAj / analytic.totalEnergyAj
                      - 1e-12);
        EXPECT_DOUBLE_EQ(delta.latencyRel, 0.0);

        measured_total += measured.totalEnergyAj;
        analytic_total += analytic.totalEnergyAj;
    }
    // Whole-workload agreement within the stated 1% tolerance.
    EXPECT_NEAR(measured_total, analytic_total, analytic_total * 0.01)
        << workload.name;
}

} // namespace

// --- differential suite: Table 2/3 workloads ---

TEST(EnergyLedgerDifferential, MnistMlpTable3)
{
    // Table 3 design point (Cs = 16, L = 16).
    reconcileWorkload(aqfp::workloads::mnistMlp(), {16, 16, 5.0, 2.4});
}

TEST(EnergyLedgerDifferential, MnistMlpShortWindow)
{
    reconcileWorkload(aqfp::workloads::mnistMlp(), {16, 4, 5.0, 2.4});
}

TEST(EnergyLedgerDifferential, VggSmallTable2)
{
    // Full VGG-Small geometry at L = 4 (both models scale identically
    // in L, so agreement at L = 4 pins the same arithmetic as the
    // paper's L = 32 point).
    reconcileWorkload(aqfp::workloads::vggSmall(), {16, 4, 5.0, 2.4});
}

TEST(EnergyLedgerDifferential, Resnet18Table2)
{
    reconcileWorkload(aqfp::workloads::resnet18(), {16, 4, 5.0, 2.4});
}

// --- observed-count identities ---

TEST(EnergyLedgerCounts, MatchClosedFormsOnMultiTileLayer)
{
    Rng rng(3);
    const std::size_t cs = 8, window = 16, samples = 5;
    const std::size_t fan_in = 20, fan_out = 19; // 3 x 3 tiles, ragged
    crossbar::MappedLayer layer =
        weightedLayer(fan_out, fan_in, cs, rng);
    ASSERT_EQ(layer.rowTiles, 3u);
    ASSERT_EQ(layer.colTiles, 3u);

    const crossbar::TileExecutor exec(window, false, 0.25, 1);
    aqfp::HardwareLedger ledger;
    Rng fwd(17);
    exec.forward(layer, randomBatch(samples, fan_in, fwd), fwd,
                 &ledger);
    const aqfp::LedgerCounts c = ledger.totals();

    EXPECT_EQ(c.samples, samples);
    EXPECT_EQ(c.tileObservations, samples * 3 * 3);
    EXPECT_EQ(c.crossbarCycles, samples * 3 * 3 * window);
    // Every tile draws Cs * L per sample (position-stable fills draw
    // even for constant columns), observed from the counter streams.
    EXPECT_EQ(c.bernoulliDraws, c.crossbarCycles * cs);
    // Only real columns merge: 19, not colTiles * cs = 24.
    EXPECT_EQ(c.apcAccumulations, samples * fan_out);
    EXPECT_EQ(c.apcInputBits, c.apcAccumulations * 3 * window);
    EXPECT_EQ(c.columnGroupSteps, samples * 3 * window);
    EXPECT_EQ(c.bufferReadBits, samples * fan_in);
    EXPECT_EQ(c.bufferWriteBits, samples * fan_out);
    EXPECT_EQ(c, aqfp::forwardCounts(fan_in, fan_out, cs, window, samples));
}

TEST(EnergyLedgerCounts, ExecutorRecordsForwardCounts)
{
    // The real executor is the reference for the closed form: whatever
    // the geometry, window, APC kind, batch size, input view or pass,
    // the totals it records equal forwardCounts of the pass. Fan-ins
    // are never a multiple of Cs, and odd geometries end in a partial
    // column group.
    const std::size_t windows[] = {1, 7, 64, 65};
    Rng rng(2024);
    aqfp::HardwareLedger ledger;
    std::size_t geometry = 0;
    for (const std::size_t cs : {4u, 9u, 16u, 33u, 72u}) {
        for (const std::size_t fan_in : {cs - 1, cs + 1, 2 * cs + 3}) {
            const std::size_t fan_out =
                geometry % 2 == 0 ? 2 * cs : cs + cs / 2 + 1;
            const std::size_t window = windows[geometry % 4];
            const bool exact = geometry % 3 == 0;
            ++geometry;
            const crossbar::MappedLayer layer =
                weightedLayer(fan_out, fan_in, cs, rng);
            const crossbar::TileExecutor exec(window, exact, 0.25, 0);
            for (const std::size_t samples : {0u, 1u, 5u}) {
                for (const bool patched : {false, true}) {
                    // A patch-mapped view reads `samples` images of
                    // `stride` activations at 3 positions each, with
                    // some padding (-1) offsets.
                    const std::size_t positions = patched ? 3 : 1;
                    const std::size_t stride = patched ? fan_in + 4 : fan_in;
                    const std::size_t rows = samples * positions;
                    std::vector<int> data(samples * stride);
                    for (int &a : data)
                        a = rng.bernoulli(0.5) ? 1 : -1;
                    std::vector<std::int32_t> patches(positions * fan_in);
                    for (std::int32_t &o : patches)
                        o = rng.bernoulli(0.1)
                            ? -1
                            : static_cast<std::int32_t>(rng.randint(
                                0, static_cast<std::int64_t>(stride) - 1));
                    const crossbar::InputView in{
                        data.data(), rows, stride,
                        patched ? patches.data() : nullptr, positions};
                    std::vector<std::uint64_t> roots(rows);
                    for (std::uint64_t &r : roots)
                        r = rng.raw()();
                    for (const bool decoded : {false, true}) {
                        SCOPED_TRACE(
                            "Cs " + std::to_string(cs) + " fanIn "
                            + std::to_string(fan_in) + " fanOut "
                            + std::to_string(fan_out) + " L "
                            + std::to_string(window) + " rows "
                            + std::to_string(rows) + " patched "
                            + std::to_string(patched) + " decoded "
                            + std::to_string(decoded));
                        ledger.reset();
                        if (decoded) {
                            std::vector<double> out(rows * fan_out);
                            exec.forwardDecoded(layer, in, roots,
                                                out.data(), &ledger);
                        } else {
                            std::vector<int> out(rows * fan_out);
                            exec.forward(layer, in, roots, out.data(),
                                         nullptr, &ledger);
                        }
                        EXPECT_EQ(ledger.totals(),
                                  aqfp::forwardCounts(fan_in, fan_out, cs,
                                                      window, rows));
                    }
                }
            }
        }
    }
}

TEST(EnergyLedgerCounts, ForwardCountsRejectZeroGeometry)
{
    EXPECT_THROW(aqfp::forwardCounts(0, 4, 4, 8, 1),
                 std::invalid_argument);
    EXPECT_THROW(aqfp::forwardCounts(4, 0, 4, 8, 1),
                 std::invalid_argument);
    EXPECT_THROW(aqfp::forwardCounts(4, 4, 0, 8, 1),
                 std::invalid_argument);
    EXPECT_THROW(aqfp::forwardCounts(4, 4, 4, 0, 1),
                 std::invalid_argument);
    // Zero samples is an empty pass, not a bad geometry.
    EXPECT_EQ(aqfp::forwardCounts(4, 4, 4, 8, 0), aqfp::LedgerCounts{});
}

TEST(EnergyLedgerCounts, ForwardDecodedCountsLikeForward)
{
    Rng rng(4);
    crossbar::MappedLayer layer = weightedLayer(10, 24, 8, rng);
    const crossbar::TileExecutor exec(12, false, 0.25, 1);

    aqfp::HardwareLedger binary, decoded;
    Rng r1(9), r2(9);
    const auto batch = randomBatch(3, 24, rng);
    exec.forward(layer, batch, r1, &binary);
    exec.forwardDecoded(layer, batch, r2, &decoded);
    EXPECT_EQ(binary.totals(), decoded.totals());
}

TEST(EnergyLedgerCounts, NullLedgerAndEmptyBatchAreNoOps)
{
    Rng rng(5);
    crossbar::MappedLayer layer = weightedLayer(8, 8, 8, rng);
    const crossbar::TileExecutor exec(8, false, 0.25, 1);
    // No ledger: same outputs as with one (the hooks are pure taps).
    const auto batch = randomBatch(2, 8, rng);
    Rng a(7), b(7);
    aqfp::HardwareLedger ledger;
    EXPECT_EQ(exec.forward(layer, batch, a),
              exec.forward(layer, batch, b, &ledger));

    aqfp::HardwareLedger empty;
    Rng c(7);
    exec.forward(layer, std::vector<std::vector<int>>{}, c, &empty);
    EXPECT_EQ(empty.totals(), aqfp::LedgerCounts{});
}

// --- determinism properties ---

TEST(EnergyLedgerDeterminism, TotalsBitIdenticalAcrossThreadCounts)
{
    Rng rng(21);
    crossbar::MappedLayer layer = weightedLayer(20, 24, 8, rng);
    const auto batch = randomBatch(6, 24, rng);

    aqfp::LedgerCounts ref;
    bool have_ref = false;
    for (const std::size_t threads : {1u, 4u, 8u}) {
        const crossbar::TileExecutor exec(16, false, 0.25, threads);
        aqfp::HardwareLedger ledger;
        Rng fwd(33);
        exec.forward(layer, batch, fwd, &ledger);
        if (!have_ref) {
            ref = ledger.totals();
            have_ref = true;
        } else {
            EXPECT_EQ(ledger.totals(), ref) << threads << " threads";
        }
    }
}

TEST(EnergyLedgerDeterminism, TotalsBitIdenticalAcrossSimdArms)
{
    Rng rng(22);
    crossbar::MappedLayer layer = weightedLayer(20, 24, 8, rng);
    const auto batch = randomBatch(4, 24, rng);
    const crossbar::TileExecutor exec(16, false, 0.25, 4);

    ArmRestore restore;
    aqfp::LedgerCounts ref;
    bool have_ref = false;
    for (const simd::Arm arm : simd::availableArms()) {
        ASSERT_TRUE(simd::setActiveArm(arm));
        aqfp::HardwareLedger ledger;
        Rng fwd(44);
        exec.forward(layer, batch, fwd, &ledger);
        if (!have_ref) {
            ref = ledger.totals();
            have_ref = true;
        } else {
            EXPECT_EQ(ledger.totals(), ref) << simd::armName(arm);
        }
    }
}

TEST(EnergyLedgerDeterminism, BatchOfNEqualsNSingles)
{
    Rng rng(23);
    crossbar::MappedLayer layer = weightedLayer(20, 24, 8, rng);
    const auto batch = randomBatch(5, 24, rng);
    const crossbar::TileExecutor exec(16, false, 0.25, 2);

    aqfp::HardwareLedger batched;
    Rng fwd(55);
    exec.forward(layer, batch, fwd, &batched);

    aqfp::HardwareLedger singles;
    Rng fwd2(55);
    for (const auto &sample : batch)
        exec.forward(layer, sample, fwd2, &singles);

    EXPECT_EQ(batched.totals(), singles.totals());
    EXPECT_EQ(batched.totals(), aqfp::forwardCounts(24, 20, 8, 16, 5));
}

// --- ledger mechanics ---

TEST(HardwareLedgerTest, CountsJsonIsStable)
{
    aqfp::LedgerCounts c;
    c.samples = 1;
    c.tileObservations = 2;
    c.crossbarCycles = 3;
    c.bernoulliDraws = 4;
    c.apcAccumulations = 5;
    c.apcInputBits = 6;
    c.columnGroupSteps = 7;
    c.bufferReadBits = 8;
    c.bufferWriteBits = 9;
    EXPECT_EQ(aqfp::toJson(c),
              "{\"samples\":1,\"tileObservations\":2,"
              "\"crossbarCycles\":3,\"bernoulliDraws\":4,"
              "\"apcAccumulations\":5,\"apcInputBits\":6,"
              "\"columnGroupSteps\":7,\"bufferReadBits\":8,"
              "\"bufferWriteBits\":9}");
}

TEST(ReconcileTest, ZeroAndSignSemantics)
{
    aqfp::EnergyReport a, m;
    a.crossbarEnergyAj = 10.0;
    m.crossbarEnergyAj = 9.0;
    a.totalEnergyAj = 10.0;
    m.totalEnergyAj = 11.0;
    const aqfp::EnergyDelta d = aqfp::reconcile(m, a);
    EXPECT_DOUBLE_EQ(d.crossbarEnergyRel, -0.1);
    EXPECT_DOUBLE_EQ(d.totalEnergyRel, 0.1);
    EXPECT_DOUBLE_EQ(d.memoryEnergyRel, 0.0); // 0 vs 0
    aqfp::EnergyReport m2;
    m2.scModuleEnergyAj = 1.0;
    const aqfp::EnergyDelta d2 = aqfp::reconcile(m2, a);
    EXPECT_TRUE(std::isinf(d2.scModuleEnergyRel)); // 1 vs 0
}

// --- evaluator-level reports ---

TEST(EvaluatorEnergyTest, PerLayerReportsReconcile)
{
    Rng rng(31);
    const aqfp::AttenuationModel atten;
    RandomizedMlp model(24, {16}, 4, AqfpBehavior{16, 2.4, 0.0}, atten,
                        rng);
    HardwareConfig cfg;
    cfg.crossbarSize = 16;
    cfg.window = 8;
    cfg.threads = 1;
    HardwareEvaluator eval(atten, cfg);
    eval.mapMlp(model);

    // Nothing evaluated yet: flagged placeholder reports, not a
    // division of the all-zero counts by zero images.
    EXPECT_EQ(eval.imagesObserved(), 0u);
    {
        const auto empty = eval.energyReports();
        ASSERT_EQ(empty.size(), 2u);
        for (const auto &rep : empty) {
            EXPECT_FALSE(rep.measuredValid);
            EXPECT_EQ(rep.counts.samples, 0u);
            EXPECT_DOUBLE_EQ(rep.measured.totalEnergyAj, 0.0);
            EXPECT_DOUBLE_EQ(rep.measured.latencyUs, 0.0);
            EXPECT_DOUBLE_EQ(rep.delta.totalEnergyRel, 0.0);
            EXPECT_GT(rep.analytic.totalEnergyAj, 0.0);
        }
    }

    Rng eval_rng(5);
    std::vector<Tensor> samples;
    for (int b = 0; b < 3; ++b)
        samples.push_back(Tensor::randn({1, 24}, eval_rng));
    eval.classScores(samples, eval_rng);
    EXPECT_EQ(eval.imagesObserved(), 3u);

    const auto reports = eval.energyReports(5.0);
    ASSERT_EQ(reports.size(), 2u); // fc1 + head
    EXPECT_EQ(reports[0].name, "fc1");
    EXPECT_EQ(reports[1].name, "head");

    // fc1: 24 -> 16, fanOut a multiple of Cs: exact reconciliation.
    EXPECT_EQ(reports[0].counts.samples, 3u);
    EXPECT_DOUBLE_EQ(reports[0].measured.totalEnergyAj,
                     reports[0].analytic.totalEnergyAj);
    EXPECT_DOUBLE_EQ(reports[0].delta.totalEnergyRel, 0.0);
    // head: 16 -> 4, partial group: SC term measured at 4/16.
    EXPECT_NEAR(reports[1].measured.scModuleEnergyAj,
                reports[1].analytic.scModuleEnergyAj * 4.0 / 16.0,
                reports[1].analytic.scModuleEnergyAj * 1e-12);
    EXPECT_DOUBLE_EQ(reports[1].delta.latencyRel, 0.0);

    // Counts accumulate per image; a second batch doubles nothing but
    // the totals (the per-image measured report is unchanged).
    const auto first = reports[0].measured;
    Rng eval_rng2(6);
    eval.classScores(samples, eval_rng2);
    const auto again = eval.energyReports(5.0);
    EXPECT_EQ(again[0].counts.samples, 6u);
    EXPECT_DOUBLE_EQ(again[0].measured.totalEnergyAj,
                     first.totalEnergyAj);

    // Reset: back to the flagged zero-image regime (regression test
    // for the imagesObserved() == 0 normalization guard).
    eval.resetLedgers();
    EXPECT_EQ(eval.imagesObserved(), 0u);
    const auto after_reset = eval.energyReports();
    ASSERT_EQ(after_reset.size(), 2u);
    EXPECT_FALSE(after_reset[0].measuredValid);
    EXPECT_DOUBLE_EQ(after_reset[0].measured.totalEnergyAj, 0.0);
    EXPECT_DOUBLE_EQ(after_reset[0].analytic.totalEnergyAj,
                     reports[0].analytic.totalEnergyAj);
}

TEST(EvaluatorEnergyTest, CnnReportsCoverPositions)
{
    Rng rng(32);
    const aqfp::AttenuationModel atten;
    RandomizedCnn::Config ccfg;
    ccfg.inputChannels = 2;
    ccfg.inputSide = 6;
    ccfg.channels = {4};
    ccfg.poolAfter = {true};
    ccfg.classes = 3;
    RandomizedCnn model(ccfg, AqfpBehavior{8, 2.4, 0.0}, atten, rng);
    HardwareConfig cfg;
    cfg.crossbarSize = 8;
    cfg.window = 4;
    cfg.threads = 1;
    HardwareEvaluator eval(atten, cfg);
    eval.mapCnn(model);

    Rng eval_rng(7);
    std::vector<Tensor> samples;
    for (int b = 0; b < 2; ++b)
        samples.push_back(Tensor::randn({1, 2, 6, 6}, eval_rng));
    eval.classScores(samples, eval_rng);

    const auto reports = eval.energyReports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].name, "conv1");
    // The conv layer ran every spatial position for every image.
    EXPECT_EQ(reports[0].counts.samples, 2u * 6u * 6u);
    EXPECT_EQ(reports[0].analytic.opsPerImage,
              2u * (2 * 3 * 3) * 4 * 36);
    // Ledger-vs-analytic: positions are real executor samples, so the
    // exact-agreement components reconcile just like the MLP's.
    EXPECT_DOUBLE_EQ(reports[0].measured.crossbarEnergyAj,
                     reports[0].analytic.crossbarEnergyAj);
    EXPECT_DOUBLE_EQ(reports[0].measured.latencyUs,
                     reports[0].analytic.latencyUs);
}

// --- golden-file regression of the probe JSON ---

TEST(EnergyProbeGolden, JsonMatchesCheckedInFileByteExactly)
{
    const std::string path =
        std::string(SUPERBNN_GOLDEN_DIR) + "/energy_probe.json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    // Byte-exact: the ledger counts, the priced doubles (%.17g
    // round-trips exactly) and the JSON schema itself. CI runs this
    // test under SUPERBNN_THREADS = 1/4/8 and every SUPERBNN_SIMD arm,
    // which is the cross-thread/arm byte-stability requirement.
    EXPECT_EQ(energy_ledger_util::energyProbeJson(), golden.str());
}
