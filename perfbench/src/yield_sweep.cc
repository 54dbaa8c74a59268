#include <cstring>

#include "expected.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

core::SweepOptions
sweepOptions(std::uint64_t master_seed)
{
    core::SweepOptions opts = yield_surface_util::demoOptions();
    opts.chipsPerCorner = YieldSweepBench::kChipsPerCorner;
    opts.masterSeed = master_seed;
    opts.threads = 0;
    return opts;
}

YieldSweepBench::YieldSweepBench(std::shared_ptr<const MlpWorkload> work)
    : work_(std::move(work)), base_{16, 8, 2.4, false, 0.25, 1, 8},
      refCache_(std::make_shared<crossbar::ProgrammedModelCache>(
          aqfp::AttenuationModel()))
{
}

void
YieldSweepBench::checkDemoSurface(Outcome &out) const
{
    const core::ScenarioSweep sweep(
        *work_->mlp, work_->dataset.test, base_,
        std::make_shared<crossbar::ProgrammedModelCache>(
            aqfp::AttenuationModel()));
    const std::string json =
        core::toJson(sweep.run(yield_surface_util::demoGrid(),
                               yield_surface_util::demoOptions()))
        + "\n";
    Digest digest;
    digest.add(json.data(), json.size());
    ++out.attempted;
    if (digest.value() != expected::kDemoSurfaceDigest)
        out.fail(1, "yield-sweep: demo surface digest "
                        + std::to_string(digest.value())
                        + " differs from the recorded "
                        + std::to_string(expected::kDemoSurfaceDigest));
}

core::ChipResult
YieldSweepBench::replayChip(const core::ScenarioCorner &corner,
                            const core::SweepOptions &options,
                            std::uint64_t chip, ChipPhases *phases) const
{
    const core::ScenarioSweep sweep(*work_->mlp, work_->dataset.test,
                                    base_, refCache_);
    core::HardwareEvaluator eval(aqfp::AttenuationModel(corner.fit),
                                 sweep.cornerPlan(corner));
    core::ChipResult res;
    res.chip = chip;
    trace::Span map("core.map_mlp_cached");
    eval.mapMlp(*work_->mlp, refCache_.get(), options.modelTag);
    const double mapNs = map.finish();
    trace::Span inject("core.inject_variation_seeded");
    res.stuckCells = eval.injectVariationSeeded(
        options.grayZoneSigma, corner.stuckFraction, options.masterSeed,
        chip);
    const double injectNs = inject.finish();
    trace::Span evaluate("core.evaluate");
    Rng rng(core::ScenarioSweep::chipEvalSeed(options.masterSeed,
                                              corner.index, chip));
    res.accuracy =
        eval.evaluate(work_->dataset.test, options.evalSamples, rng);
    const double evalNs = evaluate.finish();
    res.counts = eval.totalLedgerCounts();
    if (phases) {
        phases->mapUs = mapNs / 1e3;
        phases->injectUs = injectNs / 1e3;
        phases->evalUs = evalNs / 1e3;
        phases->counts = res.counts;
    }
    return res;
}

YieldSweepBench::ChipPhases
YieldSweepBench::timeChipPhases(std::size_t chips, std::uint64_t seed) const
{
    const core::ScenarioSweep sweep(*work_->mlp, work_->dataset.test, base_,
                                    refCache_);
    const auto corners = sweep.corners(yield_surface_util::demoGrid());
    const core::SweepOptions opts = sweepOptions(mix64(seed));
    std::vector<double> map, inject, eval;
    ChipPhases one, res;
    for (std::size_t i = 0; i < chips; ++i) {
        (void)replayChip(corners[i % corners.size()], opts, i, &one);
        map.push_back(one.mapUs);
        inject.push_back(one.injectUs);
        eval.push_back(one.evalUs);
    }
    res.mapUs = median(map);
    res.injectUs = median(inject);
    res.evalUs = median(eval);
    res.counts = one.counts;
    return res;
}

YieldSweepBench::Result
YieldSweepBench::run(double seconds, std::uint64_t seed, Outcome &out)
{
    struct Done
    {
        core::SweepResult result;
        std::uint64_t master;
    };
    std::vector<Done> sweeps;
    std::vector<double> sweepUs, rate;
    const core::ScenarioGrid grid = yield_surface_util::demoGrid();
    const double chipsPerSweep =
        static_cast<double>(grid.cornerCount() * kChipsPerCorner);

    trace::Span phase("yield_sweep.sweep");
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const auto end = start
                     + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    for (std::uint64_t k = 0; Clock::now() < end; ++k) {
        const std::uint64_t master = mix64(seed ^ mix64(k));
        // A fresh model cache per sweep, as bench/yield_surface's
        // runCustomSweep does.
        const core::ScenarioSweep sweep(
            *work_->mlp, work_->dataset.test, base_,
            std::make_shared<crossbar::ProgrammedModelCache>(
                aqfp::AttenuationModel()));
        trace::Span call("core.ScenarioSweep.run");
        core::SweepResult result = sweep.run(grid, sweepOptions(master));
        const double ns = call.finish();
        sweepUs.push_back(ns / 1e3);
        rate.push_back(chipsPerSweep / (ns / 1e9));
        sweeps.push_back({std::move(result), master});
    }
    const double wall = secondsBetween(start, Clock::now());
    Result res;
    res.chipsPerS = median(rate);
    res.sweepP50Us = percentile(sweepUs, 50.0);
    res.cpuUtil = cpuUtilization(cpuSeconds() - cpu0, wall);
    phase.finish();

    // Verification, outside the timed window: every chip's ledger is
    // exactly evalSamples images' worth, and two seeded chips per
    // sweep replay bit-exactly through the public per-chip calls.
    const core::ScenarioSweep probe(*work_->mlp, work_->dataset.test,
                                    base_, refCache_);
    const auto corners = probe.corners(grid);
    for (const Done &d : sweeps) {
        const core::SweepOptions opts = sweepOptions(d.master);
        std::uint64_t badCounts = 0;
        for (const core::CornerResult &cr : d.result.corners) {
            for (const core::ChipResult &chip : cr.chips) {
                aqfp::LedgerCounts per_image;
                if (!countsPerImage({}, chip.counts, opts.evalSamples,
                                    per_image)
                    || aqfp::toJson(per_image)
                           != expected::kMlpCountsPerImage)
                    ++badCounts;
            }
        }
        out.attempted += static_cast<std::uint64_t>(chipsPerSweep);
        if (badCounts)
            out.fail(badCounts, "yield-sweep: chip ledger differs from "
                                "evalSamples x the per-image counts");
        SeedStream pick(d.master);
        for (int j = 0; j < 2; ++j) {
            const std::size_t c = pick.below(corners.size());
            const std::uint64_t chip = pick.below(kChipsPerCorner);
            const core::ChipResult want =
                d.result.corners[c].chips[chip];
            const core::ChipResult got =
                replayChip(corners[c], opts, chip, nullptr);
            if (std::memcmp(&got.accuracy, &want.accuracy,
                            sizeof(double))
                    != 0
                || got.stuckCells != want.stuckCells
                || got.counts != want.counts)
                out.fail(1, "yield-sweep: chip replay differs from "
                            "the sweep");
        }
    }
    return res;
}

} // namespace perfbench
