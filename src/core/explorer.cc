#include "core/explorer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/sharded_executor_pool.h"

namespace superbnn::core {

namespace costs {

CostFn
analyticEnergy()
{
    return [](const CoOptCandidate &c) { return c.energy.totalEnergyAj; };
}

CostFn
measuredEnergy()
{
    return [](const CoOptCandidate &c) {
        if (!c.measured)
            throw std::logic_error(
                "costs::measuredEnergy: candidate has no measured "
                "report — explore with ExploreOptions::measure");
        return c.measured->totalEnergyAj;
    };
}

CostFn
analyticLatency()
{
    return [](const CoOptCandidate &c) { return c.energy.latencyUs; };
}

CostFn
ame()
{
    return [](const CoOptCandidate &c) { return c.ame; };
}

CostFn
accuracyLoss()
{
    return [](const CoOptCandidate &c) {
        if (!c.accuracy)
            throw std::logic_error(
                "costs::accuracyLoss: candidate has no accuracy — "
                "explore with an ExploreOptions::accuracy callback");
        return 1.0 - *c.accuracy;
    };
}

CostFn
weighted(std::vector<std::pair<CostFn, double>> terms)
{
    if (terms.empty())
        throw std::invalid_argument(
            "costs::weighted: at least one cost term is required");
    return [terms = std::move(terms)](const CoOptCandidate &c) {
        double total = 0.0;
        for (const auto &[fn, weight] : terms)
            total += weight * fn(c);
        return total;
    };
}

} // namespace costs

namespace {

template <typename T>
void
requireUnique(const std::vector<T> &values, const char *field)
{
    std::vector<T> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        throw std::invalid_argument(
            "CoOptSpace: duplicate values in " + std::string(field)
            + " (each axis point is evaluated once; a duplicate is "
              "almost certainly a typo)");
}

} // namespace

void
CoOptSpace::validate() const
{
    if (crossbarSizes.empty())
        throw std::invalid_argument(
            "CoOptSpace: crossbarSizes is empty (no candidates)");
    if (grayZones.empty())
        throw std::invalid_argument(
            "CoOptSpace: grayZones is empty (no candidates)");
    if (bitstreamLengths.empty())
        throw std::invalid_argument(
            "CoOptSpace: bitstreamLengths is empty (no candidates)");
    for (std::size_t cs : crossbarSizes)
        if (cs == 0)
            throw std::invalid_argument(
                "CoOptSpace: crossbarSizes contains 0 (a zero-size "
                "crossbar maps no layer)");
    for (std::size_t len : bitstreamLengths)
        if (len == 0)
            throw std::invalid_argument(
                "CoOptSpace: bitstreamLengths contains 0 (the SC "
                "window must span at least one cycle)");
    for (double gz : grayZones)
        if (!(gz > 0.0) || !std::isfinite(gz))
            throw std::invalid_argument(
                "CoOptSpace: grayZones must be positive and finite "
                "(got "
                + std::to_string(gz) + ")");
    if (!(frequencyGhz > 0.0) || !std::isfinite(frequencyGhz))
        throw std::invalid_argument(
            "CoOptSpace: frequencyGhz must be positive and finite "
            "(got "
            + std::to_string(frequencyGhz) + ")");
    if (!(minTopsPerWatt >= 0.0))
        throw std::invalid_argument(
            "CoOptSpace: minTopsPerWatt must be non-negative (got "
            + std::to_string(minTopsPerWatt) + ")");
    requireUnique(crossbarSizes, "crossbarSizes");
    requireUnique(bitstreamLengths, "bitstreamLengths");
    requireUnique(grayZones, "grayZones");
}

DesignSpaceExplorer::DesignSpaceExplorer(aqfp::AttenuationModel atten,
                                         aqfp::EnergyModel energy_model,
                                         AmeOptions ame_options)
    : energy(std::move(energy_model)),
      ameAnalyzer(std::move(atten), ame_options)
{
}

std::vector<aqfp::AcceleratorConfig>
DesignSpaceExplorer::gridConfigs(const CoOptSpace &space)
{
    space.validate();
    std::vector<aqfp::AcceleratorConfig> grid;
    grid.reserve(space.crossbarSizes.size()
                 * space.bitstreamLengths.size()
                 * space.grayZones.size());
    for (std::size_t cs : space.crossbarSizes)
        for (std::size_t len : space.bitstreamLengths)
            for (double gz : space.grayZones)
                grid.push_back({cs, len, space.frequencyGhz, gz});
    return grid;
}

std::vector<CoOptCandidate>
DesignSpaceExplorer::explore(const aqfp::WorkloadSpec &workload,
                             const CoOptSpace &space,
                             const ExploreOptions &options) const
{
    workload.validate();

    // Stages 1 + 2: grid, then the cheap analytic feasibility filter —
    // no simulation or integration runs for infeasible points.
    std::vector<CoOptCandidate> feasible;
    for (const aqfp::AcceleratorConfig &config : gridConfigs(space)) {
        CoOptCandidate cand;
        cand.config = config;
        cand.energy = energy.evaluate(workload, config);
        if (cand.energy.topsPerWatt < space.minTopsPerWatt)
            continue;
        if (space.maxTotalJj != 0
            && cand.energy.totalJj > space.maxTotalJj)
            continue;
        feasible.push_back(std::move(cand));
    }

    // Stage 3: per-candidate evaluation, fanned out on the executor
    // pool. Each task writes only its own pre-sized slot, so results
    // are bit-identical across thread counts.
    const auto evaluate = [&](std::size_t i) {
        CoOptCandidate &cand = feasible[i];
        cand.ame = ameAnalyzer.ame(
            static_cast<double>(cand.config.crossbarSize),
            cand.config.deltaIinUa);
        if (options.measure)
            cand.measured = energy.measureWorkload(workload, cand.config);
    };
    util::parallelForThreads(options.threads, feasible.size(), evaluate);

    // Accuracy callbacks are user code of unknown thread safety: run
    // them sequentially, in candidate order (the documented
    // invocation-order contract of ExploreOptions::accuracy).
    if (options.accuracy)
        for (CoOptCandidate &cand : feasible)
            cand.accuracy = options.accuracy(cand.config);

    return feasible;
}

HardwarePlan
PlanCandidate::toHardwarePlan() const
{
    std::vector<LayerHardwareConfig> entries;
    entries.reserve(layers.size());
    for (const aqfp::AcceleratorConfig &point : layers)
        entries.push_back(LayerHardwareConfig{
            point.crossbarSize, point.bitstreamLength, point.deltaIinUa});
    return HardwarePlan(std::move(entries));
}

HeterogeneousExploreResult
DesignSpaceExplorer::exploreHeterogeneous(const aqfp::WorkloadSpec &workload,
                                          const CoOptSpace &space,
                                          const ExploreOptions &options,
                                          const CostFn &cost) const
{
    workload.validate();

    // Homogeneous seed stage, with measurement forced on so the plan
    // shims (which always carry measured reports) stay comparable to
    // the seed under measured costs. No accuracy callback: plans have
    // no single config to hand one (see the header contract).
    ExploreOptions seed_options = options;
    seed_options.measure = true;
    seed_options.accuracy = nullptr;
    const std::vector<CoOptCandidate> homogeneous =
        explore(workload, space, seed_options);

    HeterogeneousExploreResult result;
    result.seed = best(homogeneous, cost); // throws on empty

    const std::vector<aqfp::AcceleratorConfig> grid = gridConfigs(space);
    const std::size_t layer_count = workload.layers.size();
    const std::size_t max_act_bits = workload.maxActivationBits();
    const std::size_t total_ops = workload.totalOps();
    result.crossProduct = std::pow(static_cast<double>(grid.size()),
                                   static_cast<double>(layer_count));

    // Per-point AME memo: a descent revisits the same grid points
    // constantly, and the AME integration is the expensive part (layer
    // reports are closed forms). Sequential descent — no
    // synchronization needed.
    std::vector<std::optional<double>> ame_memo(grid.size());
    const auto amePoint = [&](std::size_t g) {
        if (!ame_memo[g])
            ame_memo[g] = ameAnalyzer.ame(
                static_cast<double>(grid[g].crossbarSize),
                grid[g].deltaIinUa);
        return *ame_memo[g];
    };

    // selection (one grid index per layer) -> assembled candidate. The
    // combined reports use the first selected point as the
    // representative config: combineLayerReports reads only its
    // frequency (shared by the whole grid), so the choice is inert.
    const auto assemble = [&](const std::vector<std::size_t> &sel) {
        PlanCandidate pc;
        pc.layers.reserve(layer_count);
        std::vector<aqfp::EnergyReport> analytic, measured;
        analytic.reserve(layer_count);
        measured.reserve(layer_count);
        double ame_sum = 0.0;
        for (std::size_t l = 0; l < layer_count; ++l) {
            const aqfp::LayerSpec &layer = workload.layers[l];
            const aqfp::AcceleratorConfig &point = grid[sel[l]];
            pc.layers.push_back(point);
            analytic.push_back(
                energy.evaluateLayer(layer, point, max_act_bits));
            measured.push_back(
                energy.measureLayer(layer, point, max_act_bits));
            ame_sum += amePoint(sel[l])
                * (static_cast<double>(layer.ops())
                   / static_cast<double>(total_ops));
        }
        pc.energy = energy.combineLayerReports(analytic, pc.layers[0],
                                               total_ops, max_act_bits);
        pc.measured = energy.combineLayerReports(measured, pc.layers[0],
                                                 total_ops, max_act_bits);
        pc.ame = ame_sum;
        return pc;
    };
    const auto costOf = [&](const PlanCandidate &pc) {
        CoOptCandidate shim;
        shim.config = pc.layers.front();
        shim.energy = pc.energy;
        shim.ame = pc.ame;
        shim.measured = pc.measured;
        return cost(shim);
    };

    // Seed selection: every layer at the seed's grid point.
    std::size_t seed_index = grid.size();
    for (std::size_t g = 0; g < grid.size(); ++g) {
        if (grid[g].crossbarSize == result.seed.config.crossbarSize
            && grid[g].bitstreamLength
                == result.seed.config.bitstreamLength
            && grid[g].deltaIinUa == result.seed.config.deltaIinUa) {
            seed_index = g;
            break;
        }
    }
    assert(seed_index < grid.size() && "seed came from this grid");

    std::vector<std::size_t> sel(layer_count, seed_index);
    PlanCandidate current = assemble(sel);
    current.cost = costOf(current);
    result.evaluatedPlans = 1;
    result.seedCost = current.cost;

    // Greedy coordinate descent: re-pick each layer's point holding the
    // others fixed; accept strict improvements only (ties keep the
    // incumbent, so convergence and the final plan are deterministic).
    // Per-layer contributions are independent under the combine fold,
    // so one sweep finds each layer's argmin and the second confirms —
    // the cap is a guard, not the expected exit.
    double best_cost = current.cost;
    bool improved = true;
    while (improved && result.sweeps < layer_count + 1) {
        improved = false;
        ++result.sweeps;
        for (std::size_t l = 0; l < layer_count; ++l) {
            for (std::size_t g = 0; g < grid.size(); ++g) {
                if (g == sel[l])
                    continue;
                std::vector<std::size_t> trial = sel;
                trial[l] = g;
                PlanCandidate pc = assemble(trial);
                // Stage-2 feasibility, applied to the combined plan.
                if (pc.energy.topsPerWatt < space.minTopsPerWatt)
                    continue;
                if (space.maxTotalJj != 0
                    && pc.energy.totalJj > space.maxTotalJj)
                    continue;
                ++result.evaluatedPlans;
                const double trial_cost = costOf(pc);
                if (trial_cost < best_cost) {
                    best_cost = trial_cost;
                    sel = std::move(trial);
                    improved = true;
                }
            }
        }
    }

    result.plan = assemble(sel);
    result.plan.cost = best_cost;
    result.planCost = best_cost;
    return result;
}

std::vector<CoOptCandidate>
DesignSpaceExplorer::ranked(std::vector<CoOptCandidate> candidates,
                            const CostFn &cost)
{
    for (CoOptCandidate &c : candidates)
        c.cost = cost(c);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const CoOptCandidate &a, const CoOptCandidate &b) {
                         return a.cost < b.cost;
                     });
    return candidates;
}

CoOptCandidate
DesignSpaceExplorer::best(const std::vector<CoOptCandidate> &candidates,
                          const CostFn &cost)
{
    if (candidates.empty())
        throw NoFeasibleCandidateError(
            "DesignSpaceExplorer::best: the feasible set is empty — "
            "every candidate was excluded by the CoOptSpace "
            "constraints (minTopsPerWatt / maxTotalJj)");
    const CoOptCandidate *best_cand = &candidates.front();
    double best_cost = cost(*best_cand);
    for (const CoOptCandidate &c : candidates) {
        const double value = cost(c);
        if (value < best_cost) {
            best_cand = &c;
            best_cost = value;
        }
    }
    CoOptCandidate out = *best_cand;
    out.cost = best_cost;
    return out;
}

std::vector<CoOptCandidate>
DesignSpaceExplorer::paretoFront(
    const std::vector<CoOptCandidate> &candidates, const CostFn &cost_a,
    const CostFn &cost_b)
{
    struct Scored
    {
        const CoOptCandidate *cand;
        double a;
        double b;
        std::size_t order;
    };
    std::vector<Scored> scored;
    scored.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        scored.push_back({&candidates[i], cost_a(candidates[i]),
                          cost_b(candidates[i]), i});

    std::vector<CoOptCandidate> front;
    for (const Scored &s : scored) {
        const bool dominated = std::any_of(
            scored.begin(), scored.end(), [&](const Scored &o) {
                return o.cand != s.cand && o.a <= s.a && o.b <= s.b
                    && (o.a < s.a || o.b < s.b);
            });
        if (!dominated)
            front.push_back(*s.cand);
    }
    // Deterministic presentation: ascending cost_a, ties by cost_b,
    // then grid order (stable_sort preserves it).
    std::stable_sort(front.begin(), front.end(),
                     [&](const CoOptCandidate &x, const CoOptCandidate &y) {
                         const double xa = cost_a(x), ya = cost_a(y);
                         if (xa != ya)
                             return xa < ya;
                         return cost_b(x) < cost_b(y);
                     });
    return front;
}

} // namespace superbnn::core
