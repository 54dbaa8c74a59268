/**
 * @file
 * Benchmark entry point (normally invoked through perfbench/run.py):
 *
 *     perfbench --workload serve|eval-cnn|yield-sweep --seed N
 *               --seconds S --trace 0|1
 *
 * --trace 0 runs the workload untraced and reports its end-to-end
 * metrics; --trace 1 runs the traced per-layer breakdown (every
 * workload's phases plus the layer diagnostics, spans written to
 * .bench_out/trace-<workload>-<seed>.json) and reports the per-layer
 * metrics. The last line of stdout is the JSON result; the line before
 * it is the resolved-config record and host fingerprint. Exit status is
 * non-zero when any output failed its correctness check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <sys/stat.h>

#include "fingerprint.h"
#include "selftest.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

bool
parseArgs(int argc, char **argv, Options &opts)
{
    bool haveWorkload = false, haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opts.workload = value;
            haveWorkload = opts.workload == "serve"
                           || opts.workload == "eval-cnn"
                           || opts.workload == "yield-sweep";
        } else if (key == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
            haveSeed = *value != '\0' && *value != '-' && *end == '\0';
        } else if (key == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(opts.seconds > 0.0 && opts.seconds <= 600))
                return false;
        } else if (key == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return false;
            opts.trace = value[0] == '1';
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed;
}

void
addEndToEnd(Outcome &out, double throughput, double p50_us,
            const std::vector<double> &setups)
{
    out.add("throughput_per_s", throughput, "1/s");
    out.add("latency_p50_us", p50_us, "us");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

Outcome
runWorkload(const Options &opts)
{
    Outcome out;
    std::vector<double> setups;
    if (opts.workload == "serve") {
        ServeBench bench;
        for (int i = 0; i < kSetups; ++i)
            setups.push_back(bench.setup());
        bench.buildReference(out);
        const auto closed = bench.closedPhase(opts.seconds / 2, opts.seed, out);
        const auto open =
            bench.openSocketPhase(opts.seconds / 2, opts.seed, out);
        bench.stop();
        addEndToEnd(out, closed.qps, open.latencyP50Us, setups);
    } else if (opts.workload == "eval-cnn") {
        EvalCnnBench bench;
        for (int i = 0; i < kSetups; ++i)
            setups.push_back(bench.setup());
        bench.buildReference(out);
        const auto r = bench.run(opts.seconds, opts.seed, out);
        addEndToEnd(out, r.imagesPerS, r.batchP50Us, setups);
    } else {
        std::unique_ptr<YieldSweepBench> bench;
        for (int i = 0; i < kSetups; ++i) {
            bench.reset();
            const auto t0 = Clock::now();
            bench = std::make_unique<YieldSweepBench>(
                std::make_shared<const MlpWorkload>(trainMlp()));
            setups.push_back(secondsBetween(t0, Clock::now()));
        }
        bench->checkDemoSurface(out);
        const auto r = bench->run(opts.seconds, opts.seed, out);
        addEndToEnd(out, r.chipsPerS, r.sweepP50Us, setups);
    }
    return out;
}

Outcome
runTraced(const Options &opts)
{
    Outcome out;
    const double w = std::max(1.0, opts.seconds / 5.0);
    ServeBench serve;
    serve.setup();
    serve.buildReference(out);
    EvalCnnBench cnn;
    cnn.setup();
    cnn.buildReference(out);
    YieldSweepBench sweep(serve.workPtr());

    // The named workload's throughput untraced, against the same phase
    // traced below: the tracing overhead.
    const auto throughput = [&](Outcome &o) {
        if (opts.workload == "serve")
            return serve.closedPhase(w, opts.seed, o).qps;
        if (opts.workload == "eval-cnn")
            return cnn.run(w, opts.seed, o).imagesPerS;
        return sweep.run(w, opts.seed, o).chipsPerS;
    };
    const double untraced = throughput(out);

    trace::setEnabled(true);
    ServeBench::Closed closed;
    ServeBench::Open open, replay;
    {
        const trace::Span span("workload.serve");
        closed = serve.closedPhase(w, opts.seed, out);
        open = serve.openSocketPhase(w, opts.seed, out);
        replay = serve.openReplayPhase(w, opts.seed, out);
    }
    EvalCnnBench::Result cnnRun;
    {
        const trace::Span span("workload.eval-cnn");
        cnnRun = cnn.run(w, opts.seed, out);
    }
    YieldSweepBench::Result sweepRun;
    {
        const trace::Span span("workload.yield-sweep");
        sweepRun = sweep.run(w, opts.seed, out);
    }
    const double traced = opts.workload == "serve"      ? closed.qps
                          : opts.workload == "eval-cnn" ? cnnRun.imagesPerS
                                                        : sweepRun.chipsPerS;
    serve.stop(); // the diagnostics call the evaluator directly
    layerDiagnostics(serve, cnn, sweep, out);
    trace::setEnabled(false);

    out.add("serve.closed.batch_size_mean", closed.batchMean, "count");
    out.add("serve.closed.eval_us_p50", closed.evalP50Us, "us");
    out.add("serve.closed.latency_us_p50", closed.latencyP50Us, "us");
    out.add("serve.closed.latency_us_p99", closed.latencyP99Us, "us");
    out.add("serve.open.queue_us_p50", replay.queueP50Us, "us");
    out.add("serve.open.eval_us_p50", replay.evalP50Us, "us");
    out.add("serve.open.batch_size_mean", replay.batchMean, "count");
    out.add("serve.open.latency_us_p99", open.latencyP99Us, "us");
    out.add("serve.open.transport_us_p50",
            open.latencyP50Us - replay.latencyP50Us, "us");
    out.add("serve.rejected", static_cast<double>(serve.rejected()),
            "count");
    out.add("loadgen.late_us_p99", open.lateP99Us, "us");
    out.add("core.train_s.mlp", serve.trainS(), "s");
    out.add("core.train_s.cnn", cnn.trainS(), "s");
    out.add("core.map_ms.mlp", serve.mapMs(), "ms");
    out.add("core.map_ms.cnn", cnn.mapMs(), "ms");
    out.add("util.cpu_util.serve.closed", closed.cpuUtil, "frac");
    out.add("util.cpu_util.serve.open", open.cpuUtil, "frac");
    out.add("util.cpu_util.eval-cnn.eval", cnnRun.cpuUtil, "frac");
    out.add("util.cpu_util.yield-sweep.sweep", sweepRun.cpuUtil, "frac");
    out.add("trace.overhead_pct", 100.0 * (untraced - traced) / untraced,
            "%");

    const std::string path = outputDir() + "/trace-" + opts.workload + "-"
                             + std::to_string(opts.seed) + ".json";
    const long spans = trace::writeChromeTrace(path, stderr);
    if (spans < 0)
        out.fail(1, "cannot write " + path);
    else
        std::fprintf(stderr, "perfbench: %ld spans written to %s\n", spans,
                     path.c_str());
    out.add("trace.spans", static_cast<double>(spans), "count");
    return out;
}

std::string
resultJson(const Outcome &out)
{
    std::string json = "{\"correct\": ";
    json += out.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value
                + ", \"unit\": \"" + m.unit + "\"}";
    }
    return json + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: %s --workload serve|eval-cnn|yield-sweep "
                     "--seed N --seconds S [--trace 0|1]\n",
                     argv[0]);
        return 2;
    }
    const std::vector<std::string> failures = selfTest();
    for (const std::string &f : failures)
        std::fprintf(stderr, "perfbench: self-test: %s\n", f.c_str());
    if (!failures.empty())
        return 1;
    ::mkdir(outputDir().c_str(), 0755);

    Outcome out;
    try {
        out = opts.trace ? runTraced(opts) : runWorkload(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (Metric &m : out.metrics) {
        if (!std::isfinite(m.value)) {
            out.fail(1, "metric " + m.name + " is not finite");
            m.value = 0.0;
        }
    }
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);

    const Fingerprint fp = fingerprint(superbnn::serve::ServiceConfig{});
    const std::string result = resultJson(out);
    std::ofstream(outputDir() + "/result-" + opts.workload + "-"
                  + std::to_string(opts.seed) + "-"
                  + (opts.trace ? "1" : "0") + ".json")
        << "{\"fingerprint\": " << fp.json << ", \"result\": " << result
        << "}\n";
    std::printf("perfbench-fingerprint %s\n%s\n", fp.json.c_str(),
                result.c_str());
    return out.failed == 0 ? 0 : 1;
}
