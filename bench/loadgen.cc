/**
 * @file
 * Serving load generator: drives an inference service with the demo
 * MLP workload and emits the `superbnn-serving-latency-v1` JSON
 * artifact (schema documented in docs/SERVING.md) on stdout; the
 * human-readable summary goes to stderr so `loadgen >
 * serving-latency.json` is the whole CI recipe.
 *
 * Three measurement legs:
 *
 *  1. Sequential baseline — every request evaluated alone (batch of
 *     one) through the same seeded evaluator path the service uses.
 *  2. Closed-loop batched — the same requests (same seeds) submitted
 *     by concurrent clients to a serve::InferenceService, so the
 *     dispatcher coalesces them into megabatches. Every response's
 *     prediction is checked bit-exactly against the baseline leg
 *     (`mismatches` in the JSON must be 0 — the serving determinism
 *     contract).
 *  3. Open-loop offered-QPS levels — a pacer submits at fixed rates
 *     via trySubmit (drops counted, never blocking), reporting
 *     achieved QPS and p50/p99 latency per level.
 *
 * Optionally (--socket PATH) it instead smoke-drives a running
 * serve_server over its Unix-socket line protocol.
 *
 * Schema and key order are fixed; wall-clock values naturally vary
 * run to run, while predictions, energy, and `mismatches` are
 * deterministic. `--digest` instead emits the byte-diffable
 * `superbnn-serving-digest-v1` artifact: only the deterministic
 * surface (a 64-bit FNV-1a over every response's predicted class and
 * full score vector, plus `mismatches`), with no wall-clock fields at
 * all — CI runs it under SUPERBNN_NUMA=off and =auto and diffs the
 * two outputs byte for byte.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/inference_service.h"
#include "serve/server.h"
#include "yield_surface_util.h"

using namespace superbnn;
using Clock = std::chrono::steady_clock;

namespace {

double
millisSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Nearest-rank percentile of an unsorted latency sample (µs). */
double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t rank = static_cast<std::size_t>(
        pct / 100.0 * static_cast<double>(values.size()));
    return values[std::min(rank, values.size() - 1)];
}

struct Leg
{
    double wallMs = 0.0;
    double qps = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
};

Leg
makeLeg(double wall_ms, const std::vector<double> &latencies_us)
{
    Leg leg;
    leg.wallMs = wall_ms;
    leg.qps = wall_ms > 0.0
                  ? static_cast<double>(latencies_us.size())
                        / (wall_ms / 1000.0)
                  : 0.0;
    leg.p50Us = percentile(latencies_us, 50.0);
    leg.p99Us = percentile(latencies_us, 99.0);
    return leg;
}

void
printLeg(const char *key, const Leg &leg, const char *extra = "")
{
    std::printf("  \"%s\": {\"wall_ms\": %.3f, \"qps\": %.1f, "
                "\"p50_us\": %.1f, \"p99_us\": %.1f%s}",
                key, leg.wallMs, leg.qps, leg.p50Us, leg.p99Us, extra);
}

/** One line-protocol round trip against a running serve_server. */
int
socketSmoke(const std::string &path, std::size_t requests)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (fd < 0
        || ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr))
               != 0) {
        std::fprintf(stderr, "loadgen: cannot connect to %s\n",
                     path.c_str());
        if (fd >= 0)
            ::close(fd);
        return 1;
    }
    std::size_t ok = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        char req[64];
        std::snprintf(req, sizeof(req), "predict %zu %zu\n", i % 16,
                      i + 1);
        if (::send(fd, req, std::strlen(req), MSG_NOSIGNAL) < 0)
            break;
        char buf[256];
        const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
        if (n <= 0)
            break;
        buf[n] = '\0';
        if (std::strncmp(buf, "ok ", 3) == 0)
            ++ok;
        else
            std::fprintf(stderr, "loadgen: server said: %s", buf);
    }
    (void)::send(fd, "quit\n", 5, MSG_NOSIGNAL);
    ::close(fd);
    std::fprintf(stderr, "loadgen: socket smoke: %zu/%zu ok\n", ok,
                 requests);
    return ok == requests ? 0 : 1;
}

/** FNV-1a 64 over raw bytes, for the deterministic response digest. */
std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t hash)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t requests = 128;
    std::size_t clients = 8;
    std::vector<double> levels = {50.0, 200.0};
    double level_seconds = 1.0;
    std::string socket_path;
    bool digest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--requests" && i + 1 < argc)
            requests = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--clients" && i + 1 < argc)
            clients = static_cast<std::size_t>(std::atol(argv[++i]));
        else if (arg == "--level-seconds" && i + 1 < argc)
            level_seconds = std::atof(argv[++i]);
        else if (arg == "--socket" && i + 1 < argc)
            socket_path = argv[++i];
        else if (arg == "--digest")
            digest = true;
        else {
            std::fprintf(stderr,
                         "usage: %s [--requests N] [--clients C] "
                         "[--level-seconds S] [--socket PATH] "
                         "[--digest]\n",
                         argv[0]);
            return 2;
        }
    }
    if (!socket_path.empty())
        return socketSmoke(socket_path, requests);

    // The same deterministically trained MLP the yield bench uses.
    const auto &work = yield_surface_util::demoWorkload();
    const data::Dataset &test = work.dataset.test;
    const core::HardwareConfig hw{16, 8, 2.4, false, 0.25, 0, 8};
    core::HardwareEvaluator evaluator(aqfp::AttenuationModel(), hw);
    evaluator.mapMlp(*work.mlp);

    const serve::ServiceConfig scfg = serve::ServiceConfig::fromEnv();
    std::fprintf(stderr,
                 "loadgen: %zu requests, %zu clients, max_batch=%zu "
                 "linger_us=%zu queue=%zu\n",
                 requests, clients, scfg.maxBatch, scfg.maxLingerMicros,
                 scfg.maxQueue);

    // Request plan: sample index and noise seed per request.
    std::vector<std::size_t> sampleIdx(requests);
    std::vector<std::uint64_t> seeds(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        sampleIdx[i] = i % test.size();
        seeds[i] = 0x5EEDULL + i;
    }

    // Leg 1: sequential baseline (batch of one per request).
    std::vector<std::size_t> expected(requests);
    Leg sequential;
    {
        std::vector<double> lat;
        lat.reserve(requests);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < requests; ++i) {
            const auto r0 = Clock::now();
            expected[i] = evaluator.predictSeeded(
                {test.sample(sampleIdx[i])}, {seeds[i]})[0];
            lat.push_back(std::chrono::duration<double, std::micro>(
                              Clock::now() - r0)
                              .count());
        }
        sequential = makeLeg(millisSince(t0), lat);
    }

    // Leg 2: the same requests through the batching service. The
    // predicted class and score vector of every response feed the
    // deterministic digest; batch-composition-dependent fields
    // (counts shares, batchSize) deliberately do not.
    std::vector<std::pair<std::size_t, std::vector<double>>> responses(
        requests);
    Leg batched;
    std::size_t mismatches = 0;
    std::uint64_t batches = 0;
    std::size_t largestBatch = 0;
    std::uint64_t lingered = 0;
    double energyAj = 0.0;
    double hardwareUs = 0.0;
    {
        serve::InferenceService service(evaluator, scfg);
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> wrong{0};
        std::vector<double> lat(requests, 0.0);
        const auto t0 = Clock::now();
        std::vector<std::thread> pool;
        for (std::size_t c = 0; c < clients; ++c) {
            pool.emplace_back([&] {
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= requests)
                        return;
                    auto fut = service.submit(
                        test.sample(sampleIdx[i]), seeds[i]);
                    const serve::InferenceResponse r = fut.get();
                    lat[i] = r.serviceMicros;
                    responses[i] = {r.predicted, r.scores};
                    if (r.predicted != expected[i])
                        wrong.fetch_add(1, std::memory_order_relaxed);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        batched = makeLeg(millisSince(t0), lat);
        mismatches = wrong.load();
        const serve::ServiceStats stats = service.stats();
        batches = stats.batches;
        largestBatch = stats.largestBatch;
        lingered = stats.lingered;
        // Per-request attribution from a probe response (constant for
        // a mapped model).
        const serve::InferenceResponse probe =
            service.submit(test.sample(0), 1).get();
        energyAj = probe.energyAj;
        hardwareUs = probe.hardwareLatencyUs;
        service.stop();
    }

    if (digest) {
        // Deterministic surface only: identical bytes whatever the
        // wall clock, thread schedule, SUPERBNN_NUMA / SUPERBNN_PIN
        // setting, or batch composition did this run.
        std::uint64_t h = 14695981039346656037ULL;
        for (std::size_t i = 0; i < requests; ++i) {
            const std::uint64_t pred = responses[i].first;
            h = fnv1a(&pred, sizeof(pred), h);
            for (const double score : responses[i].second)
                h = fnv1a(&score, sizeof(score), h);
        }
        std::printf("{\n");
        std::printf(
            "  \"schema\": \"superbnn-serving-digest-v1\",\n");
        std::printf("  \"workload\": \"mlp-784x64x10\",\n");
        std::printf("  \"requests\": %zu,\n", requests);
        std::printf("  \"response_digest\": \"%016llx\",\n",
                    static_cast<unsigned long long>(h));
        std::printf("  \"mismatches\": %zu\n}\n", mismatches);
        return mismatches == 0 ? 0 : 1;
    }

    // Leg 3: open-loop offered-QPS levels via trySubmit (never blocks
    // the pacer; overload shows up as drops, not as pacing drift).
    struct LevelResult
    {
        double offered;
        Leg leg;
        std::uint64_t accepted = 0;
        std::uint64_t dropped = 0;
        std::uint64_t lingered = 0;
    };
    std::vector<LevelResult> offered;
    for (const double qps : levels) {
        serve::InferenceService service(evaluator, scfg);
        std::vector<std::future<serve::InferenceResponse>> futures;
        std::uint64_t dropped = 0;
        const auto interval = std::chrono::duration_cast<
            Clock::duration>(std::chrono::duration<double>(1.0 / qps));
        const auto t0 = Clock::now();
        const auto end =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(level_seconds));
        auto due = t0;
        std::size_t i = 0;
        while (Clock::now() < end) {
            auto fut = service.trySubmit(
                test.sample(sampleIdx[i % requests]),
                seeds[i % requests]);
            if (fut)
                futures.push_back(std::move(*fut));
            else
                ++dropped;
            ++i;
            due += interval;
            std::this_thread::sleep_until(due);
        }
        std::vector<double> lat;
        lat.reserve(futures.size());
        for (auto &fut : futures)
            lat.push_back(fut.get().serviceMicros);
        const double wall = millisSince(t0);
        service.stop();
        LevelResult lr;
        lr.offered = qps;
        lr.leg = makeLeg(wall, lat);
        lr.accepted = futures.size();
        lr.dropped = dropped;
        lr.lingered = service.stats().lingered;
        offered.push_back(lr);
    }

    std::fprintf(stderr,
                 "loadgen: sequential %.1f req/s, batched %.1f req/s "
                 "(x%.2f, %llu batches, largest %zu, lingered %llu), "
                 "mismatches %zu\n",
                 sequential.qps, batched.qps,
                 sequential.qps > 0.0 ? batched.qps / sequential.qps
                                      : 0.0,
                 static_cast<unsigned long long>(batches), largestBatch,
                 static_cast<unsigned long long>(lingered), mismatches);

    // The artifact: fixed schema + key order (docs/SERVING.md).
    std::printf("{\n");
    std::printf("  \"schema\": \"superbnn-serving-latency-v1\",\n");
    std::printf("  \"workload\": \"mlp-784x64x10\",\n");
    std::printf("  \"config\": {\"max_batch\": %zu, \"linger_us\": %zu, "
                "\"queue\": %zu, \"clients\": %zu, \"requests\": %zu},\n",
                scfg.maxBatch, scfg.maxLingerMicros, scfg.maxQueue,
                clients, requests);
    printLeg("sequential", sequential);
    std::printf(",\n");
    {
        char extra[128];
        std::snprintf(extra, sizeof(extra),
                      ", \"batches\": %llu, \"largest_batch\": %zu, "
                      "\"lingered\": %llu",
                      static_cast<unsigned long long>(batches),
                      largestBatch,
                      static_cast<unsigned long long>(lingered));
        printLeg("batched", batched, extra);
    }
    std::printf(",\n");
    std::printf("  \"speedup\": %.3f,\n",
                sequential.qps > 0.0 ? batched.qps / sequential.qps
                                     : 0.0);
    std::printf("  \"mismatches\": %zu,\n", mismatches);
    std::printf("  \"energy_aj_per_request\": %.17g,\n", energyAj);
    std::printf("  \"hardware_latency_us\": %.17g,\n", hardwareUs);
    std::printf("  \"offered\": [");
    for (std::size_t i = 0; i < offered.size(); ++i) {
        const LevelResult &lr = offered[i];
        std::printf("%s\n    {\"offered_qps\": %.1f, "
                    "\"achieved_qps\": %.1f, \"p50_us\": %.1f, "
                    "\"p99_us\": %.1f, \"accepted\": %llu, "
                    "\"dropped\": %llu, \"lingered\": %llu}",
                    i == 0 ? "" : ",", lr.offered, lr.leg.qps,
                    lr.leg.p50Us, lr.leg.p99Us,
                    static_cast<unsigned long long>(lr.accepted),
                    static_cast<unsigned long long>(lr.dropped),
                    static_cast<unsigned long long>(lr.lingered));
    }
    std::printf("\n  ]\n}\n");
    return mismatches == 0 ? 0 : 1;
}
