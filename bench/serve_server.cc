/**
 * @file
 * Standalone inference server: trains the demo MLP workload
 * deterministically, maps it onto the simulated accelerator, and
 * serves predictions over a Unix-domain socket with the
 * serve::SocketServer line protocol (request lifecycle and knobs in
 * docs/SERVING.md).
 *
 * Usage: serve_server <socket-path> [--requests N]
 *
 * With --requests N the server exits 0 after N predict requests have
 * been served (the CI smoke recipe: start it in the background, run
 * `loadgen --socket <path> --requests N` with a matching count, and
 * the server winds itself down after draining live connections);
 * without it the server runs until SIGTERM/SIGINT.
 *
 * Service knobs come from the SUPERBNN_SERVE_* environment variables
 * via serve::ServiceConfig::fromEnv(); executor concurrency follows
 * the usual SUPERBNN_THREADS contract of the shared pool.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "serve/inference_service.h"
#include "serve/server.h"
#include "yield_surface_util.h"

using namespace superbnn;

namespace {

std::atomic<bool> interrupted{false};

void
onSignal(int)
{
    interrupted.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::uint64_t stop_after = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--requests" && i + 1 < argc)
            stop_after =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        else if (path.empty() && arg[0] != '-')
            path = arg;
        else {
            std::fprintf(stderr,
                         "usage: %s <socket-path> [--requests N]\n",
                         argv[0]);
            return 2;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr, "usage: %s <socket-path> [--requests N]\n",
                     argv[0]);
        return 2;
    }

    const auto &work = yield_surface_util::demoWorkload();
    const core::HardwareConfig hw{16, 8, 2.4, false, 0.25, 0, 8};
    core::HardwareEvaluator evaluator(aqfp::AttenuationModel(), hw);
    evaluator.mapMlp(*work.mlp);

    const serve::ServiceConfig cfg = serve::ServiceConfig::fromEnv();
    serve::InferenceService service(evaluator, cfg);
    serve::SocketServer server(service, work.dataset.test, path);
    std::fprintf(stderr,
                 "serve_server: listening on %s (max_batch=%zu "
                 "linger_us=%zu queue=%zu)\n",
                 path.c_str(), cfg.maxBatch, cfg.maxLingerMicros,
                 cfg.maxQueue);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    bool served_out = false;
    while (!interrupted.load()) {
        if (stop_after > 0 && service.stats().served >= stop_after) {
            served_out = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // The served-count poll can trip while a handler is still writing
    // its final reply (or the client its closing "quit"), so a
    // self-wind-down waits — bounded — for connections to retire
    // before tearing the transport down mid-send.
    if (served_out) {
        for (int i = 0; i < 500 && server.liveConnections() > 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    server.stop();
    service.stop();
    const serve::ServiceStats s = service.stats();
    std::fprintf(stderr,
                 "serve_server: served %llu requests in %llu batches "
                 "(largest %zu, lingered %llu), rejected %llu\n",
                 static_cast<unsigned long long>(s.served),
                 static_cast<unsigned long long>(s.batches),
                 s.largestBatch,
                 static_cast<unsigned long long>(s.lingered),
                 static_cast<unsigned long long>(s.rejected));
    return 0;
}
