#include "fingerprint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "simd/kernels.h"
#include "util/sharded_executor_pool.h"

extern char **environ;

namespace perfbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

Fingerprint
fingerprint(const superbnn::serve::ServiceConfig &service)
{
    using namespace superbnn;
    const auto pool = util::ShardedExecutorPool::shared();
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e)
        if (std::string(*e).rfind("SUPERBNN_", 0) == 0)
            env.emplace_back(*e);
    std::sort(env.begin(), env.end());
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    const std::string arm = simd::armName(simd::activeArm());
    const std::string cpu = cpuModel();

    std::string host = std::string(__VERSION__) + '|' + (ndebug ? "1" : "0")
                       + '|' + std::to_string(nproc) + '|' + cpu + '|' + arm
                       + '|' + std::to_string(pool->shardCount()) + '|'
                       + std::to_string(pool->threadCount());
    for (const std::string &kv : env)
        host += '|' + kv;
    Digest digest;
    digest.add(host.data(), host.size());

    std::string json = "{\"simd_arm\":" + jsonString(arm)
                       + ",\"shards\":" + std::to_string(pool->shardCount())
                       + ",\"threads\":"
                       + std::to_string(pool->threadCount()) + ",\"env\":{";
    for (std::size_t i = 0; i < env.size(); ++i) {
        const std::size_t eq = env[i].find('=');
        json += (i ? "," : "") + jsonString(env[i].substr(0, eq)) + ":"
                + jsonString(env[i].substr(eq + 1));
    }
    char svc[160];
    std::snprintf(svc, sizeof(svc),
                  "{\"max_batch\":%zu,\"linger_us\":%zu,\"queue\":%zu,"
                  "\"frequency_ghz\":%.17g}",
                  service.maxBatch, service.maxLingerMicros,
                  service.maxQueue, service.frequencyGhz);
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(digest.value()));
    json += std::string("},\"service_config\":") + svc
            + ",\"compiler\":" + jsonString(__VERSION__)
            + ",\"ndebug\":" + (ndebug ? "true" : "false")
            + ",\"nproc\":" + std::to_string(nproc)
            + ",\"cpu_model\":" + jsonString(cpu) + ",\"hash\":\"" + hash
            + "\"}";
    return {json, digest.value()};
}

} // namespace perfbench
