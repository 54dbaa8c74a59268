#include "util/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace superbnn::util {

void
envWarnOnce(const char *name, const char *value, const char *want,
            const char *used)
{
    // One notice per distinct (variable, value) pair: a fallback the
    // user did not ask for must not be silent, but a hot loop must not
    // spam stderr either.
    static std::mutex warn_mutex;
    static std::set<std::string> warned;
    const std::lock_guard<std::mutex> lock(warn_mutex);
    if (warned.insert(std::string(name) + "=" + value).second) {
        std::fprintf(stderr,
                     "superbnn: ignoring invalid %s value '%s' (want "
                     "%s); using %s\n",
                     name, value, want, used);
    }
}

std::size_t
envSize(const char *name, std::size_t fallback, std::size_t min_value,
        std::size_t max_value)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && *env != '-'
        && v >= min_value && v <= max_value)
        return static_cast<std::size_t>(v);
    char want[64];
    char used[32];
    if (max_value == SIZE_MAX)
        std::snprintf(want, sizeof want, "an integer >= %zu", min_value);
    else
        std::snprintf(want, sizeof want, "an integer in [%zu, %zu]",
                      min_value, max_value);
    std::snprintf(used, sizeof used, "%zu", fallback);
    envWarnOnce(name, env, want, used);
    return fallback;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    const std::string v(env);
    if (v == "1")
        return true;
    if (v == "0")
        return false;
    envWarnOnce(name, env, "0 or 1", fallback ? "1" : "0");
    return fallback;
}

} // namespace superbnn::util
