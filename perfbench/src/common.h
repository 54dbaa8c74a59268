/**
 * @file
 * Shared plumbing of the benchmark: clocks, seeded mixing, digests, the
 * metric list a run reports, and process resource probes.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** SplitMix64 finalizer: a well-mixed pure function of @p x. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic generator for the benchmark's own input choices. */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state(mix64(seed)) {}

    std::uint64_t
    next()
    {
        state += 0x9e3779b97f4a7c15ULL;
        return mix64(state);
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** Uniform index in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state;
};

/** FNV-1a 64 over raw bytes, the benchmark's output digest. */
class Digest
{
  public:
    void
    add(const void *data, std::size_t bytes)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            hash ^= p[i];
            hash *= 1099511628211ULL;
        }
    }

    template <typename T>
    void
    addValue(const T &value)
    {
        add(&value, sizeof(value));
    }

    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 14695981039346656037ULL;
};

/** One reported metric: name, value as measured, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run reports: operations attempted and failed (a failure is a
 * rejected or erroring request, or an output that fails its correctness
 * check), and the metrics in report order.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count @p n failures and say why on stderr. */
    void fail(std::uint64_t n, const std::string &why);
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** User + system CPU seconds consumed by this process so far. */
double cpuSeconds();

/** Directory (relative to the checkout root) for run artifacts. */
std::string outputDir();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
