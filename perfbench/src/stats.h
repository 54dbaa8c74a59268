/**
 * @file
 * The benchmark's statistics helpers: nearest-rank percentiles, medians,
 * and due-time accounting for open-loop traffic. Checked on crafted
 * inputs by selftest.cc at the start of every run.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample with at least @p pct
 * percent of the samples at or below it (rank ceil(pct/100 * n),
 * 1-based). 0 for an empty sample.
 */
inline double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

/** Median (mean of the two middle samples for even sizes). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0)
           / static_cast<double>(values.size());
}

/**
 * Open-loop accounting. Every request has a due time on the seeded
 * schedule; its latency runs from that due time to its response, so a
 * request held back by a busy connection or a stalled generator is
 * charged for the wait. The generator's own lateness (when it noticed a
 * request was due, minus the due time) is kept separately.
 * All times in microseconds on one clock.
 */
struct OpenLoopLog
{
    std::vector<double> latencyUs;
    std::vector<double> latenessUs;

    void noticed(double due_us, double now_us)
    {
        latenessUs.push_back(std::max(0.0, now_us - due_us));
    }

    void completed(double due_us, double done_us)
    {
        latencyUs.push_back(done_us - due_us);
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
