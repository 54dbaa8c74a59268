#include "selftest.h"

#include <cmath>
#include <cstdio>

#include "stats.h"

namespace perfbench {

std::vector<std::string>
selfTest()
{
    std::vector<std::string> failures;
    const auto expect = [&](const char *what, double got, double want) {
        if (std::fabs(got - want) > 1e-9) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "%s: got %.17g, want %.17g",
                          what, got, want);
            failures.emplace_back(buf);
        }
    };

    // Nearest rank: rank ceil(p/100 * n), 1-based.
    const std::vector<double> hundred = [] {
        std::vector<double> v;
        for (int i = 100; i >= 1; --i)
            v.push_back(i);
        return v;
    }();
    expect("p50 of 1..100", percentile(hundred, 50.0), 50.0);
    expect("p99 of 1..100", percentile(hundred, 99.0), 99.0);
    expect("p99.5 of 1..100", percentile(hundred, 99.5), 100.0);
    expect("p100 of 1..100", percentile(hundred, 100.0), 100.0);
    expect("p0 of 1..100", percentile(hundred, 0.0), 1.0);
    expect("p50 of {3,1,2}", percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
    expect("p99 of {7}", percentile({7.0}, 99.0), 7.0);
    expect("p50 of {}", percentile({}, 50.0), 0.0);

    expect("median odd", median({5.0, 1.0, 3.0}), 3.0);
    expect("median even", median({4.0, 1.0, 3.0, 2.0}), 2.5);
    expect("mean", mean({1.0, 2.0, 6.0}), 3.0);

    // Due-time accounting: the second request was due at 1000 us but
    // waited for a connection until 2400 us; it is charged from 1000.
    OpenLoopLog log;
    log.noticed(0.0, 40.0);
    log.noticed(1000.0, 1010.0);
    log.noticed(2000.0, 1990.0); // noticed early: lateness clamps to 0
    log.completed(0.0, 500.0);
    log.completed(1000.0, 3500.0);
    log.completed(2000.0, 2600.0);
    expect("due-time p50", percentile(log.latencyUs, 50.0), 600.0);
    expect("due-time max", percentile(log.latencyUs, 100.0), 2500.0);
    expect("lateness max", percentile(log.latenessUs, 100.0), 40.0);
    expect("lateness min", percentile(log.latenessUs, 0.0), 0.0);
    return failures;
}

} // namespace perfbench
