/**
 * @file
 * Self-test of the benchmark's C++ statistics helpers (stats.h) on
 * crafted inputs with known answers. Every run executes it first and
 * refuses to measure if it fails. The quartile and within-bound helpers
 * live in perfbench/spread.py and are self-tested there.
 */

#ifndef PERFBENCH_SELFTEST_H
#define PERFBENCH_SELFTEST_H

#include <string>
#include <vector>

namespace perfbench {

/** Failure messages; empty when every check passes. */
std::vector<std::string> selfTest();

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_H
