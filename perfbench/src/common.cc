#include "common.h"

#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

void
Outcome::fail(std::uint64_t n, const std::string &why)
{
    // Report the first few reasons; a systematic mismatch would
    // otherwise print one line per request.
    if (failed < 1000 && n > 0)
        std::fprintf(stderr, "perfbench: FAILED x%llu: %s\n",
                     static_cast<unsigned long long>(n), why.c_str());
    failed += n;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
cpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
               + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string
outputDir()
{
    return ".bench_out";
}

} // namespace perfbench
