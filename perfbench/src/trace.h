/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark records a span around each call it makes into a layer
 * (workload -> phase -> request or batch -> layer call). A span has a
 * name, start, end, the span that caused it, and the request it belongs
 * to; spans of one request share that id. Spans stay in memory and are
 * written once, at the end of the run, as Chrome trace-event JSON
 * (Perfetto / chrome://tracing), each with its self time: its duration
 * minus the part of it covered by its child spans.
 *
 * With tracing off a span costs one relaxed load.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <cstdio>
#include <string>

#include "common.h"

namespace perfbench::trace {

/** Switch recording on or off (off at start). */
void setEnabled(bool on);
bool enabled();

/** A fresh request id (ids start at 1; 0 means "no request"). */
std::uint64_t newRequestId();

/** The innermost live span on this thread (0 when none). */
std::uint64_t currentSpan();

/**
 * Record a span whose interval the caller measured itself — a request
 * timed from its due time, or the queue/eval parts of a served request
 * reported by the service. @p parent 0 means the calling thread's
 * current span. Returns the new span's id (0 when tracing is off).
 */
std::uint64_t record(const char *name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t request = 0,
                     std::uint64_t parent = 0);

/**
 * RAII span around a call on the current thread. finish() returns the
 * duration whether or not tracing is on, so measurement code times layer
 * calls through the same object that records them.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span now (idempotent); returns its duration in ns. */
    double finish();

  private:
    const char *name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
    double durationNs_ = -1.0;
};

/**
 * Write every recorded span as Chrome trace-event JSON to @p path and a
 * self-time summary per span name to @p summary. Returns the number of
 * spans written, or -1 when the file cannot be written.
 */
long writeChromeTrace(const std::string &path, std::FILE *summary);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_H
