#include "trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench::trace {

namespace {

struct SpanRecord
{
    const char *name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint32_t tid;
    bool async; ///< measured by the caller; may overlap its siblings
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_nextSpan{1};
std::atomic<std::uint64_t> g_nextRequest{1};
std::atomic<std::uint32_t> g_nextTid{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_mutex;
std::vector<SpanRecord> g_spans; // guarded by g_mutex

thread_local std::vector<std::uint64_t> t_stack;

std::uint32_t
threadIndex()
{
    thread_local const std::uint32_t tid = g_nextTid.fetch_add(1);
    return tid;
}

std::int64_t
sinceEpochNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
        .count();
}

void
append(const SpanRecord &rec)
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back(rec);
}

/** Self time of every span, by index into @p spans. */
std::vector<std::int64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const SpanRecord &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            kids[it->second].push_back({s.startNs, s.endNs});
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = spans[i].startNs;
        for (const auto &[lo, hi] : iv) {
            const std::int64_t a = std::max(lo, reach);
            const std::int64_t b = std::min(hi, spans[i].endNs);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = spans[i].endNs - spans[i].startNs - covered;
    }
    return self;
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t
newRequestId()
{
    return g_nextRequest.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
currentSpan()
{
    return t_stack.empty() ? 0 : t_stack.back();
}

std::uint64_t
record(const char *name, Clock::time_point start, Clock::time_point end,
       std::uint64_t request, std::uint64_t parent)
{
    if (!enabled())
        return 0;
    const std::uint64_t id = g_nextSpan.fetch_add(1);
    append({name, id, parent != 0 ? parent : currentSpan(), request,
            sinceEpochNs(start), sinceEpochNs(end), threadIndex(), true});
    return id;
}

Span::Span(const char *name) : name_(name), start_(Clock::now())
{
    if (enabled()) {
        id_ = g_nextSpan.fetch_add(1);
        parent_ = currentSpan();
        t_stack.push_back(id_);
    }
}

Span::~Span() { finish(); }

double
Span::finish()
{
    if (durationNs_ >= 0.0)
        return durationNs_;
    const Clock::time_point end = Clock::now();
    durationNs_ = nanosBetween(start_, end);
    if (id_ != 0) {
        t_stack.pop_back();
        append({name_, id_, parent_, 0, sinceEpochNs(start_),
                sinceEpochNs(end), threadIndex(), false});
    }
    return durationNs_;
}

long
writeChromeTrace(const std::string &path, std::FILE *summary)
{
    std::vector<SpanRecord> spans;
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        spans = g_spans;
    }
    const std::vector<std::int64_t> self = selfTimes(spans);

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return -1;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        const double ts = static_cast<double>(s.startNs) / 1000.0;
        const double te = static_cast<double>(s.endNs) / 1000.0;
        char args[160];
        std::snprintf(args, sizeof(args),
                      "{\"span\":%llu,\"parent\":%llu,\"request\":%llu,"
                      "\"self_us\":%.3f}",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request),
                      static_cast<double>(self[i]) / 1000.0);
        const char *sep = i + 1 < spans.size() ? ",\n" : "\n";
        if (s.async) {
            // Overlapping spans go on async tracks keyed by request (or
            // by the span itself), where viewers nest them by time.
            const unsigned long long track =
                s.request != 0 ? s.request : s.id;
            std::fprintf(out,
                         "{\"name\":\"%s\",\"cat\":\"async\",\"ph\":\"b\","
                         "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                         "\"args\":%s},\n"
                         "{\"name\":\"%s\",\"cat\":\"async\",\"ph\":\"e\","
                         "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}%s",
                         s.name, track, s.tid, ts, args, s.name, track,
                         s.tid, te, sep);
        } else {
            std::fprintf(out,
                         "{\"name\":\"%s\",\"cat\":\"sync\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":%s}%s",
                         s.name, s.tid, ts, te - ts, args, sep);
        }
    }
    std::fprintf(out, "]}\n");
    const bool ok = std::fclose(out) == 0;

    if (summary) {
        struct Row
        {
            std::size_t count = 0;
            double totalUs = 0.0;
            double selfUs = 0.0;
        };
        std::map<std::string, Row> rows;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            Row &r = rows[spans[i].name];
            ++r.count;
            r.totalUs +=
                static_cast<double>(spans[i].endNs - spans[i].startNs)
                / 1000.0;
            r.selfUs += static_cast<double>(self[i]) / 1000.0;
        }
        std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                        rows.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.selfUs > b.second.selfUs;
                  });
        std::fprintf(summary, "%-44s %9s %14s %14s\n", "span", "count",
                     "total_us", "self_us");
        for (const auto &[name, r] : sorted)
            std::fprintf(summary, "%-44s %9zu %14.1f %14.1f\n",
                         name.c_str(), r.count, r.totalUs, r.selfUs);
    }
    return ok ? static_cast<long>(spans.size()) : -1;
}

} // namespace perfbench::trace
