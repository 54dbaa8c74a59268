#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "expected.h"
#include "stats.h"
#include "trace.h"
#include "util/sharded_executor_pool.h"
#include "workloads.h"

namespace perfbench {

bool
countsPerImage(const aqfp::LedgerCounts &before,
               const aqfp::LedgerCounts &after, std::uint64_t images,
               aqfp::LedgerCounts &per_image)
{
    const auto field = [&](std::uint64_t aqfp::LedgerCounts::*f) {
        const std::uint64_t delta = after.*f - before.*f;
        per_image.*f = images ? delta / images : 0;
        return images != 0 && delta % images == 0;
    };
    using C = aqfp::LedgerCounts;
    bool ok = true;
    for (auto f : {&C::samples, &C::tileObservations, &C::crossbarCycles,
                   &C::bernoulliDraws, &C::apcAccumulations,
                   &C::apcInputBits, &C::columnGroupSteps,
                   &C::bufferReadBits, &C::bufferWriteBits})
        ok = field(f) && ok;
    return ok;
}

double
cpuUtilization(double cpu_seconds, double wall_seconds)
{
    const double threads = static_cast<double>(
        util::ShardedExecutorPool::shared()->threadCount());
    return wall_seconds > 0.0 ? cpu_seconds / (wall_seconds * threads)
                              : 0.0;
}

namespace {

/// Requests due in the first kWarmupS seconds of a phase are sent and
/// checked but not measured.
constexpr double kWarmupS = 0.25;
/// An open-loop run whose generator noticed due times later than this
/// at p99 did not offer the schedule it claims; its requests fail. Host
/// preemption alone reaches ~5 ms on a busy shared host, so the limit
/// only catches a generator that cannot keep its schedule at all.
constexpr double kMaxLateP99Us = 50000.0;

Clock::duration
micros(double us)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(us));
}

bool
sameScores(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size()
           && std::memcmp(a.data(), b.data(), a.size() * sizeof(double))
                  == 0;
}

int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &line)
{
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

ServeBench::ServeBench()
    : socketPath_(outputDir() + "/serve-" + std::to_string(::getpid())
                  + ".sock")
{
}

ServeBench::~ServeBench() { stop(); }

void
ServeBench::stop()
{
    if (server_)
        server_->stop();
    if (service_)
        service_->stop();
}

double
ServeBench::setup()
{
    server_.reset();
    service_.reset();
    evaluator_.reset();
    work_.reset();

    const auto t0 = Clock::now();
    auto work = std::make_shared<const MlpWorkload>(trainMlp());
    const auto t1 = Clock::now();
    evaluator_ = std::make_unique<core::HardwareEvaluator>(
        aqfp::AttenuationModel(), mlpConfig());
    evaluator_->mapMlp(*work->mlp);
    const auto t2 = Clock::now();
    service_ = std::make_unique<serve::InferenceService>(
        *evaluator_, serve::ServiceConfig{});
    server_ = std::make_unique<serve::SocketServer>(
        *service_, work->dataset.test, socketPath_);
    const auto t3 = Clock::now();

    work_ = std::move(work);
    trainS_ = secondsBetween(t0, t1);
    mapMs_ = 1e3 * secondsBetween(t1, t2);
    return secondsBetween(t0, t3);
}

std::uint64_t
ServeBench::poolSeed(std::size_t i) const
{
    return 0x5EEDULL + i;
}

std::size_t
ServeBench::poolSample(std::size_t i) const
{
    return i % work_->dataset.test.size();
}

void
ServeBench::buildReference(Outcome &out)
{
    poolSamples_.clear();
    refScores_.clear();
    refPredicted_.clear();
    Digest digest;
    const aqfp::LedgerCounts before = evaluator_->totalLedgerCounts();
    for (std::size_t i = 0; i < kPool; ++i) {
        poolSamples_.push_back(work_->dataset.test.sample(poolSample(i)));
        std::vector<double> scores = evaluator_->classScoresSeeded(
            {poolSamples_.back()}, {poolSeed(i)})[0];
        const std::size_t predicted = static_cast<std::size_t>(
            std::max_element(scores.begin(), scores.end())
            - scores.begin());
        digest.addValue(static_cast<std::uint64_t>(predicted));
        for (const double s : scores)
            digest.addValue(s);
        refScores_.push_back(std::move(scores));
        refPredicted_.push_back(predicted);
    }
    out.attempted += kPool;
    if (digest.value() != expected::kServePoolDigest)
        out.fail(kPool, "serve: pool digest "
                            + std::to_string(digest.value())
                            + " differs from the recorded "
                            + std::to_string(expected::kServePoolDigest));
    aqfp::LedgerCounts per_image;
    if (!countsPerImage(before, evaluator_->totalLedgerCounts(), kPool,
                        per_image)
        || aqfp::toJson(per_image) != expected::kMlpCountsPerImage)
        out.fail(1, "serve: MLP ledger per image " + aqfp::toJson(per_image)
                        + " differs from the recorded "
                        + expected::kMlpCountsPerImage);

    // One request through the service prices the per-request cost the
    // socket replies carry.
    const serve::InferenceResponse r =
        service_->submit(poolSamples_[0], poolSeed(0)).get();
    ++out.attempted;
    if (!matches(r, 0))
        out.fail(1, "serve: first response differs from the direct call");
    char text[96];
    std::snprintf(text, sizeof(text), "%.17g %.17g", r.energyAj,
                  r.hardwareLatencyUs);
    refEnergyText_ = text;
    refCounts_ = r.counts;
    if (aqfp::toJson(r.counts) != expected::kMlpCountsPerImage)
        out.fail(1, "serve: response ledger share " + aqfp::toJson(r.counts)
                        + " differs from the recorded per-image counts");
}

bool
ServeBench::matches(const serve::InferenceResponse &r,
                    std::size_t pool) const
{
    return r.predicted == refPredicted_[pool]
           && sameScores(r.scores, refScores_[pool])
           && (refCounts_.samples == 0 || r.counts == refCounts_);
}

std::vector<ServeBench::Arrival>
ServeBench::schedule(double seconds, std::uint64_t seed) const
{
    SeedStream rng(mix64(seed ^ 0x0BE40ULL));
    const double horizonUs = (kWarmupS + seconds) * 1e6;
    std::vector<Arrival> arrivals;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) * 1e6 / kOpenRatePerS;
        if (t >= horizonUs)
            return arrivals;
        arrivals.push_back({t, rng.below(kPool), t >= kWarmupS * 1e6});
    }
}

ServeBench::Closed
ServeBench::closedPhase(double seconds, std::uint64_t seed, Outcome &out)
{
    struct InFlight
    {
        std::future<serve::InferenceResponse> fut;
        std::size_t pool;
        Clock::time_point submitted;
        std::uint64_t request;
    };
    SeedStream pick(mix64(seed ^ 0xC105EDULL));
    std::deque<InFlight> inflight;
    std::vector<double> latency, eval, batch;
    std::vector<Clock::time_point> completions;

    const trace::Span phase("serve.closed");
    const auto start = Clock::now();
    const auto measureFrom =
        start + micros(kWarmupS * 1e6);
    const auto end = measureFrom + micros(seconds * 1e6);
    const auto submitOne = [&] {
        const std::size_t p = pick.below(kPool);
        ++out.attempted;
        try {
            inflight.push_back({service_->submit(poolSamples_[p],
                                                 poolSeed(p)),
                                p, Clock::now(), trace::newRequestId()});
        } catch (const std::exception &e) {
            out.fail(1, std::string("serve: submit refused: ") + e.what());
        }
    };
    for (std::size_t i = 0; i < kInFlight; ++i)
        submitOne();
    double cpu0 = 0.0, cpu1 = 0.0;
    Clock::time_point wall0 = end, wall1 = end;
    while (!inflight.empty()) {
        InFlight f = std::move(inflight.front());
        inflight.pop_front();
        serve::InferenceResponse r;
        bool ok = true;
        try {
            r = f.fut.get();
        } catch (const std::exception &e) {
            out.fail(1, std::string("serve: request failed: ") + e.what());
            ok = false;
        }
        const auto now = Clock::now();
        if (wall0 == end && now >= measureFrom) {
            wall0 = now;
            cpu0 = cpuSeconds();
        }
        if (wall1 == end && now >= end) {
            wall1 = now;
            cpu1 = cpuSeconds();
        }
        if (ok && !matches(r, f.pool)) {
            out.fail(1, "serve: closed-loop response differs from the "
                        "direct call");
            ok = false;
        }
        if (ok) {
            completions.push_back(now);
            if (f.submitted >= measureFrom && f.submitted < end) {
                latency.push_back(r.serviceMicros);
                eval.push_back(r.serviceMicros - r.queueMicros);
                batch.push_back(static_cast<double>(r.batchSize));
            }
            if (trace::enabled()) {
                const auto dispatched = f.submitted + micros(r.queueMicros);
                const auto done = f.submitted + micros(r.serviceMicros);
                const std::uint64_t id = trace::record(
                    "serve.request", f.submitted, done, f.request);
                trace::record("serve.queue", f.submitted, dispatched,
                              f.request, id);
                trace::record("serve.batch_eval", dispatched, done,
                              f.request, id);
            }
        }
        if (now < end)
            submitOne();
    }

    // Throughput: the median over equal windows of the measured
    // interval, so one stalled window does not move it.
    const std::size_t windows = 20;
    const double windowS = seconds / static_cast<double>(windows);
    std::vector<double> perWindow(windows, 0.0);
    for (const auto &t : completions) {
        if (t < measureFrom || t >= end)
            continue;
        const std::size_t w = std::min(
            windows - 1,
            static_cast<std::size_t>(secondsBetween(measureFrom, t)
                                     / windowS));
        perWindow[w] += 1.0 / windowS;
    }
    Closed res;
    res.qps = median(perWindow);
    res.latencyP50Us = percentile(latency, 50.0);
    res.latencyP99Us = percentile(latency, 99.0);
    res.batchMean = mean(batch);
    res.evalP50Us = percentile(eval, 50.0);
    res.cpuUtil = cpuUtilization(cpu1 - cpu0, secondsBetween(wall0, wall1));
    return res;
}

ServeBench::Open
ServeBench::openSocketPhase(double seconds, std::uint64_t seed,
                            Outcome &out)
{
    const std::vector<Arrival> arrivals = schedule(seconds, seed);
    struct Conn
    {
        int fd = -1;
        bool busy = false;
        std::size_t arrival = 0;
        std::uint64_t request = 0;
        std::string buf;
    };
    std::vector<Conn> conns(kConnections);
    for (Conn &c : conns) {
        c.fd = connectUnix(socketPath_);
        if (c.fd < 0) {
            for (Conn &o : conns)
                if (o.fd >= 0)
                    ::close(o.fd);
            out.attempted += arrivals.size();
            out.fail(arrivals.size(), "serve: cannot connect to "
                                          + socketPath_);
            return {};
        }
    }
    // Wake-ups within ~1 us of the requested time, not the default 50.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

    OpenLoopLog log;
    std::deque<std::size_t> ready;
    std::size_t next = 0, done = 0;
    const trace::Span phase("serve.open_socket");
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now() + micros(2000.0);
    const auto nowUs = [&] { return microsBetween(start, Clock::now()); };
    const auto complete = [&](Conn &c, bool ok) {
        const Arrival &a = arrivals[c.arrival];
        const double t = nowUs();
        if (a.measured && ok)
            log.completed(a.dueUs, t);
        if (trace::enabled())
            trace::record("serve.socket_request", start + micros(a.dueUs),
                          start + micros(t), c.request);
        c.busy = false;
        ++done;
    };
    std::vector<pollfd> pfds;
    std::vector<Conn *> polled;
    while (done < arrivals.size()) {
        const double now = nowUs();
        while (next < arrivals.size() && arrivals[next].dueUs <= now) {
            if (arrivals[next].measured)
                log.noticed(arrivals[next].dueUs, now);
            ready.push_back(next++);
        }
        for (Conn &c : conns) {
            if (ready.empty())
                break;
            if (c.busy || c.fd < 0)
                continue;
            c.arrival = ready.front();
            ready.pop_front();
            c.request = trace::newRequestId();
            c.busy = true;
            ++out.attempted;
            const std::size_t p = arrivals[c.arrival].pool;
            const std::string line = "predict "
                                     + std::to_string(poolSample(p)) + " "
                                     + std::to_string(poolSeed(p)) + "\n";
            if (!sendAll(c.fd, line)) {
                out.fail(1, "serve: socket send failed");
                complete(c, false);
            }
        }
        if (done >= arrivals.size())
            break;

        pfds.clear();
        polled.clear();
        for (Conn &c : conns) {
            if (c.busy) {
                pfds.push_back({c.fd, POLLIN, 0});
                polled.push_back(&c);
            }
        }
        double waitUs = 100000.0;
        if (next < arrivals.size())
            waitUs = std::max(0.0, arrivals[next].dueUs - nowUs());
        timespec ts;
        ts.tv_sec = static_cast<time_t>(waitUs / 1e6);
        ts.tv_nsec = static_cast<long>(
            (waitUs - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
        if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0)
            continue;
        for (std::size_t i = 0; i < pfds.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = *polled[i];
            char buf[512];
            const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                out.fail(1, "serve: server hung up");
                ::close(c.fd);
                c.fd = -1;
                complete(c, false);
                continue;
            }
            c.buf.append(buf, static_cast<std::size_t>(n));
            const std::size_t eol = c.buf.find('\n');
            if (eol == std::string::npos)
                continue;
            const std::string reply = c.buf.substr(0, eol);
            c.buf.erase(0, eol + 1);
            const std::size_t p = arrivals[c.arrival].pool;
            const std::string want = "ok "
                                     + std::to_string(refPredicted_[p])
                                     + " " + refEnergyText_ + " ";
            const bool ok = reply.compare(0, want.size(), want) == 0;
            if (!ok)
                out.fail(1, "serve: socket reply '" + reply
                                + "' differs from '" + want + "...'");
            complete(c, ok);
        }
        if (std::all_of(conns.begin(), conns.end(),
                        [](const Conn &c) { return c.fd < 0; })) {
            // Nothing still queued or not yet due was ever sent.
            const std::size_t lost = arrivals.size() - done;
            out.attempted += lost;
            out.fail(lost, "serve: every connection closed");
            break;
        }
    }
    const double wall = microsBetween(start, Clock::now()) / 1e6;
    for (Conn &c : conns) {
        if (c.fd >= 0) {
            (void)sendAll(c.fd, "quit\n");
            ::close(c.fd);
        }
    }

    Open res;
    res.latencyP50Us = percentile(log.latencyUs, 50.0);
    res.latencyP99Us = percentile(log.latencyUs, 99.0);
    res.lateP99Us = percentile(log.latenessUs, 99.0);
    res.cpuUtil = cpuUtilization(cpuSeconds() - cpu0, wall);
    res.completed = log.latencyUs.size();
    if (res.lateP99Us > kMaxLateP99Us)
        out.fail(res.completed,
                 "serve: open-loop generator ran late (p99 "
                     + std::to_string(res.lateP99Us) + " us)");
    return res;
}

ServeBench::Open
ServeBench::openReplayPhase(double seconds, std::uint64_t seed,
                            Outcome &out)
{
    const std::vector<Arrival> arrivals = schedule(seconds, seed);
    struct Sent
    {
        std::future<serve::InferenceResponse> fut;
        std::size_t arrival;
        double submittedUs;
        std::uint64_t request;
    };
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Sent> queue; // guarded by mutex
    bool finished = false;  // guarded by mutex

    const trace::Span phase("serve.open_replay");
    const std::uint64_t phaseId = trace::currentSpan();
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now() + micros(2000.0);

    // Collector: waits on responses in submission order. Everything it
    // records is derived from the response's own timing fields, so its
    // scheduling does not enter any latency.
    std::vector<double> latency, queueUs, evalUs, batch;
    std::uint64_t mismatched = 0, errored = 0;
    std::thread collector([&] {
        for (;;) {
            Sent s;
            {
                std::unique_lock<std::mutex> lock(mutex);
                ready.wait(lock, [&] { return finished || !queue.empty(); });
                if (queue.empty())
                    return;
                s = std::move(queue.front());
                queue.pop_front();
            }
            serve::InferenceResponse r;
            try {
                r = s.fut.get();
            } catch (const std::exception &) {
                ++errored;
                continue;
            }
            const Arrival &a = arrivals[s.arrival];
            if (!matches(r, a.pool)) {
                ++mismatched;
                continue;
            }
            if (a.measured) {
                latency.push_back(s.submittedUs + r.serviceMicros
                                  - a.dueUs);
                queueUs.push_back(r.queueMicros);
                evalUs.push_back(r.serviceMicros - r.queueMicros);
                batch.push_back(static_cast<double>(r.batchSize));
            }
            if (trace::enabled())
                trace::record("serve.replay_request",
                              start + micros(a.dueUs),
                              start + micros(s.submittedUs
                                             + r.serviceMicros),
                              s.request, phaseId);
        }
    });

    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    OpenLoopLog log;
    std::uint64_t rejected = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        std::this_thread::sleep_until(start + micros(arrivals[i].dueUs));
        const double now = microsBetween(start, Clock::now());
        if (arrivals[i].measured)
            log.noticed(arrivals[i].dueUs, now);
        const std::size_t p = arrivals[i].pool;
        ++out.attempted;
        auto fut = service_->trySubmit(poolSamples_[p], poolSeed(p));
        if (!fut) {
            ++rejected;
            continue;
        }
        const std::lock_guard<std::mutex> lock(mutex);
        queue.push_back({std::move(*fut), i, now, trace::newRequestId()});
        ready.notify_one();
    }
    {
        const std::lock_guard<std::mutex> lock(mutex);
        finished = true;
    }
    ready.notify_one();
    collector.join();
    const double wall = microsBetween(start, Clock::now()) / 1e6;

    if (rejected)
        out.fail(rejected, "serve: in-process replay requests rejected");
    if (errored)
        out.fail(errored, "serve: in-process replay requests failed");
    if (mismatched)
        out.fail(mismatched, "serve: in-process replay response differs "
                             "from the direct call");
    Open res;
    res.latencyP50Us = percentile(latency, 50.0);
    res.latencyP99Us = percentile(latency, 99.0);
    res.lateP99Us = percentile(log.latenessUs, 99.0);
    res.queueP50Us = percentile(queueUs, 50.0);
    res.evalP50Us = percentile(evalUs, 50.0);
    res.batchMean = mean(batch);
    res.cpuUtil = cpuUtilization(cpuSeconds() - cpu0, wall);
    res.completed = latency.size();
    return res;
}

std::uint64_t
ServeBench::rejected() const
{
    return service_ ? service_->stats().rejected : 0;
}

} // namespace perfbench
