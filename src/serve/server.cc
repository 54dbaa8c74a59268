#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace superbnn::serve {

namespace {

/**
 * Longest request line a connection may send (or leave unterminated).
 * A valid line is under 64 bytes; a client past this is hung up on
 * instead of growing the line buffer without bound.
 */
constexpr std::size_t kMaxLineBytes = 1024;

/**
 * Write the whole buffer, riding out short writes and EINTR.
 * send(MSG_NOSIGNAL) instead of write(): a client that disconnects
 * mid-reply must surface as EPIPE (a clean per-connection hangup the
 * caller handles by closing), never as a process-killing SIGPIPE.
 */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // EPIPE/ECONNRESET: peer hung up
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** @p token as a 64-bit value: decimal digits only, no sign, no wrap. */
std::optional<std::uint64_t>
parseU64(const std::string &token)
{
    std::uint64_t value = 0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

} // namespace

SocketServer::SocketServer(InferenceService &service,
                           const data::Dataset &samples,
                           std::string socket_path)
    : service(service), samples(samples),
      socketPath(std::move(socket_path))
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("serve: socket path too long: "
                                 + socketPath);
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        throw std::runtime_error("serve: socket() failed");
    ::unlink(socketPath.c_str()); // replace a stale socket file
    if (::bind(listenFd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr))
            != 0
        || ::listen(listenFd, 64) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error("serve: cannot listen on " + socketPath
                                 + ": " + why);
    }
    acceptor = std::thread([this] { acceptLoop(); });
}

SocketServer::~SocketServer()
{
    stop();
}

void
SocketServer::stop()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping)
            return;
        stopping = true;
        // Breaking the accept() and the per-connection read()s with
        // shutdown() lets every thread fall out of its blocking call.
        // `connections` holds LIVE fds only — a handler deregisters
        // before closing — so no shutdown() here can hit a closed or
        // kernel-reused descriptor.
        if (listenFd >= 0)
            ::shutdown(listenFd, SHUT_RDWR);
        for (const auto &entry : connections)
            ::shutdown(entry.second, SHUT_RDWR);
    }
    if (acceptor.joinable())
        acceptor.join();
    // Wait for every handler to retire itself, then join the retired
    // threads. Handlers never block forever here: their sockets were
    // just shut down, so each read() returns and the handler retires.
    std::vector<std::thread> to_join;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        retired_.wait(lock, [&] { return handlers.empty(); });
        to_join.swap(finished);
    }
    for (std::thread &t : to_join)
        t.join();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
    }
    ::unlink(socketPath.c_str());
}

std::size_t
SocketServer::liveConnections() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return connections.size();
}

void
SocketServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listen socket shut down
        }
        std::vector<std::thread> done;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (stopping) {
                ::close(fd);
                return;
            }
            const std::uint64_t id = nextConnId++;
            connections.emplace(id, fd);
            handlers.emplace(id, std::thread([this, id, fd] {
                                 handleConnection(id, fd);
                             }));
            // Reap previously retired handlers so a long-lived server
            // under connection churn holds only live threads.
            done.swap(finished);
        }
        for (std::thread &t : done)
            t.join();
    }
}

void
SocketServer::retireConnection(std::uint64_t id, int fd)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        // Deregister FIRST: once the entry is gone, stop() can no
        // longer shutdown() this fd, so closing it below cannot race
        // a kernel reuse of the descriptor number.
        connections.erase(id);
        const auto it = handlers.find(id);
        if (it != handlers.end()) {
            finished.push_back(std::move(it->second));
            handlers.erase(it);
        }
    }
    ::close(fd);
    retired_.notify_all();
}

void
SocketServer::handleConnection(std::uint64_t id, int fd)
{
    std::string pending;
    char buf[512];
    bool open = true;
    while (open) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF or hangup
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t eol;
        while (open && (eol = pending.find('\n')) != std::string::npos
               && eol <= kMaxLineBytes) {
            const std::string line = pending.substr(0, eol);
            pending.erase(0, eol + 1);
            const std::string reply = handleLine(line);
            open = !reply.empty() && writeAll(fd, reply);
        }
        // Whatever is left starts with an unterminated line or one past
        // the limit.
        const std::size_t next_line =
            std::min(pending.find('\n'), pending.size());
        if (open && next_line > kMaxLineBytes) {
            (void)writeAll(fd, "err line too long\n");
            open = false;
        }
    }
    retireConnection(id, fd);
}

std::string
SocketServer::handleLine(const std::string &line)
{
    // Whole whitespace-separated tokens; a fourth one is an error.
    std::istringstream in(line);
    std::string verb, index_text, seed_text, extra;
    in >> verb >> index_text >> seed_text >> extra;
    const bool verb_only = index_text.empty();
    if (verb_only && verb == "quit")
        return "";
    if (verb_only && verb == "stats") {
        const ServiceStats s = service.stats();
        char out[160];
        std::snprintf(out, sizeof(out),
                      "stats %llu %llu %llu %llu %zu %llu\n",
                      static_cast<unsigned long long>(s.accepted),
                      static_cast<unsigned long long>(s.served),
                      static_cast<unsigned long long>(s.rejected),
                      static_cast<unsigned long long>(s.batches),
                      s.largestBatch,
                      static_cast<unsigned long long>(s.lingered));
        return out;
    }
    const std::optional<std::uint64_t> index = parseU64(index_text);
    const std::optional<std::uint64_t> seed = parseU64(seed_text);
    if (verb != "predict" || !index || !seed || !extra.empty())
        return "err bad request (want: predict <index> <seed>)\n";
    if (*index >= samples.size())
        return "err sample index out of range\n";
    try {
        // Block this connection's thread on its future: concurrency
        // comes from concurrent connections, which the service's
        // dispatcher coalesces into megabatches.
        const InferenceResponse r =
            service.submit(samples.sample(*index), *seed).get();
        char out[192];
        std::snprintf(out, sizeof(out), "ok %zu %.17g %.17g %zu\n",
                      r.predicted, r.energyAj, r.hardwareLatencyUs,
                      r.batchSize);
        return out;
    } catch (const QueueFullError &) {
        return "err queue full\n";
    } catch (const ShutdownError &) {
        return "err shutting down\n";
    } catch (const std::exception &e) {
        return std::string("err ") + e.what() + "\n";
    }
}

} // namespace superbnn::serve
