/**
 * @file
 * Test helper: run a scope with the shared executor pool rebuilt at a
 * given SUPERBNN_THREADS, restoring the variable and the pool after.
 */

#ifndef SUPERBNN_TESTS_SCOPED_THREADS_H
#define SUPERBNN_TESTS_SCOPED_THREADS_H

#include <cstdlib>
#include <optional>
#include <string>

#include "util/sharded_executor_pool.h"

namespace superbnn::test_util {

/** Sets SUPERBNN_THREADS and rebuilds the shared pool; restores both. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(const char *threads)
    {
        if (const char *old = std::getenv("SUPERBNN_THREADS"))
            saved = old;
        setenv("SUPERBNN_THREADS", threads, 1);
        util::ShardedExecutorPool::reset();
    }
    ~ScopedThreads()
    {
        if (saved)
            setenv("SUPERBNN_THREADS", saved->c_str(), 1);
        else
            unsetenv("SUPERBNN_THREADS");
        util::ShardedExecutorPool::reset();
    }
    ScopedThreads(const ScopedThreads &) = delete;
    ScopedThreads &operator=(const ScopedThreads &) = delete;

  private:
    std::optional<std::string> saved;
};

/** The pool sizes the differential kernel tests run at. */
inline constexpr const char *kPoolSizes[] = {"1", "3", "4"};

} // namespace superbnn::test_util

#endif // SUPERBNN_TESTS_SCOPED_THREADS_H
