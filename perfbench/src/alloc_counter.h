/**
 * @file
 * Counting allocator of the benchmark binary. alloc_counter.cc replaces
 * the global operator new/delete of this executable only; while an
 * AllocationScope is live, every allocation on any thread is counted.
 * Outside a scope the count costs one relaxed load per allocation.
 */

#ifndef PERFBENCH_ALLOC_COUNTER_H
#define PERFBENCH_ALLOC_COUNTER_H

#include <cstdint>

namespace perfbench {

/** Counts operator new calls for its lifetime (scopes do not nest). */
class AllocationScope
{
  public:
    AllocationScope();
    ~AllocationScope();
    AllocationScope(const AllocationScope &) = delete;
    AllocationScope &operator=(const AllocationScope &) = delete;

    /** Allocations counted since the scope opened. */
    std::uint64_t count() const;

  private:
    std::uint64_t start_;
};

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNTER_H
