#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace perfbench {

AllocationScope::AllocationScope()
    : start_(g_allocations.load(std::memory_order_relaxed))
{
    g_counting.store(true, std::memory_order_relaxed);
}

AllocationScope::~AllocationScope()
{
    g_counting.store(false, std::memory_order_relaxed);
}

std::uint64_t
AllocationScope::count() const
{
    return g_allocations.load(std::memory_order_relaxed) - start_;
}

} // namespace perfbench
