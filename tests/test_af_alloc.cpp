// Heap allocations made by constructing an AfLock. This binary replaces
// every global operator new/delete with counting wrappers over malloc, so
// it is built on its own (tests/CMakeLists.txt).
//
// A_f's state is 2·groups f-array trees plus one WSIG per group, so a lock
// that gave each tree a block of its own would allocate Θ(f) times. The
// lock keeps all trees in one block, the signals in another and the per-id
// lines in a third: the count must not depend on f.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "native/af_lock.hpp"
#include "native/counter.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
/// The over-aligned subset: f-array nodes, signals and id lines.
std::atomic<std::size_t> g_aligned_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
        if (align > alignof(std::max_align_t)) {
            g_aligned_allocations.fetch_add(1, std::memory_order_relaxed);
        }
    }
    if (size == 0) {
        size = 1;
    }
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else {
        // aligned_alloc wants a size that is a multiple of the alignment.
        p = std::aligned_alloc(align, (size + align - 1) / align * align);
    }
    return p;
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
    void* p = counted_alloc(size, align);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

/// Allocations made while `body` runs.
template <class Body>
std::size_t allocations_in(Body&& body) {
    g_allocations.store(0);
    g_counting.store(true);
    body();
    g_counting.store(false);
    return g_allocations.load();
}

/// Allocations made by constructing (and destroying) AfLock(n, m, f).
std::size_t construction_allocations(std::uint32_t n, std::uint32_t m,
                                     std::uint32_t f) {
    return allocations_in([&] { const rwr::native::AfLock lock(n, m, f); });
}

}  // namespace

// The replaceable allocation functions, all routed through malloc/free so
// that every new/delete pair matches (sanitizer builds check that).
void* operator new(std::size_t n) {
    return counted_alloc_or_throw(n, 0);
}
void* operator new[](std::size_t n) {
    return counted_alloc_or_throw(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
    return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace {

using rwr::native::AfLock;
using rwr::native::FArrayCounter;

TEST(AfLockAllocations, CountIsTheSameForEveryF) {
    // n = 1024, m = 3: f = 1 is one tree pair over K = 1024 slots, f = 1024
    // is 1024 pairs of one-node trees.
    const std::size_t base = construction_allocations(1024, 3, 1);
    for (const std::uint32_t f : {4u, 256u, 1024u}) {
        EXPECT_EQ(construction_allocations(1024, 3, f), base) << "f=" << f;
    }
}

TEST(AfLockAllocations, StandaloneCounterIsOneBlock) {
    for (const std::uint32_t k : {1u, 3u, 4096u}) {
        EXPECT_EQ(allocations_in([k] { const FArrayCounter c(k); }), 1u)
            << "k=" << k;
    }
}

TEST(AfLockAllocations, ZeroCapacityCounterThrowsBeforeAllocatingNodes) {
    // The exception's message may allocate; the node array is the only
    // over-aligned block.
    g_aligned_allocations.store(0);
    g_counting.store(true);
    EXPECT_THROW(FArrayCounter(0), std::invalid_argument);
    g_counting.store(false);
    EXPECT_EQ(g_aligned_allocations.load(), 0u);
}

}  // namespace
