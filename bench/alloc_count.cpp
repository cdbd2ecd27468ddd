#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// ttslint: allow(shared-state, thread-confine) reason=process-wide allocation counter, bumped by whichever thread allocates and only read, never branched on, by the simulation
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tts::bench {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace tts::bench
