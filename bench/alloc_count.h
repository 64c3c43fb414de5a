// Global allocation counting for the bench binaries.
//
// Including this header replaces the global operator new/delete with
// counting versions that bump bench::g_allocations (bench_common.h), so
// benches can report *measured* allocations per operation instead of
// asserting them. Include from exactly one TU per binary (it defines the
// replacement operators).
#pragma once

#include <cstdlib>
#include <new>

#include "bench_common.h"

// noinline on every operator: once one side inlines to malloc() or free()
// while its partner stays a call, GCC's -Wmismatched-new-delete reports a
// false positive for this malloc/free pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  pqs::bench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
