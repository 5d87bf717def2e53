// Global operator new/delete replacement feeding alloc::note(). Every
// non-aligned form is replaced, so no allocation escapes the count and
// every pointer is released by the same allocator that made it (also under
// sanitizers, which otherwise supply the forms left unreplaced).
#include <cstdlib>
#include <new>

#include "alloc_counter.h"

namespace {

void* counted_malloc(std::size_t size) noexcept {
  perfledger::alloc::note();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_or_throw(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_or_throw(size); }
void* operator new[](std::size_t size) { return counted_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
