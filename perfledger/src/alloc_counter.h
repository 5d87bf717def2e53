// Heap-allocation counter for the traced run. The benchmark executable
// replaces the global operator new (alloc_counter.cpp) with one that calls
// note(); counting happens only while armed, and only the traced run arms
// it, around the single operation it attributes. Binaries without the
// replacement (the self-tests) always read zero.
#pragma once

#include <atomic>
#include <cstdint>

namespace perfledger::alloc {

inline std::atomic<bool> g_armed{false};
inline std::atomic<std::uint64_t> g_count{0};

inline void note() {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Counts the allocations made while it is alive.
class Scope {
 public:
  Scope() : start_(g_count.load(std::memory_order_relaxed)) {
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~Scope() { g_armed.store(false, std::memory_order_relaxed); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t count() const {
    return g_count.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_;
};

}  // namespace perfledger::alloc
