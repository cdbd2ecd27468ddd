// Heap-allocation counting for the benchmarks: a binary that links
// alloc_count.cpp replaces the global operator new with one that counts
// its calls, and reads the count here.
#pragma once

#include <cstdint>

namespace tts::bench {

/// operator new calls this process has made so far (any thread).
std::uint64_t allocations();

}  // namespace tts::bench
