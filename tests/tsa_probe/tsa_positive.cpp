// Positive thread-safety probe (cmake/ThreadSafety.cmake).
//
// The well-locked twin of tsa_negative.cpp: reads the same guarded member
// of the same probe struct, but under its mutex. This translation unit
// MUST compile cleanly with -Werror=thread-safety. Together the pair
// proves the negative probe's failure is specific to the missing lock —
// not a broken include path, a C++ standard mismatch, or any other
// incidental build error that would make the negative check pass
// vacuously.
//
// This file is compiled by try_compile only; it is not part of any
// product or test target.
#include <cstddef>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

/// The smallest shape of guarded cross-thread state: one counter behind
/// one annotated mutex (the log sink's pattern).
struct TsaProbeCounter {
  dreamsim::util::Mutex mu;
  std::size_t value GUARDED_BY(mu) = 0;
};

std::size_t ProbeEntry(TsaProbeCounter& counter) {
  const dreamsim::util::MutexLock lock(counter.mu);
  return counter.value;
}
