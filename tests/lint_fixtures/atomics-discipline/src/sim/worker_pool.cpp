// Positive: the sim kernel has no concurrency exemption either.
#include <atomic>  // expect: atomics-discipline

std::atomic<unsigned> next_{0};  // expect: atomics-discipline
