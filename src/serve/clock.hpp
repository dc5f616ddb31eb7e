// Monotonic nanosecond clock for the serving layer.
//
// Every serve/ component that reasons about time does so over plain
// std::int64_t steady-clock nanoseconds rather than chrono time_points:
// the admission batcher becomes a pure state machine over integers (so the
// unit tests drive it in exact virtual time), and producer-side arrival
// stamps are trivially comparable across threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace tb::serve {

// Sentinel for "no deadline": a query without one, and
// AdmissionBatcher::urgency_ns of an empty batcher.
inline constexpr std::int64_t kNoDeadline = INT64_MAX;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sleeps until steady-clock nanosecond `deadline_ns`: a coarse sleep that
// deliberately undershoots, then a yield tail, so open-loop load generators
// hit their scheduled arrival times without multi-millisecond OS-timer
// overshoot distorting the offered rate.
inline void sleep_until_ns(std::int64_t deadline_ns) {
  for (;;) {
    const std::int64_t left = deadline_ns - now_ns();
    if (left <= 0) return;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace tb::serve
