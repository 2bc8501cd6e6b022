// Source pacing for fault tests that also run under ThreadSanitizer.
//
// The fault tests inject a crash, stall or wedge after an operator has
// processed N tuples, and their supervisor takes its baseline
// checkpoint right after the engine starts. TSan slows thread start-up
// and the checkpoint's quiesce several-fold while a paced source keeps
// its wall-clock rate, so at full rate the fault can fire before the
// baseline exists and Supervisor::Start() is refused. Tests wrap their
// source rate in SanitizerPacedRate(); normal builds keep it unchanged.
#pragma once

namespace brisk {

#if defined(__SANITIZE_THREAD__)
#define BRISK_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BRISK_TEST_UNDER_TSAN 1
#endif
#endif

#ifdef BRISK_TEST_UNDER_TSAN
inline constexpr double kSanitizerSlowdown = 10.0;
#else
inline constexpr double kSanitizerSlowdown = 1.0;
#endif

/// `tuples_per_sec` for the current build: ÷kSanitizerSlowdown under
/// TSan, unchanged otherwise.
constexpr double SanitizerPacedRate(double tuples_per_sec) {
  return tuples_per_sec / kSanitizerSlowdown;
}

}  // namespace brisk
