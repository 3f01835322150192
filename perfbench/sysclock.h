// Clocks and process gauges the benchmark samples around its windows.
#pragma once

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (same epoch as steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// CPU-time clock of the calling thread, readable from any thread while the
/// calling thread lives.
inline clockid_t this_thread_cpu_clock() {
  clockid_t id{};
  pthread_getcpuclockid(pthread_self(), &id);
  return id;
}

inline std::int64_t cpu_clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// User + system CPU of the whole process, from getrusage.
inline std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return std::int64_t{tv.tv_sec} * 1'000'000'000 + std::int64_t{tv.tv_usec} * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// Resident set size of the process now, from /proc/self/statm.
inline double resident_mb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return double(pages) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
