// common.hpp — clocks, CPU accounting, affinity, statistics and the
// run-record/metric output shared by every part of the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace snsbench {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& what);

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(std::chrono::nanoseconds(b - a).count());
}

/// CPU clocks: this thread, another thread (pthread_getcpuclockid), the
/// whole process. Nanoseconds.
std::uint64_t thread_cpu_ns();
std::uint64_t process_cpu_ns();
std::uint64_t thread_cpu_ns_of(std::thread& thread);

/// Peak resident set of this process (getrusage), MB.
double peak_rss_mb();

/// Pin the calling thread to `cpus` (no-op when empty). Threads started
/// afterwards inherit the mask.
void pin_to(const std::vector<int>& cpus);
std::string cpu_list(const std::vector<int>& cpus);

/// Exact quantile of a sample (linear interpolation between order
/// statistics); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// One fleet-wide counter/histogram read through ServerRuntime::
/// merge_metrics, and one counter per shard read from metrics_json().
std::uint64_t counter_of(const sns::runtime::ServerRuntime& rt, const std::string& name);
std::vector<std::uint64_t> shard_counters(const sns::runtime::ServerRuntime& rt,
                                          const std::string& name);

/// A reported metric: value, unit, and (per-layer metrics) which
/// end-to-end metric it should move on which workload.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string moves;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace snsbench
