#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <numeric>
#include <thread>

#include "obs/metrics.hpp"

namespace snsbench {

void die(const std::string& what) {
  std::fprintf(stderr, "snsbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

namespace {

std::uint64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t thread_cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t thread_cpu_ns_of(std::thread& thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread.native_handle(), &id) != 0) return 0;
  return read_clock(id);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) out += (out.empty() ? "" : ",") + std::to_string(cpu);
  return out.empty() ? "any" : out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t counter_of(const sns::runtime::ServerRuntime& rt, const std::string& name) {
  sns::obs::MetricsRegistry totals;
  rt.merge_metrics(totals);
  return totals.counter_value(name).value_or(0);
}

std::vector<std::uint64_t> shard_counters(const sns::runtime::ServerRuntime& rt,
                                          const std::string& name) {
  // metrics_json(): {"workers":N,...,"shards":[{"worker":0,"counters":
  // {"name":value,...},...},...]} — written by obs::JsonWriter without
  // whitespace, so a plain scan per shard object is exact.
  const std::string json = rt.metrics_json();
  std::vector<std::uint64_t> out;
  std::size_t at = json.find("\"shards\":[");
  const std::string key = "\"" + name + "\":";
  while (at != std::string::npos) {
    std::size_t shard = json.find("{\"worker\":", at);
    if (shard == std::string::npos) break;
    std::size_t next = json.find("{\"worker\":", shard + 1);
    std::size_t hit = json.find(key, shard);
    std::uint64_t value = 0;
    if (hit != std::string::npos && (next == std::string::npos || hit < next))
      value = std::strtoull(json.c_str() + hit + key.size(), nullptr, 10);
    out.push_back(value);
    at = next;
  }
  return out;
}

}  // namespace snsbench
