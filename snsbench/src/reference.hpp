// reference.hpp — the host-speed reference.
//
// The benchmark shares a few vCPUs of a host whose speed drifts by
// ±20% over minutes (neighbour load on shared cores and caches), far
// more than a regression bound. A fixed loop, unrelated to the program,
// is timed on the server CPUs between measurement windows: one thread
// per CPU sends and receives batches of 48-byte datagrams over a
// loopback UDP socket connected to itself and hashes each into a 16 MB
// table. That is the same mix of kernel UDP path and cache-missing
// lookups the servers run, so its rate moves with the host the way
// theirs does, while no change to the program can move it.
#pragma once

#include <cstdint>
#include <vector>

namespace snsbench {

class Reference {
 public:
  /// Reference operations per second that define the nominal host:
  /// about the loop's typical rate on the two server CPUs of the 4-vCPU
  /// Xeon (Sapphire Rapids, KVM) the benchmark was tuned on. It only
  /// sets the scale; comparisons need it fixed, not exact.
  static constexpr double kNominalRate = 450'000.0;

  explicit Reference(std::vector<int> cpus);

  /// Run the loop on every CPU at once for `seconds`; operations per
  /// second summed over the CPUs.
  double measure(double seconds);

  /// Host speed relative to nominal (> 1: faster than nominal).
  static double speed(double rate) { return rate / kNominalRate; }

 private:
  std::vector<int> cpus_;
  std::vector<std::uint32_t> table_;
};

}  // namespace snsbench
