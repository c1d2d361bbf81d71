// loadgen.hpp — the pipelined DNS load generator.
//
// One Pipeline is owned by one generator thread. It keeps requests in
// flight over a few connected UDP sockets (and, when asked, one TCP
// connection that retries every TC=1 answer, RFC 7766 §5), checks every
// answer through a Checker, and runs either
//
//   closed loop  a fixed window of outstanding requests per socket; the
//                next request leaves only when one completes, so the
//                completion rate is the server's saturation throughput;
//   open loop    requests due on a fixed schedule whether or not earlier
//                ones returned; latency is timed from each request's due
//                time, so a stall also charges the requests queued
//                behind it, and lateness (send - due) is recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common.hpp"
#include "transport/socket.hpp"
#include "util/bytes.hpp"

namespace snsbench {

/// Query wires (transaction id 0) plus the order requests are issued in.
struct Templates {
  std::vector<sns::util::Bytes> wires;
  std::vector<std::uint32_t> sequence;
};

class Checker {
 public:
  virtual ~Checker() = default;
  /// True when `reply` is a correct answer to template `tmpl`.
  virtual bool check(std::uint32_t tmpl, std::span<const std::uint8_t> reply) = 0;
  /// A cheap check the generator runs inline; false means "not proven
  /// yet", and the reply is queued for check() in the generator's slack.
  virtual bool quick_check(std::uint32_t, std::span<const std::uint8_t>) { return false; }
};

struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;            // completions inside the timed window
  std::uint64_t wrong = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t tcp_retries = 0;
  std::uint64_t retransmits = 0;
  std::vector<double> latency_us;         // every completed request
  std::vector<double> done_s;             // its completion time, seconds into the phase
  std::vector<double> late_us;            // open loop: send time - due time
  std::uint64_t cpu_ns = 0;               // generator thread CPU over the phase

  /// Fold in another thread's stats (its samples are moved).
  void merge(PhaseStats&& other);
  /// Fold in only the counts (the all-phases total keeps no samples).
  void add_counts(const PhaseStats& other);
  [[nodiscard]] std::uint64_t failed() const { return wrong + timeouts; }
};

/// A connected, non-blocking UDP socket to `server` (fresh ephemeral port).
int open_udp(const sns::transport::Endpoint& server);

class Pipeline {
 public:
  Pipeline(const sns::transport::Endpoint& server, const Templates& templates,
           Checker& checker, std::size_t sequence_offset, bool tcp_retry);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Takes ownership of a socket from open_udp().
  void add_socket(int fd) { udp_.push_back(fd); }

  /// Completions inside the current phase's timed window so far;
  /// readable from another thread while the phase runs.
  [[nodiscard]] std::uint64_t completions() const {
    return completions_.load(std::memory_order_relaxed);
  }
  /// Zero the count before a phase's threads start, so a sample taken
  /// as they start never reads the previous phase's count.
  void reset_completions() { completions_.store(0, std::memory_order_relaxed); }

  PhaseStats run_closed(std::size_t window_per_socket, double seconds);
  PhaseStats run_open(double rate, double seconds);

 private:
  struct Slot {
    std::uint32_t tmpl = 0;
    Clock::time_point due;
    Clock::time_point sent;
    std::uint16_t id = 0;
    std::uint8_t gen = 0;
    std::uint8_t retries = 0;
    int sock = 0;  // index into udp_
    bool active = false;
    bool tcp = false;
    sns::util::Bytes wire;
  };
  static constexpr std::size_t kMaxSlots = 1024;

  PhaseStats run(bool open, std::size_t window, double rate, double seconds);
  std::uint32_t next_template();
  void issue(std::size_t slot, int sock, Clock::time_point due);
  bool flush_udp();
  void send_tcp(std::size_t slot);
  bool pump(int timeout_us, PhaseStats& stats, Clock::time_point deadline);
  void on_reply(std::span<const std::uint8_t> reply, bool via_tcp, PhaseStats& stats,
                Clock::time_point deadline);
  void finish(std::size_t slot, PhaseStats& stats);
  /// Check deferred replies until `until` (all of them when null).
  void drain_checks(PhaseStats& stats, const Clock::time_point* until);
  void expire(PhaseStats& stats, Clock::time_point now);
  bool ensure_tcp();

  sns::transport::Endpoint server_;
  const Templates& templates_;
  Checker& checker_;
  std::size_t offset_;  // every phase starts here, so a phase's requests are fixed
  std::size_t cursor_;
  bool tcp_retry_;
  std::vector<int> udp_;
  int tcp_ = -1;
  sns::util::Bytes tcp_out_;
  std::size_t tcp_out_sent_ = 0;
  sns::util::Bytes tcp_in_;
  std::vector<Slot> slots_;
  // Replies waiting for their answer check: checking can take longer
  // than the gap between due times, so it runs in the generator's slack.
  std::vector<std::pair<std::uint32_t, sns::util::Bytes>> to_check_;
  std::size_t checked_ = 0;
  std::vector<std::size_t> free_;
  std::vector<std::vector<std::size_t>> pending_;  // per socket: slots owing a send
  std::vector<std::size_t> outstanding_;           // per socket
  std::atomic<std::uint64_t> completions_{0};
  Clock::time_point phase_start_;
  bool open_mode_ = false;
  bool issuing_ = false;
};

}  // namespace snsbench
