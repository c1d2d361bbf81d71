#include "loadgen.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace snsbench {

namespace {

constexpr std::size_t kRecvBatch = 32;
constexpr std::size_t kRecvBuffer = 2048;  // EDNS 1232 answers fit
constexpr auto kTimeout = std::chrono::seconds(2);
// A datagram unanswered this long is sent again, as a stub resolver
// would; loopback drops only happen when a stalled shard's receive
// buffer overflows.
constexpr auto kRetransmit = std::chrono::milliseconds(250);
constexpr int kMaxRetries = 3;

void set_nonblocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK); }

}  // namespace

void PhaseStats::add_counts(const PhaseStats& other) {
  seconds = std::max(seconds, other.seconds);
  attempted += other.attempted;
  completed += other.completed;
  wrong += other.wrong;
  timeouts += other.timeouts;
  tcp_retries += other.tcp_retries;
  retransmits += other.retransmits;
  cpu_ns += other.cpu_ns;
}

void PhaseStats::merge(PhaseStats&& other) {
  add_counts(other);
  auto append = [](std::vector<double>& to, std::vector<double>& from) {
    if (to.empty()) {
      to = std::move(from);
    } else {
      to.insert(to.end(), from.begin(), from.end());
      from = {};
    }
  };
  append(latency_us, other.latency_us);
  append(done_s, other.done_s);
  append(late_us, other.late_us);
}

int open_udp(const sns::transport::Endpoint& server) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("udp socket: " + std::string(std::strerror(errno)));
  int size = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  sockaddr_in sa{};
  server.to_sockaddr(sa);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0)
    die("udp connect: " + std::string(std::strerror(errno)));
  set_nonblocking(fd);
  return fd;
}

Pipeline::Pipeline(const sns::transport::Endpoint& server, const Templates& templates,
                   Checker& checker, std::size_t sequence_offset, bool tcp_retry)
    : server_(server),
      templates_(templates),
      checker_(checker),
      offset_(sequence_offset),
      cursor_(sequence_offset),
      tcp_retry_(tcp_retry),
      slots_(kMaxSlots) {}

Pipeline::~Pipeline() {
  for (int fd : udp_) ::close(fd);
  if (tcp_ >= 0) ::close(tcp_);
}

std::uint32_t Pipeline::next_template() {
  const auto& seq = templates_.sequence;
  return seq[cursor_++ % seq.size()];
}

bool Pipeline::ensure_tcp() {
  if (tcp_ >= 0) return true;
  tcp_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (tcp_ < 0) return false;
  sockaddr_in sa{};
  server_.to_sockaddr(sa);
  if (::connect(tcp_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) return false;
  int one = 1;
  ::setsockopt(tcp_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_nonblocking(tcp_);
  return true;
}

void Pipeline::issue(std::size_t s, int sock, Clock::time_point due) {
  Slot& slot = slots_[s];
  slot.tmpl = next_template();
  slot.gen = static_cast<std::uint8_t>((slot.gen + 1) & 0x3f);
  slot.id = static_cast<std::uint16_t>((slot.gen << 10) | s);
  slot.wire = templates_.wires[slot.tmpl];
  slot.wire[0] = static_cast<std::uint8_t>(slot.id >> 8);
  slot.wire[1] = static_cast<std::uint8_t>(slot.id & 0xff);
  slot.due = due;
  slot.sock = sock;
  slot.active = true;
  slot.tcp = false;
  slot.retries = 0;
  pending_[static_cast<std::size_t>(sock)].push_back(s);
  ++outstanding_[static_cast<std::size_t>(sock)];
}

bool Pipeline::flush_udp() {
  for (std::size_t sock = 0; sock < udp_.size(); ++sock) {
    auto& owed = pending_[sock];
    std::size_t done = 0;
    while (done < owed.size()) {
      mmsghdr msgs[kRecvBatch];
      iovec iovs[kRecvBatch];
      std::size_t n = std::min(owed.size() - done, kRecvBatch);
      for (std::size_t i = 0; i < n; ++i) {
        Slot& slot = slots_[owed[done + i]];
        iovs[i] = {slot.wire.data(), slot.wire.size()};
        msgs[i] = {};
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      int sent = ::sendmmsg(udp_[sock], msgs, static_cast<unsigned>(n), 0);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // retried on the next flush
        return false;
      }
      auto now = Clock::now();
      for (int i = 0; i < sent; ++i) {
        Slot& slot = slots_[owed[done + static_cast<std::size_t>(i)]];
        if (slot.retries == 0) slot.sent = now;
      }
      done += static_cast<std::size_t>(sent);
    }
    owed.erase(owed.begin(), owed.begin() + static_cast<std::ptrdiff_t>(done));
  }
  return true;
}

void Pipeline::send_tcp(std::size_t s) {
  const auto& wire = slots_[s].wire;
  tcp_out_.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
  tcp_out_.push_back(static_cast<std::uint8_t>(wire.size() & 0xff));
  tcp_out_.insert(tcp_out_.end(), wire.begin(), wire.end());
}

void Pipeline::finish(std::size_t s, PhaseStats& stats) {
  Slot& slot = slots_[s];
  slot.active = false;
  --outstanding_[static_cast<std::size_t>(slot.sock)];
  // Closed loop: the completion frees the window slot for the next
  // request on the same socket.
  if (issuing_ && !open_mode_) {
    issue(s, slot.sock, Clock::now());
    ++stats.attempted;
  } else {
    free_.push_back(s);
  }
}

void Pipeline::on_reply(std::span<const std::uint8_t> reply, bool via_tcp, PhaseStats& stats,
                        Clock::time_point deadline) {
  if (reply.size() < 12) return;
  auto id = static_cast<std::uint16_t>((reply[0] << 8) | reply[1]);
  std::size_t s = id & 0x3ff;
  if (s >= slots_.size()) return;
  Slot& slot = slots_[s];
  if (!slot.active || slot.id != id || slot.tcp != via_tcp) return;  // stale duplicate
  if (!via_tcp && tcp_retry_ && (reply[2] & 0x02) != 0) {
    // TC=1: the same question again over the TCP connection.
    if (!ensure_tcp()) {
      ++stats.timeouts;
      finish(s, stats);
      return;
    }
    slot.tcp = true;
    ++stats.tcp_retries;
    send_tcp(s);
    return;
  }
  auto now = Clock::now();
  if (!checker_.quick_check(slot.tmpl, reply))
    to_check_.emplace_back(slot.tmpl, sns::util::Bytes(reply.begin(), reply.end()));
  stats.latency_us.push_back(us_between(open_mode_ ? slot.due : slot.sent, now));
  stats.done_s.push_back(us_between(phase_start_, now) / 1e6);
  if (now <= deadline) {
    ++stats.completed;
    completions_.fetch_add(1, std::memory_order_relaxed);
  }
  finish(s, stats);
}

void Pipeline::drain_checks(PhaseStats& stats, const Clock::time_point* until) {
  while (checked_ < to_check_.size()) {
    auto& [tmpl, reply] = to_check_[checked_];
    // Start a check only when it fits the slack (decode costs roughly
    // 40 ns per reply byte).
    if (until != nullptr &&
        Clock::now() + std::chrono::nanoseconds(40 * reply.size()) > *until)
      break;
    ++checked_;
    if (!checker_.check(tmpl, reply)) ++stats.wrong;
    reply = {};
  }
  if (checked_ == to_check_.size()) {
    to_check_.clear();
    checked_ = 0;
  }
}

void Pipeline::expire(PhaseStats& stats, Clock::time_point now) {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.active) continue;
    auto& owed = pending_[static_cast<std::size_t>(slot.sock)];
    if (std::find(owed.begin(), owed.end(), s) != owed.end()) continue;  // not sent yet
    auto since = now - slot.sent;
    if (since > kTimeout) {
      ++stats.timeouts;
      finish(s, stats);
    } else if (!slot.tcp && since > kRetransmit * (slot.retries + 1) &&
               slot.retries < kMaxRetries) {
      ++slot.retries;
      ++stats.retransmits;
      owed.push_back(s);
    }
  }
}

bool Pipeline::pump(int timeout_us, PhaseStats& stats, Clock::time_point deadline) {
  if (!flush_udp()) return false;
  if (tcp_ >= 0 && tcp_out_sent_ < tcp_out_.size()) {
    ssize_t n = ::send(tcp_, tcp_out_.data() + tcp_out_sent_, tcp_out_.size() - tcp_out_sent_,
                       MSG_NOSIGNAL);
    if (n > 0) tcp_out_sent_ += static_cast<std::size_t>(n);
    if (tcp_out_sent_ == tcp_out_.size()) {
      tcp_out_.clear();
      tcp_out_sent_ = 0;
    }
  }

  std::vector<pollfd> fds;
  fds.reserve(udp_.size() + 1);
  for (int fd : udp_) fds.push_back({fd, POLLIN, 0});
  if (tcp_ >= 0)
    fds.push_back({tcp_, static_cast<short>(POLLIN | (tcp_out_.empty() ? 0 : POLLOUT)), 0});
  timespec ts{0, static_cast<long>(std::max(timeout_us, 0)) * 1000};
  int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  if (ready == 0) return true;

  static thread_local std::vector<std::uint8_t> bufs(kRecvBatch * kRecvBuffer);
  for (std::size_t sock = 0; sock < udp_.size(); ++sock) {
    if ((fds[sock].revents & POLLIN) == 0) continue;
    for (;;) {
      mmsghdr msgs[kRecvBatch];
      iovec iovs[kRecvBatch];
      for (std::size_t i = 0; i < kRecvBatch; ++i) {
        iovs[i] = {bufs.data() + i * kRecvBuffer, kRecvBuffer};
        msgs[i] = {};
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      int n = ::recvmmsg(udp_[sock], msgs, kRecvBatch, MSG_DONTWAIT, nullptr);
      if (n <= 0) break;
      for (int i = 0; i < n; ++i)
        on_reply(std::span<const std::uint8_t>(bufs.data() + static_cast<std::size_t>(i) *
                                                                 kRecvBuffer,
                                               msgs[i].msg_len),
                 false, stats, deadline);
      if (static_cast<std::size_t>(n) < kRecvBatch) break;
    }
  }
  if (tcp_ >= 0 && (fds.back().revents & POLLIN) != 0) {
    std::uint8_t chunk[65536];
    for (;;) {
      ssize_t n = ::recv(tcp_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n <= 0) break;
      tcp_in_.insert(tcp_in_.end(), chunk, chunk + n);
    }
    std::size_t at = 0;
    while (tcp_in_.size() - at >= 2) {
      std::size_t len = (static_cast<std::size_t>(tcp_in_[at]) << 8) | tcp_in_[at + 1];
      if (tcp_in_.size() - at - 2 < len) break;
      on_reply(std::span<const std::uint8_t>(tcp_in_.data() + at + 2, len), true, stats,
               deadline);
      at += 2 + len;
    }
    tcp_in_.erase(tcp_in_.begin(), tcp_in_.begin() + static_cast<std::ptrdiff_t>(at));
  }
  return true;
}

PhaseStats Pipeline::run_closed(std::size_t window_per_socket, double seconds) {
  return run(false, window_per_socket, 0.0, seconds);
}

PhaseStats Pipeline::run_open(double rate, double seconds) {
  return run(true, 0, rate, seconds);
}

PhaseStats Pipeline::run(bool open, std::size_t window, double rate, double seconds) {
  PhaseStats stats;
  cursor_ = offset_;
  open_mode_ = open;
  pending_.assign(udp_.size(), {});
  outstanding_.assign(udp_.size(), 0);
  free_.clear();
  for (std::size_t s = kMaxSlots; s-- > 0;) free_.push_back(s);
  for (auto& slot : slots_) slot.active = false;
  // Reserved up front: growing a multi-megabyte sample vector copies it
  // into freshly faulted pages, a millisecond-scale generator stall.
  // Reserved but unwritten pages cost nothing.
  const auto expected = static_cast<std::size_t>(seconds * (open ? rate * 1.2 : 600'000.0)) + 1024;
  stats.latency_us.reserve(expected);
  stats.done_s.reserve(expected);
  if (open) stats.late_us.reserve(expected);

  const std::uint64_t cpu0 = thread_cpu_ns();
  const auto t0 = Clock::now();
  phase_start_ = t0;
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  issuing_ = true;
  if (!open) {
    for (std::size_t sock = 0; sock < udp_.size(); ++sock)
      for (std::size_t w = 0; w < window && !free_.empty(); ++w) {
        std::size_t s = free_.back();
        free_.pop_back();
        issue(s, static_cast<int>(sock), t0);
        ++stats.attempted;
      }
  }
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(open ? 1.0 / rate : 1.0));
  auto next_due = t0;
  std::size_t rr = 0;
  auto last_expire = t0;
  for (;;) {
    auto now = Clock::now();
    if (issuing_ && now >= deadline) issuing_ = false;
    if (!issuing_) {
      std::size_t in_flight = 0;
      for (auto n : outstanding_) in_flight += n;
      if (in_flight == 0) break;
      if (now - deadline > kTimeout + std::chrono::milliseconds(100)) {
        expire(stats, now + kTimeout);  // whatever is left has timed out
        break;
      }
    }
    if (open && issuing_) {
      while (next_due <= now && next_due < deadline && !free_.empty()) {
        std::size_t s = free_.back();
        free_.pop_back();
        int sock = static_cast<int>(rr++ % udp_.size());
        issue(s, sock, next_due);
        ++stats.attempted;
        next_due += interval;
      }
      if (next_due >= deadline) issuing_ = false;
    }
    if (now - last_expire > std::chrono::milliseconds(20)) {
      expire(stats, now);
      last_expire = now;
    }
    // Open loop: sleep until the next request is due, spinning when it
    // is closer than the kernel's wake-up slack.
    int wait_us = 20'000;
    if (open && issuing_) {
      // Check answers in the slack before the next request is due.
      auto slack_end = next_due - std::chrono::microseconds(30);
      drain_checks(stats, &slack_end);
      now = Clock::now();
      auto until = std::chrono::duration_cast<std::chrono::microseconds>(next_due - now).count();
      wait_us = until > 100 ? static_cast<int>(until - 60) : 0;
    } else {
      drain_checks(stats, nullptr);
    }
    // Lateness: an open-loop request's send time minus its due time,
    // stamped as the flush inside pump() hands it to the kernel.
    std::vector<std::size_t> just_sent;
    if (open)
      for (auto& owed : pending_)
        for (std::size_t s : owed)
          if (slots_[s].retries == 0) just_sent.push_back(s);
    if (!pump(wait_us, stats, deadline)) die("generator socket error");
    for (std::size_t s : just_sent) stats.late_us.push_back(us_between(slots_[s].due, slots_[s].sent));
  }
  drain_checks(stats, nullptr);
  stats.seconds = seconds;
  stats.cpu_ns = thread_cpu_ns() - cpu0;
  return stats;
}

}  // namespace snsbench
