#include "reference.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common.hpp"

namespace snsbench {

namespace {

constexpr std::size_t kTableSize = std::size_t{4} << 20;  // 16 MB of uint32
constexpr unsigned kBatch = 16;
constexpr std::size_t kDatagram = 48;
constexpr int kLookups = 8;

/// One CPU's loop: operations (datagrams through the socket and the
/// table) completed in `seconds`.
std::uint64_t run_loop(const std::vector<std::uint32_t>& table, double seconds) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("reference socket: " + std::string(std::strerror(errno)));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(sa);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0)
    die("reference socket: " + std::string(std::strerror(errno)));

  std::array<std::array<std::uint8_t, kDatagram>, kBatch> out{};
  std::array<std::array<std::uint8_t, 64>, kBatch> in{};
  std::array<mmsghdr, kBatch> send_msgs{}, recv_msgs{};
  std::array<iovec, kBatch> send_iov{}, recv_iov{};
  for (unsigned i = 0; i < kBatch; ++i) {
    send_iov[i] = {out[i].data(), out[i].size()};
    send_msgs[i].msg_hdr.msg_iov = &send_iov[i];
    send_msgs[i].msg_hdr.msg_iovlen = 1;
    recv_iov[i] = {in[i].data(), in[i].size()};
    recv_msgs[i].msg_hdr.msg_iov = &recv_iov[i];
    recv_msgs[i].msg_hdr.msg_iovlen = 1;
  }

  std::uint64_t ops = 0;
  std::uint32_t at = 1;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    for (unsigned i = 0; i < kBatch; ++i) out[i][0] = static_cast<std::uint8_t>(ops + i);
    if (::sendmmsg(fd, send_msgs.data(), kBatch, 0) < 0) die("reference sendmmsg");
    int got = ::recvmmsg(fd, recv_msgs.data(), kBatch, MSG_DONTWAIT, nullptr);
    for (int i = 0; i < got; ++i) {
      std::uint32_t h = 2166136261u;  // FNV-1a over the datagram
      for (std::uint8_t byte : in[static_cast<std::size_t>(i)]) h = (h ^ byte) * 16777619u;
      at ^= h;
      for (int k = 0; k < kLookups; ++k) at = table[(at + static_cast<std::uint32_t>(k)) % kTableSize];
    }
    ops += static_cast<std::uint64_t>(got > 0 ? got : 0);
  }
  ::close(fd);
  // `at` feeds the count so the lookups cannot be optimised away; it is
  // never equal to the sentinel (table entries are < kTableSize).
  return ops + (at == 0xffffffffu ? 1 : 0);
}

}  // namespace

Reference::Reference(std::vector<int> cpus) : cpus_(std::move(cpus)), table_(kTableSize) {
  for (std::size_t i = 0; i < table_.size(); ++i)
    table_[i] = static_cast<std::uint32_t>(((i * 2654435761u) ^ (i >> 7)) % kTableSize);
}

double Reference::measure(double seconds) {
  const std::size_t n = cpus_.empty() ? 1 : cpus_.size();
  std::vector<std::uint64_t> ops(n, 0);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < n; ++k)
    threads.emplace_back([&, k] {
      if (!cpus_.empty()) pin_to({cpus_[k]});
      ops[k] = run_loop(table_, seconds);
    });
  for (auto& t : threads) t.join();
  double total = 0.0;
  for (auto v : ops) total += static_cast<double>(v);
  return total / seconds;
}

}  // namespace snsbench
