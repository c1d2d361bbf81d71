// snsbench — one serving benchmark for the SNS stack.
//
// usage: snsbench --workload lookup|area_churn|fabric --seed N --seconds S
//                 --trace 0|1 [--smoke] [--out DIR] [--source ID]
//
// One process serves generated .loc data from live runtime::
// ServerRuntimes over loopback and drives the load from its own
// generator threads, pinned to CPUs disjoint from the server's. With
// --trace 0 it measures the end-to-end metrics; with --trace 1 it runs
// a shorter untraced load (for CPU per query and the runtime's own
// counters) and then replays the workload's requests through each
// layer's public functions with spans (layers.cpp). Every answer is
// checked; a wrong one makes the run exit non-zero. The last line of
// stdout is the result JSON.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "federation/resolver.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "obs/json.hpp"
#include "reference.hpp"
#include "scenario.hpp"
#include "transport/client.hpp"

using namespace snsbench;
using namespace sns;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/out";
  std::string source = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() != "0";
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--out") o.out_dir = value();
    else if (arg == "--source") o.source = value();
    else die("unknown argument " + arg);
  }
  if (o.workload.empty()) die("--workload is required");
  return o;
}

/// Which shard a socket's datagrams land on: a probe burst, then the
/// per-shard transport.udp.queries deltas from metrics_json().
std::size_t shard_of(int fd, const Spec& spec, runtime::ServerRuntime& rt) {
  auto before = shard_counters(rt, "transport.udp.queries");
  constexpr int kBurst = 16;
  for (int k = 0; k < kBurst; ++k) {
    auto wire = spec.templates.wires[spec.templates.sequence[static_cast<std::size_t>(k)]];
    wire[0] = 0xff;
    wire[1] = static_cast<std::uint8_t>(k);
    (void)::send(fd, wire.data(), wire.size(), 0);
  }
  int got = 0;
  std::uint8_t buf[2048];
  while (got < kBurst) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 500) <= 0) break;
    while (::recv(fd, buf, sizeof(buf), MSG_DONTWAIT) > 0) ++got;
  }
  auto after = shard_counters(rt, "transport.udp.queries");
  std::size_t best = 0;
  std::uint64_t best_delta = 0;
  for (std::size_t s = 0; s < after.size() && s < before.size(); ++s)
    if (after[s] - before[s] > best_delta) {
      best_delta = after[s] - before[s];
      best = s;
    }
  return best;
}

/// Open the generator sockets so that no shard receives more than its
/// fair share: a socket that hashed onto a full shard is re-opened on a
/// fresh ephemeral port.
std::vector<int> balanced_sockets(const Spec& spec, runtime::ServerRuntime& rt, std::size_t count,
                                  std::size_t& reopened) {
  const std::size_t shards = rt.worker_count();
  const std::size_t cap = (count + shards - 1) / shards;
  std::vector<std::size_t> load(shards, 0);
  std::vector<int> fds;
  for (int attempt = 0; fds.size() < count; ++attempt) {
    if (attempt > 200) die("could not spread generator sockets over the shards");
    int fd = open_udp(rt.local());
    std::size_t shard = shard_of(fd, spec, rt);
    if (load[shard] >= cap) {
      ::close(fd);
      ++reopened;
      continue;
    }
    ++load[shard];
    fds.push_back(fd);
  }
  return fds;
}

/// The writer thread, running from start() until finish().
class Writer {
 public:
  Writer(const Spec& spec, Fabric& fabric, const std::vector<int>& gen_cpus)
      : spec_(spec), fabric_(fabric), gen_cpus_(gen_cpus) {}
  ~Writer() { finish(); }

  void start(double max_seconds) {
    stop_.store(false);
    thread_ = std::thread([this, max_seconds] {
      pin_to(gen_cpus_);
      run_writer(spec_, fabric_, first_, spec_.write_rate, max_seconds, stop_, measuring_, paused_,
                 stats_);
    });
  }
  void finish() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    first_ += stats_.attempted;
  }
  std::uint64_t cpu_ns() { return thread_.joinable() ? thread_cpu_ns_of(thread_) : 0; }
  /// Record update latencies only while set (area_churn: its fixed-rate
  /// read phase, so the load beside the writes is the same every run).
  void set_measuring(bool on) { measuring_.store(on, std::memory_order_release); }
  /// Skip the re-homings due while set (the reference runs alone).
  void set_paused(bool on) { paused_.store(on, std::memory_order_release); }
  WriterStats& stats() { return stats_; }

 private:
  const Spec& spec_;
  Fabric& fabric_;
  std::vector<int> gen_cpus_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> measuring_{true};
  std::atomic<bool> paused_{false};
  std::thread thread_;
  WriterStats stats_;
  std::size_t first_ = 0;
};

/// CPU clocks and completions, sampled while a phase runs.
struct Sample {
  std::uint64_t process = 0;
  std::uint64_t generators = 0;
  std::uint64_t writer = 0;
  std::uint64_t main = 0;
  std::uint64_t completions = 0;
};

/// Completions and server CPU over one timed window of a phase.
struct Window {
  double completions = 0.0;
  double server_cpu_ns = 0.0;
};

/// Drives the read side of a workload (pipelines or AR sessions).
class Readers {
 public:
  Readers(const Spec& spec, Fabric& fabric, const std::vector<int>& gen_cpus)
      : spec_(spec), fabric_(fabric), gen_cpus_(gen_cpus) {}

  void open() {
    if (spec_.workload == "fabric") return;
    std::size_t total = spec_.generator_threads * spec_.sockets_per_thread;
    auto fds = balanced_sockets(spec_, fabric_.reader(), total, reopened_);
    for (std::size_t t = 0; t < spec_.generator_threads; ++t) {
      if (spec_.workload == "lookup")
        checkers_.push_back(std::make_unique<ForwardChecker>(spec_));
      else
        checkers_.push_back(std::make_unique<AreaChecker>(spec_));
      std::size_t offset = t * spec_.templates.sequence.size() / spec_.generator_threads;
      pipes_.push_back(std::make_unique<Pipeline>(fabric_.reader().local(), spec_.templates,
                                                  *checkers_.back(), offset, spec_.tcp_retry));
      for (std::size_t k = 0; k < spec_.sockets_per_thread; ++k)
        pipes_.back()->add_socket(fds[t * spec_.sockets_per_thread + k]);
    }
  }

  void close() { pipes_.clear(); }

  std::size_t reopened() const { return reopened_; }

  /// Closed loop (open = false) or open loop at spec.open_rate. With
  /// `cpu`, the calling thread samples the CPU clocks and the completion
  /// count when the phase starts and when it is due to end, and stores
  /// the server's share: process CPU minus every generator, writer and
  /// main-thread CPU.
  PhaseStats run(bool open, double seconds, Writer* writer = nullptr, Window* cpu = nullptr) {
    const bool fabric = spec_.workload == "fabric";
    const std::size_t n = fabric ? 1 : pipes_.size();
    std::vector<PhaseStats> per(n);
    std::vector<std::thread> threads;
    session_completions_.store(0);
    for (auto& pipe : pipes_) pipe->reset_completions();
    const auto t0 = Clock::now();
    for (std::size_t t = 0; t < n; ++t)
      threads.emplace_back([&, t] {
        pin_to(gen_cpus_);
        if (fabric)
          per[t] = run_sessions(seconds);
        else
          per[t] = open ? pipes_[t]->run_open(spec_.open_rate / static_cast<double>(n), seconds)
                        : pipes_[t]->run_closed(spec_.window, seconds);
      });
    if (cpu != nullptr) {
      auto take = [&] {
        Sample sample;
        sample.process = process_cpu_ns();
        for (auto& th : threads) sample.generators += thread_cpu_ns_of(th);
        sample.writer = writer != nullptr ? writer->cpu_ns() : 0;
        sample.main = thread_cpu_ns();
        sample.completions = session_completions_.load();
        for (const auto& pipe : pipes_) sample.completions += pipe->completions();
        return sample;
      };
      const Sample a = take();
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds)));
      const Sample b = take();
      cpu->completions = static_cast<double>(b.completions - a.completions);
      cpu->server_cpu_ns = static_cast<double>(b.process - a.process) -
                           static_cast<double>(b.generators - a.generators) -
                           static_cast<double>(b.writer - a.writer) -
                           static_cast<double>(b.main - a.main);
    }
    for (auto& th : threads) th.join();
    PhaseStats total;
    for (auto& s : per) total.merge(std::move(s));
    return total;
  }

  // Fabric: one closed-loop resolver thread running AR sessions.
  PhaseStats run_sessions(double seconds) {
    PhaseStats stats;
    federation::ResolveOptions options;
    options.glue_port = fabric_.port;
    options.query.timeout = std::chrono::milliseconds(1000);
    const std::uint64_t cpu0 = thread_cpu_ns();
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      const Session& session = spec_.sessions[session_cursor_++ % spec_.sessions.size()];
      federation::IterativeClient client({fabric_.reader().local()}, options);
      for (std::size_t k = 0; k < session.names.size(); ++k) {
        const auto& [owner, txt] = spec_.fabric_names[session.names[k]];
        ++stats.attempted;
        auto s = Clock::now();
        auto answer = client.resolve(owner, dns::RRType::TXT);
        auto e = Clock::now();
        if (!answer.ok()) {
          ++stats.timeouts;
          continue;
        }
        stats.latency_us.push_back(us_between(s, e));
        stats.done_s.push_back(us_between(t0, e) / 1e6);
        if (e - t0 <= std::chrono::duration<double>(seconds)) {
          ++stats.completed;
          session_completions_.fetch_add(1, std::memory_order_relaxed);
        }
        const auto& r = answer.value().response;
        bool good = r.header.rcode == dns::Rcode::NoError && r.header.aa &&
                    r.answers.size() == 1 &&
                    r.answers[0].rdata == dns::Rdata(dns::TxtData{{txt}}) &&
                    (k != 0 || answer.value().referrals == 3);
        if (!good) ++stats.wrong;
      }
    }
    stats.seconds = seconds;
    stats.cpu_ns = thread_cpu_ns() - cpu0;
    return stats;
  }

 private:
  const Spec& spec_;
  Fabric& fabric_;
  std::vector<int> gen_cpus_;
  std::vector<std::unique_ptr<Checker>> checkers_;
  std::vector<std::unique_ptr<Pipeline>> pipes_;
  std::size_t reopened_ = 0;
  std::size_t session_cursor_ = 0;
  std::atomic<std::uint64_t> session_completions_{0};
};

/// Every shard of the read target has built its engine and (lookup)
/// cache hits are flowing.
bool warm(const Spec& spec, Fabric& fabric, std::uint64_t hits_before) {
  for (auto refreshes : shard_counters(fabric.reader(), "runtime.worker.snapshot_refresh"))
    if (refreshes < 1 && spec.workload != "fabric") return false;
  if (spec.workload == "lookup" &&
      counter_of(fabric.reader(), "runtime.answer_cache.hit") <= hits_before)
    return false;
  return true;
}

double median_of(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One measurement round's figures, as measured.
struct Round {
  double speed = 1.0;         // host speed: reference rate / nominal
  double qps = 0.0;           // closed-loop completions per second
  double cpu_ns_per_q = 0.0;  // server CPU per closed-loop completion
  double p50_us = 0.0;        // read latency: open loop (fabric: closed loop)
  double p99_us = 0.0;
};

/// Host speed now: the reference alone on the server CPUs, with the
/// writer (if any) paused and its last commit given time to finish.
double measure_speed(Reference& reference, Writer* writer) {
  constexpr double kReferenceSeconds = 0.1;
  if (writer != nullptr) {
    writer->set_paused(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double speed = Reference::speed(reference.measure(kReferenceSeconds));
  if (writer != nullptr) writer->set_paused(false);
  return speed;
}

/// Median over the rounds of `field`, each round's value first scaled
/// to the nominal host: multiplied by its speed (`power` 1, times) or
/// divided by it (`power` -1, rates); `power` 0 leaves it as measured.
double scaled_median(const std::vector<Round>& rounds, double Round::*field, int power) {
  std::vector<double> values;
  for (const auto& r : rounds) values.push_back(r.*field * std::pow(r.speed, power));
  return median_of(std::move(values));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> server_cpus, gen_cpus;
  if (nproc >= 2)
    for (unsigned c = 0; c < nproc; ++c) (c < nproc / 2 ? server_cpus : gen_cpus).push_back(static_cast<int>(c));

  std::fprintf(stderr, "snsbench: generating %s (seed %llu)\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed));
  Spec spec = make_spec(opt.workload, opt.seed, opt.smoke);
  const double S = opt.seconds;

  // Server threads inherit the launching thread's affinity.
  pin_to(server_cpus);
  // Every timed figure is scaled to the nominal host by the host speed
  // measured next to it (see reference.hpp); the run record keeps the
  // figures as measured.
  Reference reference(server_cpus);
  // Set-up is repeated (at least 3 times, and until the repetitions add
  // up to 2 s for small fabrics); each is scaled by the host speed taken
  // right after it, and the median is reported.
  std::vector<double> setups, setup_speeds, setups_scaled;
  std::unique_ptr<Fabric> fabric;
  double setup_total = 0.0;
  while (setups.size() < (opt.trace ? 1u : 3u) ||
         (!opt.trace && setup_total < 2.0 && setups.size() < 15)) {
    fabric.reset();
    malloc_trim(0);  // hand the previous bring-up's memory back first
    auto records = spec.records;  // the generated records, handed over below
    auto t0 = Clock::now();
    fabric = bring_up(spec, std::move(records));
    setups.push_back(seconds_since(t0));
    setup_total += setups.back();
    setup_speeds.push_back(measure_speed(reference, nullptr));
    setups_scaled.push_back(setups.back() * setup_speeds.back());
  }
  const double setup_s = median_of(setups_scaled);
  // Peak resident set through set-up: the served data at its largest.
  // The load generator's own sample buffers come later and are left out.
  const double setup_peak_rss_mb = peak_rss_mb();
  const std::uint64_t axfr_after_setup = counter_of(*fabric->edge_runtime, "federation.refresh.axfr");

  Readers readers(spec, *fabric, gen_cpus);
  readers.open();
  Writer writer(spec, *fabric, gen_cpus);

  // Warm-up: untimed closed loop until every shard has built its engine
  // and the answer cache is hitting.
  std::uint64_t hits0 = counter_of(fabric->reader(), "runtime.answer_cache.hit");
  PhaseStats warmup;
  for (int round = 0;; ++round) {
    warmup.add_counts(readers.run(false, opt.smoke ? 0.2 : 0.5));
    if (warm(spec, *fabric, hits0)) break;
    if (round >= 5) die("warm-up: shards never built their engines or cache hits never flowed");
  }

  // Measurement rounds. Each round runs a closed-loop window (qps and
  // server CPU per read), times the host-speed reference on the server
  // CPUs, then runs an open-loop window at the workload's fixed rate
  // (read latency from due time; fabric has no open loop and takes its
  // latency from the closed loop). Interleaving spreads every metric
  // over the whole run, and every round knows the host speed it ran at.
  // lookup's writes run after its reads, so the reads stay read-only.
  const double scale = opt.trace ? 0.4 : 1.0;
  const bool closed_only = spec.workload == "fabric";
  constexpr double kRoundSeconds = 1.0;  // read windows per round; the reference adds ~0.11 s
  const double read_share = spec.writes_during_reads ? 1.0 : 0.6;
  const int rounds = std::max(2, static_cast<int>(std::lround(read_share * S * scale / kRoundSeconds)));
  const double sat_s = kRoundSeconds / (closed_only ? 1.0 : 2.0);
  const double open_s = closed_only ? 0.0 : sat_s;
  const double write_s = spec.writes_during_reads ? 0.0 : std::max(1.0, 0.25 * S * scale);

  if (spec.writes_during_reads) {
    writer.set_measuring(closed_only);
    writer.start(rounds * 2.0 * kRoundSeconds + 10.0);
  }
  std::vector<Round> measured;
  // Host speeds for the write metrics: every round's, plus (lookup) the
  // two around its write phase; those two alone scattered by ±9%.
  std::vector<double> write_speeds;
  std::vector<double> late_us;       // open-loop lateness over every round
  PhaseStats reads;                  // counts over every phase
  reads.add_counts(warmup);
  std::uint64_t writes_in_sat = 0, sat_completed = 0, gen_cpu_ns = 0;
  std::size_t latency_samples = 0;
  for (int r = 0; r < rounds; ++r) {
    Round round;
    Window window;
    const std::uint64_t writes0 = writer.stats().attempted;
    PhaseStats sat = readers.run(false, sat_s, &writer, &window);
    writes_in_sat += writer.stats().attempted - writes0;
    sat_completed += sat.completed;
    gen_cpu_ns += sat.cpu_ns;
    round.speed = measure_speed(reference, &writer);
    PhaseStats open;
    if (open_s > 0) {
      writer.set_measuring(true);
      open = readers.run(true, open_s);
      writer.set_measuring(false);
    }
    const PhaseStats& latency = open_s > 0 ? open : sat;
    if (window.completions <= 0 || latency.latency_us.empty()) die("a round completed no reads");
    round.qps = window.completions / sat_s;
    round.cpu_ns_per_q = window.server_cpu_ns / window.completions;
    round.p50_us = quantile(latency.latency_us, 0.5);
    round.p99_us = quantile(latency.latency_us, 0.99);
    latency_samples += latency.latency_us.size();
    late_us.insert(late_us.end(), open.late_us.begin(), open.late_us.end());
    write_speeds.push_back(round.speed);
    reads.add_counts(sat);
    reads.add_counts(open);
    measured.push_back(round);
  }
  readers.close();

  if (spec.writes_during_reads) {
    writer.finish();
  } else {
    // The first half second of writes warms the write path unrecorded.
    write_speeds.push_back(measure_speed(reference, &writer));
    writer.set_measuring(false);
    writer.start(write_s + 0.5);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    writer.set_measuring(true);
    std::this_thread::sleep_for(std::chrono::duration<double>(write_s));
    writer.finish();
    write_speeds.push_back(measure_speed(reference, &writer));
  }
  WriterStats& ws = writer.stats();

  const std::uint64_t wrong = reads.wrong + ws.wrong;
  const std::uint64_t attempted = reads.attempted + ws.attempted;
  const std::uint64_t failed = reads.failed() + ws.failed + ws.wrong;
  const double late_p99 = quantile(late_us, 0.99);
  const double sat_seconds = sat_s * rounds;
  const double gen_cpu_share = static_cast<double>(gen_cpu_ns) / 1e9 / sat_seconds;
  const double write_speed = median_of(write_speeds);
  // Every reported figure needs samples behind it; an empty sample set
  // would otherwise read as the best possible value.
  const bool unsampled = ws.ack_us.empty() || ws.sync_ms.empty();

  // Reported figures are scaled to the nominal host (Reference):
  // rates divided by the round's speed, times multiplied by it. The
  // run record keeps them as measured.
  Metrics metrics;
  if (!opt.trace) {
    metrics["setup_s"] = {setup_s, "s", ""};
    metrics["qps"] = {scaled_median(measured, &Round::qps, -1), "1/s", ""};
    metrics["p50_us"] = {scaled_median(measured, &Round::p50_us, 1), "us", ""};
    metrics["cpu_us_per_q"] = {scaled_median(measured, &Round::cpu_ns_per_q, 1) / 1000.0, "us", ""};
    metrics["update_p50_us"] = {quantile(ws.ack_us, 0.5) * write_speed, "us", ""};
    metrics["edge_sync_ms"] = {quantile(ws.sync_ms, 0.5) * write_speed, "ms", ""};
    metrics["peak_rss_mb"] = {setup_peak_rss_mb, "MB", ""};
  } else {
    // The replay runs at the host's present speed, so the accounting
    // compares it with server CPU per read as measured.
    LayerInputs in;
    in.cpu_ns_per_q = scaled_median(measured, &Round::cpu_ns_per_q, 0);
    in.writes_per_read =
        static_cast<double>(writes_in_sat) / static_cast<double>(std::max<std::uint64_t>(sat_completed, 1));
    in.late_p99_us = closed_only ? quantile(ws.late_us, 0.99) : late_p99;
    in.gen_cpu_share = gen_cpu_share;
    in.axfr_after_setup = axfr_after_setup;
    in.out_prefix = opt.out_dir + "/" + opt.workload + "-s" + std::to_string(opt.seed);
    metrics = trace_layers(spec, *fabric, in);
  }

  // Run record: what produced these numbers.
  obs::JsonWriter rec;
  rec.begin_object();
  rec.field("workload", opt.workload);
  rec.field("seed", static_cast<std::uint64_t>(opt.seed));
  rec.field("confirm_seed", static_cast<std::uint64_t>(opt.seed + 1'000'003ULL));
  rec.field("trace", opt.trace);
  rec.field("source", opt.source);
  rec.field("build", SNSBENCH_BUILD_TYPE);
  rec.field("nproc", static_cast<std::uint64_t>(nproc));
  std::uint64_t shards = 0;
  for (const auto& role : spec.roles) shards += role.shards;
  rec.field("server_shards", shards + 1);  // + the edge
  rec.field("generator_threads", static_cast<std::uint64_t>(spec.generator_threads + 1));
  rec.field("generator_sockets",
            static_cast<std::uint64_t>(spec.workload == "fabric" ? 2 : spec.generator_threads * spec.sockets_per_thread));
  rec.field("server_cpus", cpu_list(server_cpus));
  rec.field("generator_cpus", cpu_list(gen_cpus));
  rec.field("sockets_reopened", static_cast<std::uint64_t>(readers.reopened()));
  rec.field("setup_samples", static_cast<std::uint64_t>(setups.size()));
  rec.field("measured_setup_s", median_of(setups));
  rec.field("rounds", static_cast<std::uint64_t>(rounds));
  rec.field("saturation_s", sat_seconds);
  rec.field("saturation_completed", sat_completed);
  rec.field("latency_samples", static_cast<std::uint64_t>(latency_samples));
  rec.field("speed_median", scaled_median(measured, &Round::speed, 0));
  rec.field("write_speed", write_speed);
  // The end-to-end figures as measured, before scaling to the nominal host.
  rec.field("measured_qps", scaled_median(measured, &Round::qps, 0));
  rec.field("measured_cpu_us_per_q", scaled_median(measured, &Round::cpu_ns_per_q, 0) / 1000.0);
  rec.field("measured_p50_us", scaled_median(measured, &Round::p50_us, 0));
  rec.field("measured_p99_us", scaled_median(measured, &Round::p99_us, 0));
  // Tails, scaled like the metrics. They are not end-to-end metrics: on
  // the shared host their run-to-run spread reached the bound.
  rec.field("p99_us", scaled_median(measured, &Round::p99_us, 1));
  rec.field("update_p95_us", quantile(ws.ack_us, 0.95) * write_speed);
  rec.field("measured_update_p50_us", quantile(ws.ack_us, 0.5));
  rec.field("measured_edge_sync_ms", quantile(ws.sync_ms, 0.5));
  rec.field("open_rate", spec.open_rate);
  rec.field("write_rate", spec.write_rate);
  rec.field("update_samples", static_cast<std::uint64_t>(ws.ack_us.size()));
  rec.field("update_service_p50_us", quantile(ws.service_us, 0.5));
  rec.field("update_late_p50_us", quantile(ws.late_us, 0.5));
  rec.field("edge_sync_samples", static_cast<std::uint64_t>(ws.sync_ms.size()));
  rec.field("loadgen_late_p99_us", late_p99);
  rec.field("loadgen_cpu_share", gen_cpu_share);
  rec.field("tcp_retries", reads.tcp_retries);
  rec.field("retransmits", reads.retransmits);
  rec.field("attempted", attempted);
  rec.field("wrong", wrong);
  rec.field("timeouts", reads.timeouts);
  rec.field("failed", failed);
  rec.field("fail_ratio", static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)));
  rec.end_object();
  std::printf("record: %s\n", rec.str().c_str());
  std::ofstream(opt.out_dir + "/" + opt.workload + "-s" + std::to_string(opt.seed) + "-t" +
                (opt.trace ? "1" : "0") + "-record.json")
      << rec.str() << "\n";
  for (const auto& [name, m] : metrics)
    std::printf("%-40s %14.4f %-6s %s\n", name.c_str(), m.value, m.unit.c_str(), m.moves.c_str());

  fabric.reset();

  // Latency is timed from due times, so a late generator makes the
  // reported latency meaningless: such a run is invalid, not slow.
  bool invalid = !opt.trace && open_s > 0 && late_p99 > 5'000.0;
  if (invalid)
    std::fprintf(stderr, "snsbench: run invalid: the generator ran late (p99 %.0f us)\n", late_p99);
  if (wrong != 0) std::fprintf(stderr, "snsbench: %llu wrong answers\n", static_cast<unsigned long long>(wrong));
  if (unsampled) std::fprintf(stderr, "snsbench: no update or edge-sync samples\n");
  // Accounting check: the traced layer self times may not exceed the
  // measured server CPU per read.
  bool unaccounted = opt.trace && metrics.at("transport.residual_ns_per_q").value < 0;
  if (unaccounted)
    std::fprintf(stderr, "snsbench: traced self times exceed cpu_us_per_q (negative residual)\n");

  // The result line, every value with all its digits.
  std::string out = "{\"correct\":" + std::string(wrong == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + value + ",\"unit\":\"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return (wrong != 0 || invalid || unaccounted || unsampled) ? 1 : 0;
}
