#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "federation/ixfr.hpp"
#include "federation/journal.hpp"
#include "federation/resolver.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/answer_cache.hpp"
#include "server/authoritative.hpp"
#include "server/zone.hpp"
#include "spatial/area.hpp"
#include "spatial/spatial_view.hpp"

namespace snsbench {

using namespace sns;

namespace {

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and request id, kept in memory and
// written out when the run ends.

enum SpanName : std::uint16_t {
  kReadRoot,
  kWriteRoot,
  kProbeRoot,
  kResolve,
  kHop,
  kAcquire,
  kTryAnswer,
  kDecode,
  kHandle,
  kEncode,
  kAnswerArea,
  kSpatialQuery,
  kDecompose,
  kUpdate,
  kCacheRebuild,
  kSpatialRebuild,
  kJournalRecord,
  kTransferServe,
  kTransferApply,
  kCommit,
  kSpanNames
};

constexpr const char* kNames[kSpanNames] = {
    "request.read",
    "request.write",
    "probe",
    "federation.IterativeClient::resolve",
    "federation.hop",
    "runtime.ServerRuntime::snapshot",
    "runtime.AnswerCache::try_answer",
    "dns.Message::decode",
    "server.AuthoritativeServer::handle",
    "dns.encode",
    "spatial.answer_area",
    "spatial.SpatialView::query",
    "geo.HilbertGrid::decompose",
    "server.AuthoritativeServer::handle(UPDATE)",
    "runtime.AnswerCache::rebuild",
    "spatial.SpatialView::rebuild",
    "federation.JournalSet::record_commit",
    "federation.serve_transfer_query",
    "federation.apply_transfer_response",
    "runtime.ServerRuntime::commit_zones",
};

// Outcome tags.
enum : std::uint8_t { kNoTag, kHit, kMiss, kPositive, kNxDomain, kNoData, kReferral, kOther, kCold, kWarm };

constexpr std::uint32_t kNone = 0xffffffffu;

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t parent = kNone;
  std::uint32_t request = 0;
  std::uint16_t name = 0;
  std::uint8_t tag = kNoTag;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  bool enabled = true;
  std::vector<Span> spans;

  std::uint32_t root(SpanName name) {
    ++request_;
    return begin(name);
  }
  std::uint32_t begin(SpanName name) {
    if (!enabled) return kNone;
    auto index = static_cast<std::uint32_t>(spans.size());
    spans.push_back({now_ns(), 0, stack_.empty() ? kNone : stack_.back(), request_, name, kNoTag});
    stack_.push_back(index);
    return index;
  }
  void end(std::uint32_t index, std::uint8_t tag = kNoTag) {
    if (index == kNone) return;
    spans[index].end = now_ns();
    spans[index].tag = tag;
    stack_.pop_back();
  }
  /// A span measured elsewhere (the resolver's per-hop RTT).
  void add(SpanName name, std::uint64_t start, std::uint64_t end, std::uint8_t tag) {
    if (!enabled) return;
    spans.push_back({start, end, stack_.empty() ? kNone : stack_.back(), request_, name, tag});
  }

 private:
  std::vector<std::uint32_t> stack_;
  std::uint32_t request_ = 0;
};

std::uint8_t outcome(const dns::Message& response) {
  if (response.header.rcode == dns::Rcode::NXDomain) return kNxDomain;
  if (response.header.rcode != dns::Rcode::NoError) return kOther;
  if (!response.answers.empty()) return kPositive;
  if (response.header.aa) return kNoData;
  for (const auto& rr : response.authorities)
    if (rr.type == dns::RRType::NS) return kReferral;
  return kOther;
}

/// A runtime as the replay sees it: its live snapshot plus a shard-style
/// engine over facades of the snapshot's views (build_engine's shape).
struct Served {
  runtime::ServerRuntime* rt = nullptr;
  std::shared_ptr<const runtime::ZoneSnapshot> snap;
  std::unique_ptr<server::AuthoritativeServer> engine;
};

Served serve(runtime::ServerRuntime& rt) {
  Served s;
  s.rt = &rt;
  s.snap = rt.snapshot();
  s.engine = std::make_unique<server::AuthoritativeServer>("replay");
  for (const auto& view : s.snap->zones) s.engine->add_zone(std::make_shared<server::Zone>(view));
  return s;
}

struct ReadTally {
  double response_bytes = 0.0;
  std::uint64_t responses = 0;
  double hits = 0.0;
  double overlay = 0.0;
  double intervals = 0.0;
  std::uint64_t areas = 0;
};

/// The UDP serving path of one datagram: snapshot acquire, the answer
/// cache's wire fast path, and on a miss decode -> handle -> encode.
void replay_forward(Tracer& tr, Served& sv, std::span<const std::uint8_t> wire, ReadTally& tally) {
  auto a = tr.begin(kAcquire);
  auto snap = sv.rt->snapshot();
  tr.end(a);
  util::Bytes reply;
  auto t = tr.begin(kTryAnswer);
  bool hit = snap->answer_cache != nullptr && snap->answer_cache->try_answer(wire, reply);
  tr.end(t, hit ? kHit : kMiss);
  if (!hit) {
    auto d = tr.begin(kDecode);
    auto query = dns::Message::decode(wire);
    tr.end(d);
    if (!query.ok()) return;
    auto h = tr.begin(kHandle);
    auto response = sv.engine->handle(query.value(), server::ClientContext{});
    tr.end(h, outcome(response));
    auto e = tr.begin(kEncode);
    reply = dns::encode_for_transport(query.value(), response);
    tr.end(e);
  }
  tally.response_bytes += static_cast<double>(reply.size());
  ++tally.responses;
}

/// An AREA datagram: the cache misses, the runtime answers from the
/// snapshot's SpatialView; a truncated answer is served again over TCP.
void replay_area(Tracer& tr, Served& sv, std::span<const std::uint8_t> wire, ReadTally& tally) {
  auto a = tr.begin(kAcquire);
  auto snap = sv.rt->snapshot();
  tr.end(a);
  util::Bytes reply;
  auto t = tr.begin(kTryAnswer);
  bool hit = snap->answer_cache != nullptr && snap->answer_cache->try_answer(wire, reply);
  tr.end(t, hit ? kHit : kMiss);
  for (bool tcp : {false, true}) {
    auto d = tr.begin(kDecode);
    auto query = dns::Message::decode(wire);
    tr.end(d);
    if (!query.ok()) return;
    auto q = tr.begin(kAnswerArea);
    auto response = spatial::answer_area(query.value(), snap->spatial.get(), snap->zones);
    tr.end(q);
    auto e = tr.begin(kEncode);
    reply = tcp ? response.encode() : dns::encode_for_transport(query.value(), response);
    tr.end(e);
    if (!tcp) {
      tally.hits += static_cast<double>(response.answers.size());
      tally.overlay += static_cast<double>(snap->spatial ? snap->spatial->overlay_size() : 0);
      ++tally.areas;
    }
    if (tcp || reply.size() < 3 || (reply[2] & 0x02) == 0) break;  // TC=1 -> TCP retry
  }
  tally.response_bytes += static_cast<double>(reply.size());
  ++tally.responses;
}

/// SpatialView::query and the grid decomposition alone, for one box.
void probe_spatial(Tracer& tr, const runtime::ZoneSnapshot& snap, const dns::Name& scope,
                   const geo::BoundingBox& box, ReadTally& tally) {
  auto root = tr.root(kProbeRoot);
  auto d = tr.begin(kDecompose);
  auto intervals = spatial::SpatialView::grid().decompose(box);
  tr.end(d);
  std::vector<const spatial::Device*> found;
  auto q = tr.begin(kSpatialQuery);
  if (snap.spatial) snap.spatial->query(box, spatial::kMaxAreaAnswers, found, &scope);
  tr.end(q);
  tr.end(root);
  tally.intervals += static_cast<double>(intervals.size());
}

// ---------------------------------------------------------------------------
// Metric table: unit and the end-to-end metric each should move.

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr MetricInfo kLayerMetrics[] = {
    {"transport.udp.batch_mean", "count", "qps, cpu_us_per_q on lookup"},
    {"transport.shard_skew", "ratio", "qps on lookup"},
    {"transport.tcp_retry_ratio", "ratio", "p50_us on area_churn"},
    {"transport.residual_ns_per_q", "ns", "cpu_us_per_q on lookup"},
    {"runtime.snapshot.acquire_ns", "ns", "qps, cpu_us_per_q on lookup"},
    {"runtime.answer_cache.hit_ratio", "ratio", "qps on lookup; ~0 on area_churn reads"},
    {"runtime.answer_cache.hit_ns", "ns", "cpu_us_per_q on lookup"},
    {"runtime.answer_cache.miss_ns", "ns", "cpu_us_per_q on lookup"},
    {"runtime.commit_ns", "ns", "update_p50_us, update_p95_us on area_churn"},
    {"runtime.answer_cache.rebuild_ns", "ns", "update_p50_us on area_churn"},
    {"runtime.answer_cache.build_ms", "ms", "setup_s on lookup, area_churn"},
    {"runtime.rebuild_full_ratio", "ratio", "update_p95_us on area_churn"},
    {"dns.decode_ns", "ns", "cpu_us_per_q on lookup; p50_us on area_churn"},
    {"dns.encode_ns", "ns", "cpu_us_per_q on lookup; p50_us on area_churn"},
    {"dns.response_bytes", "bytes", "p50_us on area_churn"},
    {"server.handle.positive_ns", "ns", "cpu_us_per_q on lookup; p50_us on fabric"},
    {"server.handle.nxdomain_ns", "ns", "cpu_us_per_q on lookup"},
    {"server.handle.nodata_ns", "ns", "cpu_us_per_q on lookup"},
    {"server.handle.referral_ns", "ns", "cpu_us_per_q on lookup; p50_us on fabric"},
    {"server.update_ns", "ns", "update_p50_us on area_churn"},
    {"server.build_zone_ms", "ms", "setup_s on every workload"},
    {"spatial.answer_area_ns", "ns", "p50_us, qps on area_churn"},
    {"spatial.query_ns", "ns", "p50_us, qps on area_churn"},
    {"spatial.rebuild_ns", "ns", "update_p50_us, update_p95_us on area_churn"},
    {"spatial.overlay_mean", "count", "p50_us on area_churn"},
    {"spatial.hits_mean", "count", "p50_us on area_churn"},
    {"spatial.build_ms", "ms", "setup_s on area_churn"},
    {"geo.decompose_ns", "ns", "p50_us on area_churn"},
    {"geo.intervals_mean", "count", "p50_us on area_churn"},
    {"federation.resolve.waves_mean", "count", "p50_us, qps on fabric"},
    {"federation.resolve.cache_start_ratio", "ratio", "p50_us, qps on fabric"},
    {"federation.hop_rtt_us.cold", "us", "p50_us on fabric"},
    {"federation.hop_rtt_us.warm", "us", "p50_us on fabric"},
    {"federation.transfer.serve_ns", "ns", "edge_sync_ms on fabric"},
    {"federation.transfer.apply_ns", "ns", "edge_sync_ms on fabric"},
    {"federation.journal.record_ns", "ns", "edge_sync_ms on fabric; update_p50_us on area_churn"},
    {"federation.refresh.ixfr_ratio", "ratio", "edge_sync_ms on fabric"},
    {"loadgen.late_p99_us", "us", "run validity only"},
    {"loadgen.cpu_share", "ratio", "run validity only"},
    {"obs.trace_overhead_ratio", "ratio", "run validity only"},
    {"obs.traced_share", "ratio", "run validity only: share of cpu_us_per_q the layer self times cover"},
};

/// Mean duration (ns) of spans named `name` (and tagged `tag`, unless 0).
double mean_ns(const Tracer& tr, SpanName name, std::uint8_t tag = kNoTag) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& s : tr.spans)
    if (s.name == name && (tag == kNoTag || s.tag == tag)) {
      sum += static_cast<double>(s.end - s.start);
      ++n;
    }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::uint64_t count_of(const Tracer& tr, SpanName name, std::uint8_t tag) {
  std::uint64_t n = 0;
  for (const auto& s : tr.spans)
    if (s.name == name && s.tag == tag) ++n;
  return n;
}

/// Self time of every span (duration minus the part its children cover),
/// summed per root kind over the layer spans below the roots.
double layer_self_per_root(const Tracer& tr, SpanName root_name) {
  std::vector<std::uint64_t> child_cover(tr.spans.size(), 0);
  for (const auto& s : tr.spans)
    if (s.parent != kNone) child_cover[s.parent] += s.end - s.start;
  double total = 0.0;
  std::uint64_t roots = 0;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const auto& s = tr.spans[i];
    if (s.parent == kNone) {
      if (s.name == root_name) ++roots;
      continue;
    }
    // Walk to the root; count layer spans under roots of this kind.
    std::uint32_t top = s.parent;
    while (tr.spans[top].parent != kNone) top = tr.spans[top].parent;
    if (tr.spans[top].name != root_name) continue;
    total += static_cast<double>(s.end - s.start - std::min(child_cover[i], s.end - s.start));
  }
  return roots == 0 ? 0.0 : total / static_cast<double>(roots);
}

double ratio(double num, double den) { return den <= 0.0 ? 0.0 : num / den; }

void write_outputs(const LayerInputs& in, const Tracer& tr, const Metrics& metrics,
                   const std::string& workload) {
  std::ofstream spans(in.out_prefix + "-spans.jsonl");
  constexpr std::size_t kMaxWritten = 200'000;
  for (std::size_t i = 0; i < tr.spans.size() && i < kMaxWritten; ++i) {
    const auto& s = tr.spans[i];
    spans << "{\"id\":" << i << ",\"request\":" << s.request << ",\"name\":\"" << kNames[s.name]
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << ",\"parent\":"
          << (s.parent == kNone ? -1 : static_cast<long long>(s.parent)) << "}\n";
  }
  obs::JsonWriter w;
  w.begin_object();
  w.field("workload", workload);
  w.begin_object("metrics");
  for (const auto& [name, m] : metrics) {
    w.begin_object(name);
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.field("should_move", m.moves);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::ofstream(in.out_prefix + "-layers.json") << w.str() << "\n";
}

}  // namespace

Metrics trace_layers(const Spec& spec, Fabric& fabric, const LayerInputs& in) {
  Tracer tr;
  // Reserved up front so no vector growth lands inside a span.
  tr.spans.reserve(1u << 21);
  std::map<std::string, double> v;
  const auto& write_role = spec.roles[spec.write_role];
  const bool is_fabric = spec.workload == "fabric";
  const bool is_area = spec.workload == "area_churn";

  // --- Runtime counters from the untraced load (merge_metrics / metrics_json).
  auto& reader = fabric.reader();
  v["transport.udp.batch_mean"] = [&] {
    double sum = 0.0, n = 0.0;
    for (auto& rt : fabric.primaries) {
      obs::MetricsRegistry totals;
      rt->merge_metrics(totals);
      if (const auto* h = totals.find_histogram("transport.udp.batch_size")) {
        sum += static_cast<double>(h->sum());
        n += static_cast<double>(h->count());
      }
    }
    return ratio(sum, n);
  }();
  {
    auto per_shard = shard_counters(reader, "transport.udp.queries");
    double total = 0.0, busiest = 0.0;
    for (auto q : per_shard) total += static_cast<double>(q), busiest = std::max(busiest, static_cast<double>(q));
    v["transport.shard_skew"] = ratio(busiest, total / static_cast<double>(per_shard.size()));
  }
  v["transport.tcp_retry_ratio"] =
      ratio(static_cast<double>(counter_of(reader, "transport.udp.truncated")),
            static_cast<double>(counter_of(reader, "transport.udp.queries")));
  {
    double hits = static_cast<double>(counter_of(reader, "runtime.answer_cache.hit"));
    double misses = static_cast<double>(counter_of(reader, "runtime.answer_cache.miss"));
    v["runtime.answer_cache.hit_ratio"] = ratio(hits, hits + misses);
  }
  {
    auto& w = fabric.writer();
    double full = static_cast<double>(counter_of(w, "runtime.answer_cache.rebuild_full") +
                                      counter_of(w, "runtime.spatial.rebuild_full"));
    double incremental = static_cast<double>(counter_of(w, "runtime.answer_cache.rebuild_incremental") +
                                             counter_of(w, "runtime.spatial.rebuild_incremental"));
    v["runtime.rebuild_full_ratio"] = ratio(full, full + incremental);
    double ixfr = static_cast<double>(counter_of(*fabric.edge_runtime, "federation.refresh.ixfr"));
    double axfr = static_cast<double>(counter_of(*fabric.edge_runtime, "federation.refresh.axfr") -
                                      in.axfr_after_setup);
    v["federation.refresh.ixfr_ratio"] = ratio(ixfr, ixfr + axfr);
  }

  // --- snapshot() from as many concurrent threads as the read target has shards.
  {
    const std::size_t threads = reader.worker_count();
    constexpr int kIters = 200'000;
    std::vector<double> per(threads);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        auto t0 = Clock::now();
        for (int i = 0; i < kIters; ++i) {
          auto snap = reader.snapshot();
          asm volatile("" : : "r"(snap.get()) : "memory");
        }
        per[t] = static_cast<double>(ns_between(t0, Clock::now())) / kIters;
      });
    for (auto& th : pool) th.join();
    v["runtime.snapshot.acquire_ns"] = mean(per);
  }

  // --- Builds: build_zone_view, AnswerCache::build, SpatialView::build.
  std::vector<server::ZoneViewPtr> views;
  {
    std::vector<std::vector<dns::ResourceRecord>> records;
    for (std::size_t z : write_role.zones) records.push_back(spec.records[z]);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < records.size(); ++i) {
      auto view = server::build_zone_view(spec.apexes[write_role.zones[i]], std::move(records[i]));
      if (!view.ok()) die("replay zone build: " + view.error().message);
      views.push_back(std::move(view).value());
    }
    v["server.build_zone_ms"] = seconds_since(t0) * 1e3;
    t0 = Clock::now();
    auto cache = runtime::AnswerCache::build(views);
    v["runtime.answer_cache.build_ms"] = seconds_since(t0) * 1e3;
    t0 = Clock::now();
    auto index = spatial::SpatialView::build(views);
    v["spatial.build_ms"] = seconds_since(t0) * 1e3;
  }

  // --- Reads: untraced passes around one traced pass of the same list.
  std::vector<Served> served;
  for (auto& rt : fabric.primaries) served.push_back(serve(*rt));
  Served& rs = served[spec.read_role];
  ReadTally reads;

  // Fabric reads are whole iterative resolutions: resolve over the live
  // fabric with the public TraceFn, then replay each hop's datagram
  // through the runtime that answered it.
  struct Hop {
    std::size_t role;
    util::Bytes wire;
  };
  std::vector<std::vector<Hop>> resolutions;
  double waves = 0.0, cache_starts = 0.0, resolves = 0.0;
  std::vector<double> rtt_cold, rtt_warm;
  auto resolve_all = [&](const std::vector<std::pair<dns::Name, bool>>& names,
                         const transport::Endpoint& root) {
    federation::ResolveOptions options;
    options.glue_port = fabric.port;
    options.query.timeout = std::chrono::milliseconds(1000);
    std::unique_ptr<federation::IterativeClient> client;
    for (const auto& [name, cold] : names) {
      if (cold || client == nullptr)
        client = std::make_unique<federation::IterativeClient>(std::vector{root}, options);
      std::vector<Hop> hops;
      auto r = tr.root(kResolve);
      auto answer = client->resolve(name, dns::RRType::TXT, [&](const federation::TraceHop& hop) {
        auto end = now_ns();
        auto rtt = static_cast<std::uint64_t>(hop.rtt.count()) * 1000;
        tr.add(kHop, end - std::min(end, rtt), end, cold ? kCold : kWarm);
        (cold ? rtt_cold : rtt_warm).push_back(static_cast<double>(hop.rtt.count()));
        std::size_t role = spec.read_role;
        for (std::size_t k = 0; k < spec.roles.size(); ++k)
          if (hop.winner.address.to_string() == spec.roles[k].addr) role = k;
        auto query = dns::make_query(0, name, dns::RRType::TXT, false);
        dns::add_edns(query, 1232);
        hops.push_back({role, query.encode()});
      });
      tr.end(r);
      if (!answer.ok()) die("traced resolution failed: " + answer.error().message);
      waves += answer.value().waves;
      cache_starts += answer.value().started_from_cache ? 1.0 : 0.0;
      resolves += 1.0;
      resolutions.push_back(std::move(hops));
    }
  };
  if (is_fabric) {
    std::vector<std::pair<dns::Name, bool>> names;
    for (std::size_t s = 0; s < 40 && s < spec.sessions.size(); ++s)
      for (std::size_t k = 0; k < spec.sessions[s].names.size(); ++k)
        names.emplace_back(spec.fabric_names[spec.sessions[s].names[k]].first, k == 0);
    resolve_all(names, reader.local());
  } else {
    // The iterative resolver against the flat authority: half cold
    // (fresh client per name), half warm (one client).
    std::vector<std::pair<dns::Name, bool>> names;
    for (std::size_t i = 0; i < 60; ++i)
      names.emplace_back(spec.devices[(i * 7919) % spec.devices.size()].owner, i < 30);
    resolve_all(names, reader.local());
    resolutions.clear();
  }

  auto read_pass = [&] {
    ReadTally tally;
    if (is_fabric) {
      for (const auto& hops : resolutions) {
        auto root = tr.root(kReadRoot);
        for (const auto& hop : hops) replay_forward(tr, served[hop.role], hop.wire, tally);
        tr.end(root);
      }
    } else {
      const std::size_t n = is_area ? 2'000 : 20'000;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t tmpl = spec.templates.sequence[i % spec.templates.sequence.size()];
        const auto& wire = spec.templates.wires[tmpl];
        auto root = tr.root(kReadRoot);
        if (is_area)
          replay_area(tr, rs, wire, tally);
        else
          replay_forward(tr, rs, wire, tally);
        tr.end(root);
      }
    }
    return tally;
  };
  tr.enabled = false;
  auto t0 = Clock::now();
  read_pass();
  double untraced_s = seconds_since(t0);
  tr.enabled = true;
  t0 = Clock::now();
  reads = read_pass();
  double traced_s = seconds_since(t0);
  tr.enabled = false;
  t0 = Clock::now();
  read_pass();
  untraced_s = (untraced_s + seconds_since(t0)) / 2;
  tr.enabled = true;
  v["obs.trace_overhead_ratio"] = ratio(traced_s, untraced_s);

  // AREA geometry alone (SpatialView::query, grid decomposition), on the
  // workload's boxes — or room boxes around its devices where its reads
  // carry none.
  {
    const dns::Name& scope = spec.apexes[write_role.zones.front()];
    Served& ws = served[spec.write_role];
    if (is_area) {
      for (std::size_t i = 0; i < 2'000; ++i)
        probe_spatial(tr, *rs.snap, scope, spec.areas[spec.templates.sequence[i % spec.templates.sequence.size()]].box, reads);
    } else {
      ReadTally probe_reads;
      for (std::size_t i = 0; i < 500; ++i) {
        const auto& dev = spec.devices[(i * 104729) % spec.devices.size()];
        geo::BoundingBox box{dev.lat - 0.00015, dev.lon - 0.00015, dev.lat + 0.00015, dev.lon + 0.00015};
        probe_spatial(tr, *ws.snap, scope, box, reads);
        auto query = spatial::make_area_query(0, scope, box);
        dns::add_edns(query, 1232);
        auto root = tr.root(kProbeRoot);
        replay_area(tr, ws, query.encode(), probe_reads);
        tr.end(root);
      }
      reads.hits = probe_reads.hits, reads.overlay = probe_reads.overlay, reads.areas = probe_reads.areas;
    }
  }

  // Outcome classes the read mix lacks are probed on the workload's own
  // zones, so every handle time is measured on every workload.
  {
    Served& ps = served[spec.read_role];
    const dns::Name& apex = spec.apexes[spec.roles[spec.read_role].zones.front()];
    dns::Name below_cut = apex;
    for (std::size_t z : spec.roles[spec.read_role].zones)
      for (const auto& rr : spec.records[z])
        if (rr.type == dns::RRType::NS && !(rr.name == spec.apexes[z])) below_cut = dns::name_of("probe." + rr.name.to_string());
    auto probe = [&](const dns::Name& qname, dns::RRType qtype) {
      auto query = dns::make_query(0, qname, qtype, false);
      auto root = tr.root(kProbeRoot);
      auto h = tr.begin(kHandle);
      auto response = ps.engine->handle(query, server::ClientContext{});
      tr.end(h, outcome(response));
      tr.end(root);
    };
    // Cache hits: forward LOC queries for the workload's devices.
    for (std::size_t i = 0; count_of(tr, kTryAnswer, kHit) < 200 && i < 2'000; ++i) {
      auto query = dns::make_query(0, spec.devices[(i * 7919) % spec.devices.size()].owner,
                                   dns::RRType::LOC, false);
      dns::add_edns(query, 1232);
      ReadTally ignored;
      auto root = tr.root(kProbeRoot);
      replay_forward(tr, served[spec.write_role], query.encode(), ignored);
      tr.end(root);
    }
    for (int i = 0; i < 200; ++i) {
      if (count_of(tr, kHandle, kPositive) < 200) probe(apex, dns::RRType::SOA);
      if (count_of(tr, kHandle, kNxDomain) < 200) probe(dns::name_of("zz" + std::to_string(i) + "." + apex.to_string()), dns::RRType::A);
      if (count_of(tr, kHandle, kNoData) < 200) probe(apex, dns::RRType::MX);
      if (count_of(tr, kHandle, kReferral) < 200) probe(below_cut, dns::RRType::A);
    }
  }

  // --- Writes: each re-homing through the layers an RFC 2136 update
  // crosses, against a replica runtime that is published but not started.
  runtime::RuntimeOptions replica_options;
  replica_options.threads = 1;
  runtime::ServerRuntime replica("replica", replica_options);
  replica.publish(views);
  federation::JournalSet journal;
  std::map<std::string, std::unique_ptr<server::Zone>> edge_zones;
  for (std::size_t z : spec.mirrored)
    for (const auto& view : views)
      if (view->apex() == spec.apexes[z])
        edge_zones[std::string(view->apex().packed())] = std::make_unique<server::Zone>(view);
  const std::size_t writes = is_fabric ? 100 : 200;
  std::uint16_t id = 0;
  for (std::size_t i = 0; i < writes; ++i) {
    const Rehome& move = spec.rehomes[i % spec.rehomes.size()];
    const Device& dev = spec.devices[move.device];
    const dns::Name& apex = spec.apexes[dev.zone];
    auto before = replica.snapshot();
    auto wire = rehome_update(++id, spec, move).encode();

    auto root = tr.root(kWriteRoot);
    auto d = tr.begin(kDecode);
    auto update = dns::Message::decode(wire);
    tr.end(d);
    if (!update.ok()) die("replay: update decode");
    auto u = tr.begin(kUpdate);
    std::vector<std::shared_ptr<server::Zone>> facades;
    server::AuthoritativeServer scratch("replay-update");
    for (const auto& view : before->zones) {
      facades.push_back(std::make_shared<server::Zone>(view));
      scratch.add_zone(facades.back());
    }
    auto ack = scratch.handle(update.value(), server::ClientContext{});
    tr.end(u);
    if (ack.header.rcode != dns::Rcode::NoError) die("replay: update refused");
    std::vector<server::ZoneViewPtr> after;
    std::vector<dns::Name> touched;
    std::size_t changed = 0;
    for (std::size_t z = 0; z < facades.size(); ++z) {
      auto log = facades[z]->take_commit_log();
      after.push_back(facades[z]->view());
      if (!log.touched.empty()) changed = z;
      touched.insert(touched.end(), log.touched.begin(), log.touched.end());
    }
    auto c = tr.begin(kCacheRebuild);
    auto cache = runtime::AnswerCache::rebuild(*before->answer_cache, before->zones, after, touched);
    tr.end(c);
    auto s = tr.begin(kSpatialRebuild);
    auto index = spatial::SpatialView::rebuild(*before->spatial, before->zones, after, touched);
    tr.end(s);
    auto j = tr.begin(kJournalRecord);
    journal.record_commit(*before->zones[changed], *after[changed], touched, false);
    tr.end(j);
    auto e = tr.begin(kEncode);
    auto ack_wire = ack.encode();
    tr.end(e);
    // Read-your-writes check: the writer's forward LOC query.
    {
      auto query = dns::make_query(++id, dev.owner, dns::RRType::LOC, false);
      auto cd = tr.begin(kDecode);
      auto decoded = dns::Message::decode(query.encode());
      tr.end(cd);
      auto h = tr.begin(kHandle);
      auto response = scratch.handle(decoded.value(), server::ClientContext{});
      tr.end(h, outcome(response));
      auto ce = tr.begin(kEncode);
      (void)response.encode();
      tr.end(ce);
    }
    auto mirror = edge_zones.find(std::string(apex.packed()));
    if (mirror != edge_zones.end()) {
      auto request = federation::make_ixfr_request(++id, apex, before->zones[changed]->serial());
      auto ts = tr.begin(kTransferServe);
      auto served_xfr = federation::serve_transfer_query(request, after, &journal);
      tr.end(ts);
      auto ta = tr.begin(kTransferApply);
      auto applied = federation::apply_transfer_response(*mirror->second, served_xfr.response);
      tr.end(ta);
      if (!applied.ok()) die("replay: transfer apply: " + applied.error().message);
    }
    tr.end(root);

    // The same re-homing through the runtime's own transactional commit.
    auto cz = tr.root(kCommit);
    replica.commit_zones([&](std::vector<std::shared_ptr<server::Zone>>& zones) {
      for (auto& zone : zones) {
        if (!(zone->apex() == apex)) continue;
        auto txn = zone->txn();
        txn.remove_rrset(dev.owner, dns::RRType::LOC);
        (void)txn.add(dns::make_loc(dev.owner, move.loc));
        (void)zone->commit(std::move(txn));
        return true;
      }
      return false;
    });
    tr.end(cz);
  }

  // --- Per-layer metrics.
  v["runtime.answer_cache.hit_ns"] = mean_ns(tr, kTryAnswer, kHit);
  v["runtime.answer_cache.miss_ns"] = mean_ns(tr, kTryAnswer, kMiss);
  v["runtime.commit_ns"] = mean_ns(tr, kCommit);
  v["runtime.answer_cache.rebuild_ns"] = mean_ns(tr, kCacheRebuild);
  v["dns.decode_ns"] = mean_ns(tr, kDecode);
  v["dns.encode_ns"] = mean_ns(tr, kEncode);
  v["dns.response_bytes"] = ratio(reads.response_bytes, static_cast<double>(reads.responses));
  v["server.handle.positive_ns"] = mean_ns(tr, kHandle, kPositive);
  v["server.handle.nxdomain_ns"] = mean_ns(tr, kHandle, kNxDomain);
  v["server.handle.nodata_ns"] = mean_ns(tr, kHandle, kNoData);
  v["server.handle.referral_ns"] = mean_ns(tr, kHandle, kReferral);
  v["server.update_ns"] = mean_ns(tr, kUpdate);
  v["spatial.answer_area_ns"] = mean_ns(tr, kAnswerArea);
  v["spatial.query_ns"] = mean_ns(tr, kSpatialQuery);
  v["spatial.rebuild_ns"] = mean_ns(tr, kSpatialRebuild);
  v["spatial.overlay_mean"] = ratio(reads.overlay, static_cast<double>(reads.areas));
  v["spatial.hits_mean"] = ratio(reads.hits, static_cast<double>(reads.areas));
  v["geo.decompose_ns"] = mean_ns(tr, kDecompose);
  v["geo.intervals_mean"] = ratio(reads.intervals, static_cast<double>(count_of(tr, kDecompose, kNoTag)));
  v["federation.resolve.waves_mean"] = ratio(waves, resolves);
  v["federation.resolve.cache_start_ratio"] = ratio(cache_starts, resolves);
  v["federation.hop_rtt_us.cold"] = mean(rtt_cold);
  v["federation.hop_rtt_us.warm"] = mean(rtt_warm);
  v["federation.transfer.serve_ns"] = mean_ns(tr, kTransferServe);
  v["federation.transfer.apply_ns"] = mean_ns(tr, kTransferApply);
  v["federation.journal.record_ns"] = mean_ns(tr, kJournalRecord);
  v["loadgen.late_p99_us"] = in.late_p99_us;
  v["loadgen.cpu_share"] = in.gen_cpu_share;

  // Accounting: the layer self times along one read (plus its share of
  // the writes that ran beside the reads) against measured server CPU
  // per read. What is left is transport: syscalls, event loop, framing.
  double covered = layer_self_per_root(tr, kReadRoot) +
                   in.writes_per_read * layer_self_per_root(tr, kWriteRoot);
  v["transport.residual_ns_per_q"] = in.cpu_ns_per_q - covered;
  v["obs.traced_share"] = ratio(covered, in.cpu_ns_per_q);

  Metrics metrics;
  for (const auto& info : kLayerMetrics) {
    auto it = v.find(info.name);
    if (it == v.end()) die(std::string("per-layer metric not computed: ") + info.name);
    metrics[info.name] = {it->second, info.unit, info.moves};
  }
  write_outputs(in, tr, metrics, spec.workload);
  return metrics;
}

}  // namespace snsbench
