// scenario.hpp — what a workload serves and how its answers are checked.
//
// A Spec is everything generated from the workload seed: zone records,
// which runtime serves which zones, the LOC-bearing devices, the read
// templates and the re-homing plan. A Fabric is one live bring-up of a
// Spec: the primary runtimes, the single-shard edge that mirrors a few
// of the write-target's zones by IXFR, and their endpoints.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "dns/message.hpp"
#include "federation/edge.hpp"
#include "geo/geometry.hpp"
#include "loadgen.hpp"
#include "runtime/runtime.hpp"

namespace snsbench {

/// One primary runtime: its address, shard count and zone indices.
struct Role {
  std::string name;
  std::string addr;
  std::size_t shards = 1;
  std::vector<std::size_t> zones;
};

/// A LOC-bearing device the writer may re-home (or an anchor it never
/// moves, which AREA answers must always contain).
struct Device {
  sns::dns::Name owner;
  std::size_t zone = 0;
  sns::dns::LocData loc;
  double lat = 0.0;  // loc's decoded position
  double lon = 0.0;
  bool anchor = false;
};

/// Expected outcome of a forward query template.
enum class Expect : std::uint8_t { Positive, NxDomain, NoData, Referral };

struct ForwardTemplate {
  Expect expect = Expect::Positive;
  std::size_t zone = 0;
  sns::dns::Name qname;
  sns::dns::RRType qtype = sns::dns::RRType::A;
};

struct AreaTemplate {
  sns::geo::BoundingBox box;
  std::vector<std::uint32_t> anchors;  // anchor devices strictly inside the box
};

/// An AR session on the fabric: a cold descent to one building, then
/// warm resolutions of names in the same street.
struct Session {
  std::vector<std::uint32_t> names;  // indices into Spec::fabric_names; [0] is the cold one
};

struct Rehome {
  std::uint32_t device = 0;
  sns::dns::LocData loc;
};

struct Spec {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<sns::dns::Name> apexes;
  std::vector<std::vector<sns::dns::ResourceRecord>> records;  // per zone
  std::vector<Role> roles;
  std::size_t read_role = 0;
  std::size_t write_role = 0;
  std::vector<std::size_t> mirrored;  // zone indices mirrored by the edge
  std::string edge_addr = "127.0.0.1";

  std::vector<Device> devices;
  std::unordered_map<std::string, std::uint32_t> device_by_owner;  // packed owner -> index
  sns::geo::BoundingBox area;  // where re-homed devices land

  // Reads: forward templates (lookup), AREA templates (area_churn) or
  // AR sessions over fabric_names (fabric). `templates` holds the
  // query wires for the first two.
  std::vector<ForwardTemplate> forward;
  std::vector<AreaTemplate> areas;
  std::vector<std::pair<sns::dns::Name, std::string>> fabric_names;  // (owner, TXT)
  std::vector<Session> sessions;
  Templates templates;

  std::vector<Rehome> rehomes;

  // Load shape.
  std::size_t generator_threads = 1;
  std::size_t sockets_per_thread = 2;
  std::size_t window = 16;
  bool tcp_retry = false;
  double open_rate = 0.0;   // open-loop read rate, requests/s
  double write_rate = 0.0;  // re-homings/s
  bool writes_during_reads = true;
};

Spec make_spec(const std::string& workload, std::uint64_t seed, bool smoke);

/// Expected RRset of a positive forward template (regenerated from the
/// seed, never read back from the server).
std::vector<sns::dns::ResourceRecord> expected_rrset(const Spec& spec, const ForwardTemplate& t);

/// Checks forward answers against the generator's model. The first
/// correct reply to a template is remembered byte-for-byte (minus the
/// id); later replies compare against it and fall back to a full decode
/// only on a mismatch.
class ForwardChecker final : public Checker {
 public:
  explicit ForwardChecker(const Spec& spec) : spec_(spec), golden_(spec.forward.size()) {}
  bool check(std::uint32_t tmpl, std::span<const std::uint8_t> reply) override;
  bool quick_check(std::uint32_t tmpl, std::span<const std::uint8_t> reply) override;
  /// Full decode-and-compare of one decoded response.
  static bool verify(const Spec& spec, const ForwardTemplate& t, const sns::dns::Message& reply);

 private:
  const Spec& spec_;
  std::vector<sns::util::Bytes> golden_;
};

/// Checks AREA answers: every LOC owner is a known device inside the
/// box, and every anchor inside the box is present (unless capped).
class AreaChecker final : public Checker {
 public:
  explicit AreaChecker(const Spec& spec) : spec_(spec) {}
  bool check(std::uint32_t tmpl, std::span<const std::uint8_t> reply) override;
  static bool verify(const Spec& spec, const AreaTemplate& t, const sns::dns::Message& reply);

 private:
  const Spec& spec_;
};

/// One live bring-up of a Spec.
struct Fabric {
  std::vector<std::unique_ptr<sns::runtime::ServerRuntime>> primaries;
  std::unique_ptr<sns::runtime::ServerRuntime> edge_runtime;
  std::unique_ptr<sns::federation::EdgeNameserver> edge;
  std::uint16_t port = 0;

  sns::runtime::ServerRuntime& reader() { return *primaries.at(read_role); }
  sns::runtime::ServerRuntime& writer() { return *primaries.at(write_role); }
  std::size_t read_role = 0;
  std::size_t write_role = 0;

  ~Fabric();
};

/// Build zone views from `records` (consumed), start every primary and
/// the edge (initial sync included), and wait for the first answered
/// query on the read target and on the edge.
std::unique_ptr<Fabric> bring_up(const Spec& spec,
                                 std::vector<std::vector<sns::dns::ResourceRecord>> records);

std::uint32_t serial_of(const sns::runtime::ServerRuntime& rt, const sns::dns::Name& apex);

/// The RFC 2136 message for one re-homing: delete the owner's LOC
/// RRset and add the new position, in one UPDATE (one commit).
sns::dns::Message rehome_update(std::uint16_t id, const Spec& spec, const Rehome& move);
sns::dns::LocData make_loc_data(double lat, double lon);

struct WriterStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t mirrored = 0;
  std::vector<double> ack_us;   // from due time
  std::vector<double> service_us;  // from send time
  std::vector<double> sync_ms;  // ack -> edge serves the new serial
  std::vector<double> late_us;
};

/// Open-loop re-homing writer: one TCP connection to the write target,
/// `rate` re-homings per second until `stop` (or `max_seconds`). Each
/// ack is followed by a forward LOC query that must return the new
/// position; a move inside a mirrored zone pokes the edge and times
/// until the edge serves the new serial.
/// Latencies are recorded only while `measuring` is set; re-homings due
/// while `paused` is set are skipped.
void run_writer(const Spec& spec, Fabric& fabric, std::size_t first, double rate,
                double max_seconds, const std::atomic<bool>& stop,
                const std::atomic<bool>& measuring, const std::atomic<bool>& paused,
                WriterStats& out);

}  // namespace snsbench
