#include "scenario.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <thread>

#include "dns/loc.hpp"
#include "dns/rdata.hpp"
#include "server/update.hpp"
#include "server/zone.hpp"
#include "spatial/area.hpp"
#include "transport/client.hpp"
#include "util/rng.hpp"

namespace snsbench {

using namespace sns;
using dns::Name;
using dns::ResourceRecord;
using dns::RRType;

namespace {

net::Ipv4Addr ip(const std::string& text) {
  auto parsed = net::Ipv4Addr::parse(text);
  if (!parsed.ok()) die("bad address " + text);
  return parsed.value();
}

transport::Endpoint endpoint(const std::string& addr, std::uint16_t port) {
  return transport::Endpoint{ip(addr), port};
}

/// Round to the AREA wire's 1e-7-degree grid so both ends agree on the box.
double grid7(double v) { return std::round(v * 1e7) / 1e7; }

void add_apex(std::vector<ResourceRecord>& out, const Name& apex, const std::string& served_at) {
  Name ns = dns::name_of("ns." + apex.to_string());
  out.push_back(dns::make_soa(apex, ns, 1));
  out.push_back(dns::make_ns(apex, ns));
  out.push_back(dns::make_a(ns, ip(served_at)));
}

void add_delegation(std::vector<ResourceRecord>& out, const Name& child, const std::string& at) {
  Name ns = dns::name_of("ns." + child.to_string());
  out.push_back(dns::make_ns(child, ns));
  out.push_back(dns::make_a(ns, ip(at)));
}

std::uint32_t add_device(Spec& spec, const Name& owner, std::size_t zone, double lat, double lon,
                         bool anchor) {
  // The model keeps the LOC rdata itself (RFC 1876 rounds to 1/1000 arc
  // second), so it and the server agree exactly.
  dns::LocData loc = make_loc_data(lat, lon);
  spec.records[zone].push_back(dns::make_loc(owner, loc));
  auto index = static_cast<std::uint32_t>(spec.devices.size());
  spec.devices.push_back({owner, zone, loc, loc.latitude_degrees(), loc.longitude_degrees(), anchor});
  spec.device_by_owner.emplace(std::string(owner.packed()), index);
  return index;
}

/// Re-homing plan: movable devices, mirrored-zone moves at `share`.
void plan_rehomes(Spec& spec, util::Rng& rng, std::size_t count, double mirrored_share) {
  std::vector<std::uint32_t> plain, mirrored;
  for (std::uint32_t i = 0; i < spec.devices.size(); ++i) {
    if (spec.devices[i].anchor) continue;
    bool in_mirror = std::find(spec.mirrored.begin(), spec.mirrored.end(),
                               spec.devices[i].zone) != spec.mirrored.end();
    (in_mirror ? mirrored : plain).push_back(i);
  }
  for (std::size_t k = 0; k < count; ++k) {
    bool to_mirror = !mirrored.empty() && (plain.empty() || rng.chance(mirrored_share));
    const auto& pool = to_mirror ? mirrored : plain;
    Rehome move;
    move.device = pool[rng.next_below(pool.size())];
    move.loc = make_loc_data(rng.next_double(spec.area.min_lat, spec.area.max_lat),
                             rng.next_double(spec.area.min_lon, spec.area.max_lon));
    spec.rehomes.push_back(move);
  }
}

// ---------------------------------------------------------------------------
// lookup: ~100k device owners carrying the Table 1 types.

constexpr RRType kTable1[] = {RRType::A,    RRType::AAAA, RRType::BDADDR, RRType::WIFI,
                              RRType::LORA, RRType::DTMF, RRType::TXT,    RRType::LOC};

std::uint32_t owner_types(std::uint64_t seed, std::uint32_t i) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + i);
  std::uint32_t mask = 0;
  for (std::uint32_t t = 0; t < 7; ++t)
    if (rng.chance(0.5)) mask |= 1u << t;
  if (rng.chance(0.05)) mask |= 1u << 7;  // LOC on one owner in twenty
  if (mask == 0) mask = 1;
  return mask;
}

ResourceRecord typed_record(const Name& owner, const Name& apex, RRType type, std::uint32_t i) {
  ResourceRecord rr;
  rr.name = owner;
  rr.type = type;
  auto b = [&](int shift) { return static_cast<std::uint8_t>((i >> shift) & 0xff); };
  switch (type) {
    case RRType::A:
      return dns::make_a(owner, net::Ipv4Addr{{10, b(16), b(8), b(0)}});
    case RRType::AAAA: {
      net::Ipv6Addr addr{};
      addr.octets = {0xfd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, b(24), b(16), b(8), b(0)};
      return dns::make_aaaa(owner, addr);
    }
    case RRType::BDADDR:
      return dns::make_bdaddr(owner, net::Bdaddr{{0x02, 0x5e, b(24), b(16), b(8), b(0)}});
    case RRType::WIFI:
      rr.rdata = dns::WifiData{"sns-" + std::to_string(i % 97),
                               net::Ipv4Addr{{192, 168, b(8), b(0)}}};
      return rr;
    case RRType::LORA:
      rr.rdata = dns::LoraData{dns::name_of("gw" + std::to_string(i % 13) + "." + apex.to_string()),
                               net::LoraDevAddr{i}};
      return rr;
    case RRType::DTMF:
      rr.rdata = dns::DtmfData{net::DtmfTone{std::to_string(i % 10000) + "#"}};
      return rr;
    case RRType::TXT:
      return dns::make_txt(owner, {"sns:dev=" + std::to_string(i)});
    default:
      die("unexpected lookup type");
  }
}

Name lookup_owner(const Name& apex, std::uint32_t i) {
  return dns::name_of("d" + std::to_string(i) + "." + apex.to_string());
}

ResourceRecord big_txt(const Name& owner, std::uint32_t k) {
  std::vector<std::string> strings;
  for (int s = 0; s < 8; ++s)
    strings.push_back("sns:manifest=" + std::to_string(k) + "/" + std::to_string(s) + ":" +
                      std::string(80, static_cast<char>('a' + (k + static_cast<std::uint32_t>(s)) % 26)));
  return dns::make_txt(owner, std::move(strings));
}

void make_lookup(Spec& spec, bool smoke) {
  const std::uint32_t owners = smoke ? 4'000 : 100'000;
  const std::uint32_t bigs = 64;
  const std::uint32_t sites = 4;
  const std::uint32_t site_devices = 50;
  const Name apex = dns::name_of("campus.loc");
  spec.area = {40.40, -79.99, 40.45, -79.94};
  util::Rng rng(spec.seed);

  spec.apexes.push_back(apex);
  spec.records.emplace_back();
  add_apex(spec.records[0], apex, "127.0.0.1");
  for (std::uint32_t j = 0; j < 4; ++j)
    add_delegation(spec.records[0], dns::name_of("ext" + std::to_string(j) + "." + apex.to_string()),
                   "127.9.0." + std::to_string(j + 1));
  for (std::uint32_t i = 0; i < owners; ++i) {
    Name owner = lookup_owner(apex, i);
    std::uint32_t mask = owner_types(spec.seed, i);
    for (std::uint32_t t = 0; t < 7; ++t)
      if ((mask & (1u << t)) != 0) spec.records[0].push_back(typed_record(owner, apex, kTable1[t], i));
    if ((mask & (1u << 7)) != 0) {
      util::Rng at(spec.seed ^ (0xA5A5ULL + i));
      add_device(spec, owner, 0, at.next_double(spec.area.min_lat, spec.area.max_lat),
                 at.next_double(spec.area.min_lon, spec.area.max_lon), false);
    }
  }
  for (std::uint32_t k = 0; k < bigs; ++k)
    spec.records[0].push_back(big_txt(dns::name_of("big" + std::to_string(k) + "." + apex.to_string()), k));
  // Small site zones on their own single-shard primary, mirrored by the
  // edge. The writer re-homes only their devices, so lookup's commits
  // never run beside the 100k-owner zone its reads hit: a commit there
  // varied by ±15% between runs, more than the write metrics can bear.
  Role primary{"primary", "127.0.0.1", 2, {0}};
  Role site_primary{"sites", "127.0.0.2", 1, {}};
  for (std::uint32_t k = 0; k < sites; ++k) {
    Name site = dns::name_of("site" + std::to_string(k) + "." + apex.to_string());
    spec.apexes.push_back(site);
    spec.records.emplace_back();
    std::size_t zone = spec.records.size() - 1;
    site_primary.zones.push_back(zone);
    add_apex(spec.records[zone], site, site_primary.addr);
    for (std::uint32_t j = 0; j < site_devices; ++j) {
      Name owner = dns::name_of("s" + std::to_string(j) + "." + site.to_string());
      spec.records[zone].push_back(dns::make_a(owner, net::Ipv4Addr{{10, 200, static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(j)}}));
      add_device(spec, owner, zone, rng.next_double(spec.area.min_lat, spec.area.max_lat),
                 rng.next_double(spec.area.min_lon, spec.area.max_lon), false);
    }
    spec.mirrored.push_back(zone);
  }
  spec.roles = {primary, site_primary};
  spec.read_role = 0;
  spec.write_role = 1;

  // Zipf(0.99) popularity over owners, ranks scattered over the fleet.
  std::vector<double> cdf(owners);
  double total = 0.0;
  for (std::uint32_t r = 0; r < owners; ++r) cdf[r] = total += 1.0 / std::pow(r + 1.0, 0.99);
  std::vector<std::uint32_t> by_rank(owners);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  for (std::uint32_t r = owners - 1; r > 0; --r)
    std::swap(by_rank[r], by_rank[rng.next_below(r + 1)]);
  auto popular = [&] {
    double u = rng.next_double() * total;
    auto r = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return by_rank[std::min<std::size_t>(r, owners - 1)];
  };

  std::unordered_map<std::string, std::uint32_t> index;
  auto intern = [&](ForwardTemplate t) {
    std::string key = std::string(t.qname.packed()) + "/" + std::to_string(static_cast<int>(t.qtype));
    auto [it, fresh] = index.emplace(key, static_cast<std::uint32_t>(spec.forward.size()));
    if (fresh) {
      auto query = dns::make_query(0, t.qname, t.qtype, /*recursion_desired=*/false);
      dns::add_edns(query, 1232);
      spec.templates.wires.push_back(query.encode());
      spec.forward.push_back(std::move(t));
    }
    return it->second;
  };
  const std::size_t length = smoke ? 50'000 : 1'000'000;
  spec.templates.sequence.reserve(length);
  for (std::size_t n = 0; n < length; ++n) {
    double u = rng.next_double();
    ForwardTemplate t;
    if (u < 0.80) {  // cacheable positive
      std::uint32_t i = popular();
      std::uint32_t mask = owner_types(spec.seed, i);
      std::vector<RRType> have;
      for (std::uint32_t b = 0; b < 8; ++b)
        if ((mask & (1u << b)) != 0) have.push_back(kTable1[b]);
      t = {Expect::Positive, 0, lookup_owner(apex, i), have[rng.next_below(have.size())]};
    } else if (u < 0.85) {  // NODATA
      std::uint32_t i = popular();
      std::uint32_t mask = owner_types(spec.seed, i);
      std::vector<RRType> lack{RRType::MX};
      for (std::uint32_t b = 0; b < 8; ++b)
        if ((mask & (1u << b)) == 0) lack.push_back(kTable1[b]);
      t = {Expect::NoData, 0, lookup_owner(apex, i), lack[rng.next_below(lack.size())]};
    } else if (u < 0.90) {  // NXDOMAIN
      t = {Expect::NxDomain, 0,
           dns::name_of("x" + std::to_string(rng.next_below(5000)) + "." + apex.to_string()),
           RRType::A};
    } else if (u < 0.95) {  // below a delegation cut
      t = {Expect::Referral, 0,
           dns::name_of("h" + std::to_string(rng.next_below(5000)) + ".ext" +
                        std::to_string(rng.next_below(4)) + "." + apex.to_string()),
           RRType::A};
    } else {  // positive over 512 bytes
      t = {Expect::Positive, 0,
           dns::name_of("big" + std::to_string(rng.next_below(bigs)) + "." + apex.to_string()),
           RRType::TXT};
    }
    spec.templates.sequence.push_back(intern(std::move(t)));
  }

  plan_rehomes(spec, rng, 20'000, 1.0);
  spec.generator_threads = 2;
  spec.sockets_per_thread = 2;
  spec.window = 32;
  spec.open_rate = 60'000.0;
  spec.write_rate = 100.0;
  spec.writes_during_reads = false;
}

// ---------------------------------------------------------------------------
// area_churn: a dense city of LOC devices under re-homing churn.

void make_area(Spec& spec, bool smoke) {
  const std::uint32_t grid = smoke ? 4 : 10;  // grid x grid buildings
  const std::uint32_t buildings = grid * grid;
  const std::uint32_t devices = smoke ? 2'000 : 12'000;
  const std::uint32_t campus_devices = 150;
  const double side = smoke ? 0.005 : 0.012;
  const double pitch = side / grid;
  const double sigma = pitch / 3;
  const Name apex = dns::name_of("city.loc");
  spec.area = {40.44, -79.96, 40.44 + side, -79.96 + side};
  util::Rng rng(spec.seed);

  // Buildings on a jittered grid, so every seed's city has the same
  // density profile; devices gaussian around their building.
  std::vector<std::pair<double, double>> centers;
  for (std::uint32_t b = 0; b < buildings; ++b)
    centers.emplace_back(spec.area.min_lat + pitch * ((b / grid) + 0.5 + rng.next_double(-0.2, 0.2)),
                         spec.area.min_lon + pitch * ((b % grid) + 0.5 + rng.next_double(-0.2, 0.2)));
  auto near = [&](std::uint32_t b) {
    double lat = std::clamp(centers[b].first + rng.next_gaussian(0, sigma), spec.area.min_lat,
                            spec.area.max_lat);
    double lon = std::clamp(centers[b].second + rng.next_gaussian(0, sigma), spec.area.min_lon,
                            spec.area.max_lon);
    return std::pair{lat, lon};
  };

  spec.apexes.push_back(apex);
  spec.records.emplace_back();
  add_apex(spec.records[0], apex, "127.0.0.1");
  add_delegation(spec.records[0], dns::name_of("ext.city.loc"), "127.9.0.1");
  for (std::uint32_t i = 0; i < devices; ++i) {
    auto [lat, lon] = near(i % buildings);
    add_device(spec, dns::name_of("d" + std::to_string(i) + ".city.loc"), 0, lat, lon, i % 8 == 0);
  }
  for (std::uint32_t k = 0; k < 2; ++k) {
    Name campus = dns::name_of("campus" + std::to_string(k) + ".city.loc");
    spec.apexes.push_back(campus);
    spec.records.emplace_back();
    std::size_t zone = spec.records.size() - 1;
    add_apex(spec.records[zone], campus, "127.0.0.1");
    for (std::uint32_t j = 0; j < campus_devices; ++j) {
      auto [lat, lon] = near(k);
      add_device(spec, dns::name_of("c" + std::to_string(j) + "." + campus.to_string()), zone, lat,
                 lon, j % 8 == 0);
    }
    spec.mirrored.push_back(zone);
  }
  Role role{"primary", "127.0.0.1", 2, {}};
  for (std::size_t z = 0; z < spec.apexes.size(); ++z) role.zones.push_back(z);
  spec.roles.push_back(role);

  // Boxes: mostly rooms, some floors, a few buildings, centred near
  // building centres so hit counts are representative.
  // The mix is exact in every block of 100 requests (shuffled within
  // the block), so any slice of the sequence has the same proportions.
  std::vector<double> block;
  for (int k = 0; k < 100; ++k) block.push_back(k < 80 ? 0.0003 : (k < 97 ? 0.0015 : 0.005));
  const std::size_t count = smoke ? 2'000 : 20'000;
  for (std::size_t n = 0; n < count; ++n) {
    if (n % block.size() == 0)
      for (std::size_t k = block.size() - 1; k > 0; --k) std::swap(block[k], block[rng.next_below(k + 1)]);
    double box_side = block[n % block.size()];
    auto [lat, lon] = near(static_cast<std::uint32_t>(rng.next_below(buildings)));
    lat = std::clamp(lat - box_side / 2, spec.area.min_lat, spec.area.max_lat - box_side);
    lon = std::clamp(lon - box_side / 2, spec.area.min_lon, spec.area.max_lon - box_side);
    AreaTemplate t;
    t.box = {grid7(lat), grid7(lon), grid7(lat + box_side), grid7(lon + box_side)};
    constexpr double kEps = 1e-6;
    for (std::uint32_t d = 0; d < spec.devices.size(); ++d) {
      const auto& dev = spec.devices[d];
      if (dev.anchor && dev.lat > t.box.min_lat + kEps && dev.lat < t.box.max_lat - kEps &&
          dev.lon > t.box.min_lon + kEps && dev.lon < t.box.max_lon - kEps)
        t.anchors.push_back(d);
    }
    auto query = spatial::make_area_query(0, apex, t.box);
    dns::add_edns(query, 1232);
    spec.templates.wires.push_back(query.encode());
    spec.templates.sequence.push_back(static_cast<std::uint32_t>(spec.areas.size()));
    spec.areas.push_back(std::move(t));
  }

  plan_rehomes(spec, rng, 20'000, 0.2);
  spec.generator_threads = 1;
  spec.sockets_per_thread = 2;
  spec.window = 4;
  spec.tcp_retry = true;
  spec.open_rate = 1'700.0;
  spec.write_rate = 100.0;
}

// ---------------------------------------------------------------------------
// fabric: the 1,331-zone civic tree on four runtimes plus an edge.

void make_fabric(Spec& spec, bool smoke) {
  const std::size_t cities = smoke ? 2 : 10;
  const std::size_t streets = smoke ? 3 : 33;
  const std::size_t per_street = smoke ? 2 : 3;
  const std::size_t mirrors = smoke ? 3 : 20;
  const std::string root_at = "127.1.0.1", city_at = "127.1.0.2", street_at = "127.1.0.3",
                    building_at = "127.1.0.4";
  spec.edge_addr = "127.1.0.5";
  spec.area = {40.40, -80.00, 40.50, -79.90};
  util::Rng rng(spec.seed);

  spec.roles = {{"root", root_at, 1, {}},
                {"cities", city_at, 1, {}},
                {"streets", street_at, 1, {}},
                {"buildings", building_at, 1, {}}};
  auto new_zone = [&](const Name& apex, std::size_t role, const std::string& at) {
    spec.apexes.push_back(apex);
    spec.records.emplace_back();
    add_apex(spec.records.back(), apex, at);
    spec.roles[role].zones.push_back(spec.apexes.size() - 1);
    return spec.apexes.size() - 1;
  };
  const Name root = dns::name_of("country.loc");
  std::size_t root_zone = new_zone(root, 0, root_at);
  std::vector<std::vector<std::uint32_t>> street_names;  // per street: fabric_names indices
  for (std::size_t c = 0; c < cities; ++c) {
    Name city = dns::name_of("c" + std::to_string(c) + ".country.loc");
    add_delegation(spec.records[root_zone], city, city_at);
    std::size_t city_zone = new_zone(city, 1, city_at);
    for (std::size_t s = 0; s < streets; ++s) {
      Name street = dns::name_of("s" + std::to_string(s) + "." + city.to_string());
      add_delegation(spec.records[city_zone], street, street_at);
      std::size_t street_zone = new_zone(street, 2, street_at);
      street_names.emplace_back();
      for (std::size_t b = 0; b < per_street; ++b) {
        Name building = dns::name_of("b" + std::to_string(b) + "." + street.to_string());
        add_delegation(spec.records[street_zone], building, building_at);
        std::size_t zone = new_zone(building, 3, building_at);
        std::string path = std::to_string(c) + "-" + std::to_string(s) + "-" + std::to_string(b);
        for (const char* device : {"door", "cam"}) {
          Name owner = dns::name_of(std::string(device) + "." + building.to_string());
          std::string txt = std::string(device) + "-" + path;
          spec.records[zone].push_back(dns::make_txt(owner, {txt}));
          add_device(spec, owner, zone, rng.next_double(spec.area.min_lat, spec.area.max_lat),
                     rng.next_double(spec.area.min_lon, spec.area.max_lon),
                     std::string(device) == "door");
          street_names.back().push_back(static_cast<std::uint32_t>(spec.fabric_names.size()));
          spec.fabric_names.emplace_back(owner, txt);
        }
        if (spec.mirrored.size() < mirrors) spec.mirrored.push_back(zone);
      }
    }
  }
  spec.read_role = 0;
  spec.write_role = 3;

  const std::size_t sessions = smoke ? 500 : 20'000;
  for (std::size_t n = 0; n < sessions; ++n) {
    const auto& street = street_names[rng.next_below(street_names.size())];
    Session session;
    std::size_t start = rng.next_below(street.size() / 2) * 2;  // a door: cold descent
    for (std::size_t k = 0; k < 8; ++k) session.names.push_back(street[(start + k) % street.size()]);
    spec.sessions.push_back(std::move(session));
  }

  plan_rehomes(spec, rng, 20'000, 1.0);
  spec.generator_threads = 1;
  spec.write_rate = 40.0;
}

}  // namespace

dns::LocData make_loc_data(double lat, double lon) {
  auto loc = dns::LocData::from_degrees(lat, lon);
  if (!loc.ok()) die("loc: " + loc.error().message);
  return loc.value();
}

Spec make_spec(const std::string& workload, std::uint64_t seed, bool smoke) {
  Spec spec;
  spec.workload = workload;
  spec.seed = seed;
  if (workload == "lookup")
    make_lookup(spec, smoke);
  else if (workload == "area_churn")
    make_area(spec, smoke);
  else if (workload == "fabric")
    make_fabric(spec, smoke);
  else
    die("unknown workload " + workload);
  return spec;
}

std::vector<ResourceRecord> expected_rrset(const Spec& spec, const ForwardTemplate& t) {
  const Name& apex = spec.apexes[t.zone];
  std::string first = t.qname.labels().front();
  if (first.rfind("big", 0) == 0)
    return {big_txt(t.qname, static_cast<std::uint32_t>(std::stoul(first.substr(3))))};
  auto i = static_cast<std::uint32_t>(std::stoul(first.substr(1)));
  if (t.qtype == RRType::LOC) {
    const auto& dev = spec.devices.at(spec.device_by_owner.at(std::string(t.qname.packed())));
    return {dns::make_loc(t.qname, dev.loc)};
  }
  return {typed_record(t.qname, apex, t.qtype, i)};
}

namespace {

bool same_record(const ResourceRecord& a, const ResourceRecord& b) {
  return a.name == b.name && a.type == b.type && a.rdata == b.rdata;
}

bool same_records(std::vector<ResourceRecord> got, std::vector<ResourceRecord> want) {
  if (got.size() != want.size()) return false;
  if (got.size() == 1) return same_record(got[0], want[0]);
  auto key = [](const ResourceRecord& rr) { return rr.to_string(); };
  std::sort(got.begin(), got.end(), [&](auto& a, auto& b) { return key(a) < key(b); });
  std::sort(want.begin(), want.end(), [&](auto& a, auto& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!same_record(got[i], want[i])) return false;
  return true;
}

}  // namespace

bool ForwardChecker::verify(const Spec& spec, const ForwardTemplate& t, const dns::Message& reply) {
  if (!reply.header.qr || reply.questions.size() != 1 || !(reply.questions[0].name == t.qname))
    return false;
  switch (t.expect) {
    case Expect::Positive:
      return reply.header.rcode == dns::Rcode::NoError && reply.header.aa &&
             same_records(reply.answers, expected_rrset(spec, t));
    case Expect::NxDomain:
      return reply.header.rcode == dns::Rcode::NXDomain && reply.answers.empty();
    case Expect::NoData:
      return reply.header.rcode == dns::Rcode::NoError && reply.header.aa &&
             reply.answers.empty();
    case Expect::Referral: {
      if (reply.header.rcode != dns::Rcode::NoError || reply.header.aa || !reply.answers.empty())
        return false;
      for (const auto& rr : reply.authorities)
        if (rr.type == RRType::NS && t.qname.is_subdomain_of(rr.name)) return true;
      return false;
    }
  }
  return false;
}

bool ForwardChecker::quick_check(std::uint32_t tmpl, std::span<const std::uint8_t> reply) {
  const auto& golden = golden_[tmpl];
  return !golden.empty() && golden.size() == reply.size() &&
         std::equal(reply.begin() + 2, reply.end(), golden.begin() + 2);
}

bool ForwardChecker::check(std::uint32_t tmpl, std::span<const std::uint8_t> reply) {
  if (quick_check(tmpl, reply)) return true;
  auto& golden = golden_[tmpl];
  auto decoded = dns::Message::decode(reply);
  if (!decoded.ok() || !verify(spec_, spec_.forward[tmpl], decoded.value())) return false;
  if (golden.empty()) golden.assign(reply.begin(), reply.end());
  return true;
}

bool AreaChecker::verify(const Spec& spec, const AreaTemplate& t, const dns::Message& reply) {
  if (reply.header.rcode != dns::Rcode::NoError || !reply.header.aa || reply.header.tc)
    return false;
  constexpr double kEps = 1e-6;
  std::vector<std::uint32_t> seen;
  seen.reserve(reply.answers.size());
  for (const auto& rr : reply.answers) {
    const auto* loc = std::get_if<dns::LocData>(&rr.rdata);
    if (rr.type != RRType::LOC || loc == nullptr) return false;
    auto it = spec.device_by_owner.find(std::string(rr.name.packed()));
    if (it == spec.device_by_owner.end()) return false;
    double lat = loc->latitude_degrees(), lon = loc->longitude_degrees();
    if (lat < t.box.min_lat - kEps || lat > t.box.max_lat + kEps || lon < t.box.min_lon - kEps ||
        lon > t.box.max_lon + kEps)
      return false;
    seen.push_back(it->second);
  }
  if (reply.answers.size() >= spatial::kMaxAreaAnswers) return true;  // capped: no completeness
  std::sort(seen.begin(), seen.end());
  for (std::uint32_t anchor : t.anchors)
    if (!std::binary_search(seen.begin(), seen.end(), anchor)) return false;
  return true;
}

bool AreaChecker::check(std::uint32_t tmpl, std::span<const std::uint8_t> reply) {
  auto decoded = dns::Message::decode(reply);
  return decoded.ok() && verify(spec_, spec_.areas[tmpl], decoded.value());
}

Fabric::~Fabric() {
  if (edge) edge->stop();
  if (edge_runtime) edge_runtime->stop();
  for (auto it = primaries.rbegin(); it != primaries.rend(); ++it) (*it)->stop();
}

std::uint32_t serial_of(const runtime::ServerRuntime& rt, const Name& apex) {
  auto snap = rt.snapshot();
  if (snap == nullptr) return 0;
  for (const auto& zone : snap->zones)
    if (zone->apex() == apex) return zone->serial();
  return 0;
}

std::unique_ptr<Fabric> bring_up(const Spec& spec,
                                 std::vector<std::vector<ResourceRecord>> records) {
  auto fabric = std::make_unique<Fabric>();
  fabric->read_role = spec.read_role;
  fabric->write_role = spec.write_role;
  std::vector<server::ZoneViewPtr> views;
  views.reserve(records.size());
  for (std::size_t z = 0; z < records.size(); ++z) {
    auto view = server::build_zone_view(spec.apexes[z], std::move(records[z]));
    if (!view.ok()) die("zone build: " + view.error().message);
    views.push_back(std::move(view).value());
  }
  for (const auto& role : spec.roles) {
    runtime::RuntimeOptions options;
    options.threads = role.shards;
    options.drain_grace = std::chrono::milliseconds(200);
    auto rt = std::make_unique<runtime::ServerRuntime>(role.name, options);
    std::vector<server::ZoneViewPtr> zones;
    for (std::size_t z : role.zones) zones.push_back(views[z]);
    if (auto started = rt->start(endpoint(role.addr, fabric->port), std::move(zones)); !started.ok())
      die(role.name + " start: " + started.error().message);
    if (fabric->port == 0) fabric->port = rt->local().port;
    fabric->primaries.push_back(std::move(rt));
  }

  runtime::RuntimeOptions edge_rt;
  edge_rt.threads = 1;
  edge_rt.drain_grace = std::chrono::milliseconds(200);
  fabric->edge_runtime = std::make_unique<runtime::ServerRuntime>("edge", edge_rt);
  federation::EdgeOptions options;
  options.primary = fabric->writer().local();
  for (std::size_t z : spec.mirrored) options.zones.push_back(spec.apexes[z]);
  options.refresh_interval = std::chrono::minutes(10);  // refreshes come from poke()
  options.expire_after = std::chrono::hours(1);
  options.query.timeout = std::chrono::milliseconds(1000);
  fabric->edge = std::make_unique<federation::EdgeNameserver>(*fabric->edge_runtime, options);
  auto mirror = fabric->edge->initial_sync();
  if (!mirror.ok()) die("edge initial sync: " + mirror.error().message);
  if (auto started = fabric->edge_runtime->start(endpoint(spec.edge_addr, 0), std::move(mirror).value());
      !started.ok())
    die("edge start: " + started.error().message);
  if (auto started = fabric->edge->start(); !started.ok())
    die("edge refresh loop: " + started.error().message);

  // Set-up ends with the first answered query on the read target and on
  // the edge.
  auto probe = [](const transport::Endpoint& at, const Name& apex) {
    auto reply = transport::udp_query(at, dns::make_query(1, apex, RRType::SOA, false));
    if (!reply.ok() || reply.value().header.rcode != dns::Rcode::NoError ||
        reply.value().answers.empty())
      die("first query to " + at.to_string() + " unanswered");
  };
  probe(fabric->reader().local(), spec.apexes[spec.roles[spec.read_role].zones.front()]);
  probe(fabric->edge_runtime->local(), spec.apexes[spec.mirrored.front()]);
  return fabric;
}

dns::Message rehome_update(std::uint16_t id, const Spec& spec, const Rehome& move) {
  const Device& dev = spec.devices[move.device];
  const Name& apex = spec.apexes[dev.zone];
  auto update = server::make_update_delete_rrset(id, apex, dev.owner, RRType::LOC);
  auto add = server::make_update_add(id, apex, dns::make_loc(dev.owner, move.loc));
  update.authorities.push_back(add.authorities.front());
  return update;
}

namespace {

/// One query over a connected UDP socket; the reply with the query's id,
/// or nothing after `timeout`.
std::optional<dns::Message> udp_exchange(int fd, const dns::Message& query,
                                         std::chrono::milliseconds timeout) {
  auto wire = query.encode();
  if (::send(fd, wire.data(), wire.size(), 0) < 0) return std::nullopt;
  const auto give_up = Clock::now() + timeout;
  std::uint8_t buf[2048];
  for (auto now = Clock::now(); now < give_up; now = Clock::now()) {
    pollfd pfd{fd, POLLIN, 0};
    auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(give_up - now).count();
    if (::poll(&pfd, 1, static_cast<int>(std::max<long long>(wait, 1))) <= 0) continue;
    ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) continue;
    auto reply = dns::Message::decode(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    if (reply.ok() && reply.value().header.id == query.header.id) return std::move(reply).value();
  }
  return std::nullopt;
}

/// Poll the edge's SOA for `apex` until it serves `serial`; false on timeout.
bool await_edge_serial(int fd, const Name& apex, std::uint32_t serial, std::uint16_t& id) {
  auto give_up = Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < give_up) {
    auto reply = udp_exchange(fd, dns::make_query(++id, apex, RRType::SOA, false),
                              std::chrono::milliseconds(100));
    if (!reply) continue;
    for (const auto& rr : reply->answers)
      if (const auto* soa = std::get_if<dns::SoaData>(&rr.rdata); soa && soa->serial >= serial)
        return true;
    // Still the old serial: pace the polls so probing does not load the edge.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

/// Read-your-writes: a forward LOC query for `owner`, sent like the read
/// templates (UDP, EDNS 1232, RD=0) so the answer cache's fast path
/// serves it, must return exactly `loc`. TC=1 falls back to TCP.
bool reads_new_position(int fd, transport::TcpClient& tcp, const Name& owner,
                        const dns::LocData& loc, std::uint16_t& id) {
  auto query = dns::make_query(++id, owner, RRType::LOC, /*recursion_desired=*/false);
  dns::add_edns(query, 1232);
  std::optional<dns::Message> reply = udp_exchange(fd, query, std::chrono::milliseconds(2000));
  if (reply && reply->header.tc) {
    auto over_tcp = tcp.query(query, std::chrono::milliseconds(2000));
    reply = over_tcp.ok() ? std::optional<dns::Message>(std::move(over_tcp).value()) : std::nullopt;
  }
  return reply && reply->header.rcode == dns::Rcode::NoError && reply->answers.size() == 1 &&
         reply->answers[0].rdata == dns::Rdata(loc);
}

}  // namespace

void run_writer(const Spec& spec, Fabric& fabric, std::size_t first, double rate,
                double max_seconds, const std::atomic<bool>& stop,
                const std::atomic<bool>& measuring, const std::atomic<bool>& paused,
                WriterStats& out) {
  transport::TcpClient tcp;
  if (!tcp.connect(fabric.writer().local(), std::chrono::milliseconds(2000)).ok())
    die("writer: cannot connect");
  int edge_fd = open_udp(fabric.edge_runtime->local());
  int read_fd = open_udp(fabric.writer().local());
  std::uint16_t id = 0;
  std::uint16_t edge_id = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / rate));
    if (stop.load(std::memory_order_acquire) || seconds_since(t0) >= max_seconds ||
        due - t0 >= std::chrono::duration<double>(max_seconds))
      break;
    while (Clock::now() < due && !stop.load(std::memory_order_acquire))
      std::this_thread::sleep_until(std::min(due, Clock::now() + std::chrono::milliseconds(5)));
    if (stop.load(std::memory_order_acquire)) break;
    if (paused.load(std::memory_order_acquire)) continue;  // slots due while paused are skipped

    const Rehome& move = spec.rehomes[(first + i) % spec.rehomes.size()];
    const Device& dev = spec.devices[move.device];
    ++out.attempted;
    const bool record = measuring.load(std::memory_order_acquire);
    auto sent = Clock::now();
    if (record) out.late_us.push_back(us_between(due, sent));
    auto ack = tcp.query(rehome_update(++id, spec, move), std::chrono::milliseconds(2000));
    auto acked = Clock::now();
    if (!ack.ok()) {  // no answer: a failure, not a wrong answer
      ++out.failed;
      continue;
    }
    // The model says every re-homing is accepted: a refusal is wrong.
    if (ack.value().header.rcode != dns::Rcode::NoError) {
      ++out.wrong;
      continue;
    }
    if (record) {
      out.ack_us.push_back(us_between(due, acked));
      out.service_us.push_back(us_between(sent, acked));
    }
    // Edge sync first, so its clock starts at the ack and nothing else
    // runs inside it; an edge that never serves the new serial is wrong.
    if (std::find(spec.mirrored.begin(), spec.mirrored.end(), dev.zone) != spec.mirrored.end()) {
      ++out.mirrored;
      std::uint32_t serial = serial_of(fabric.writer(), spec.apexes[dev.zone]);
      fabric.edge->poke();
      if (!await_edge_serial(edge_fd, spec.apexes[dev.zone], serial, edge_id))
        ++out.wrong;
      else if (record)
        out.sync_ms.push_back(us_between(acked, Clock::now()) / 1000.0);
    }
    if (!reads_new_position(read_fd, tcp, dev.owner, move.loc, id)) ++out.wrong;
  }
  ::close(read_fd);
  ::close(edge_fd);
}

}  // namespace snsbench
