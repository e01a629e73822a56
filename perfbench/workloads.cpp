#include "workloads.hpp"

#include <algorithm>
#include <set>

#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fib = fibbing;

namespace {

// igp_churn: BM_DomainConvergence's Waxman generator at 150 routers, one /24
// per ten routers, and 50 fail/restore pairs (100 events); every fifth pair
// fails a 3-link shared-risk group in one instant.
constexpr std::size_t kChurnRouters = 150;
constexpr std::size_t kChurnPairs = 50;
constexpr std::size_t kSrlgSize = 3;

// The crowds: a 50-router Waxman graph (alpha 0.4, beta 0.3), 20 client
// /24s, 4 servers; 40 waves 20 s apart, each of three crowds of 2 arrivals/s
// for 5 s on random (prefix, server) pairs; 500 Mb/s sessions of 30-50 s.
constexpr std::size_t kCrowdRouters = 50;
constexpr std::size_t kCrowdPrefixes = 20;
constexpr std::size_t kCrowdServers = 4;
constexpr int kWaves = 40;
constexpr double kWaveGapS = 20.0;
constexpr double kFirstWaveS = 5.0;
constexpr int kCrowdsPerWave = 3;
constexpr double kCrowdLengthS = 5.0;
constexpr int kCrowdSessions = 10;  // 2 arrivals/s over kCrowdLengthS
constexpr double kBitrateBps = 500e6;
constexpr double kMinDurationS = 30.0;
constexpr double kMaxDurationS = 50.0;
// failover_crowd: 20 fail/restore pairs (40 toggles), one link down at a
// time, spread over the waves.
constexpr int kTogglePairs = 20;
constexpr double kToggleGapS = 40.0;

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"igp_churn", Kind::kChurn, false, 2, 1},
      {"flash_crowd", Kind::kCrowd, false, 1, 1},
      {"failover_crowd", Kind::kCrowd, true, 2, 2},
  };
  return all;
}

fib::net::Prefix client_prefix(std::size_t i) {
  return fib::net::Prefix(fib::net::Ipv4(203, 0, static_cast<std::uint8_t>(i), 0), 24);
}

/// The crowds' fixed router order: prefixes attach to the first 20 routers,
/// servers sit on the next 4.
std::vector<NodeId> crowd_layout(const fib::topo::Topology& topo) {
  fib::util::Rng rng(7000 + kCrowdRouters);
  std::vector<NodeId> nodes(topo.node_count());
  for (NodeId n = 0; n < nodes.size(); ++n) nodes[n] = n;
  rng.shuffle(nodes);
  return nodes;
}

/// Undirected links as (forward) link ids, one per adjacency.
std::vector<fib::topo::LinkId> adjacencies(const fib::topo::Topology& topo) {
  std::vector<fib::topo::LinkId> out;
  for (fib::topo::LinkId l = 0; l < topo.link_count(); ++l) {
    if (topo.link(l).from < topo.link(l).to) out.push_back(l);
  }
  return out;
}

/// Is the graph still connected with every adjacency in `down` removed?
bool connected_without(const fib::topo::Topology& topo,
                       const std::set<fib::topo::LinkId>& down) {
  std::vector<char> seen(topo.node_count(), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (const fib::topo::LinkId l : topo.out_links(n)) {
      const fib::topo::Link& link = topo.link(l);
      if (down.count(std::min(l, link.reverse)) != 0 || seen[link.to] != 0) continue;
      seen[link.to] = 1;
      ++reached;
      stack.push_back(link.to);
    }
  }
  return reached == topo.node_count();
}

/// `size` distinct adjacencies whose joint failure keeps the graph connected.
std::vector<std::pair<NodeId, NodeId>> pick_group(const fib::topo::Topology& topo,
                                                  const std::vector<fib::topo::LinkId>& adj,
                                                  std::size_t size, fib::util::Rng& rng) {
  for (;;) {
    std::set<fib::topo::LinkId> group;
    while (group.size() < size) group.insert(adj[rng.pick_index(adj.size())]);
    if (!connected_without(topo, group)) continue;
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const fib::topo::LinkId l : group) {
      out.emplace_back(topo.link(l).from, topo.link(l).to);
    }
    return out;
  }
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> spec_names() {
  std::vector<std::string> out;
  for (const Spec& s : specs()) out.push_back(s.name);
  return out;
}

fib::topo::Topology make_topology(const Spec& spec) {
  if (spec.kind == Kind::kChurn) {
    fib::util::Rng rng(2000 + kChurnRouters);
    fib::topo::Topology t = fib::topo::make_waxman(kChurnRouters, rng, 0.2, 0.25, 10);
    for (std::size_t i = 0; i < kChurnRouters / 10; ++i) {
      t.attach_prefix(static_cast<NodeId>(rng.pick_index(t.node_count())),
                      client_prefix(i));
    }
    return t;
  }
  fib::util::Rng rng(5000 + kCrowdRouters);
  fib::topo::Topology t = fib::topo::make_waxman(kCrowdRouters, rng, 0.4, 0.3);
  const std::vector<NodeId> nodes = crowd_layout(t);
  for (std::size_t i = 0; i < kCrowdPrefixes; ++i) t.attach_prefix(nodes[i], client_prefix(i));
  return t;
}

fib::core::ServiceConfig make_config(const Spec& spec, bool tracing) {
  fib::core::ServiceConfig config;
  config.igp_shards = spec.igp_shards;
  config.controller.mitigation_workers = spec.mitigation_workers;
  config.controller.high_watermark = 0.7;
  config.controller.low_watermark = 0.4;
  config.tracing = tracing;
  return config;
}

Inputs make_inputs(const Spec& spec, const fib::topo::Topology& topo, std::uint64_t seed) {
  Inputs in;
  // Both crowds draw the same sessions from a seed; failover_crowd's
  // toggles come after them from the same stream.
  fib::util::Rng rng(seed * 1000003 + (spec.kind == Kind::kChurn ? 1 : 2));
  const std::vector<fib::topo::LinkId> adj = adjacencies(topo);
  if (spec.kind == Kind::kChurn) {
    for (std::size_t k = 0; k < kChurnPairs; ++k) {
      const std::size_t size = k % 5 == 4 ? kSrlgSize : 1;
      LinkEvent fail{0.0, true, pick_group(topo, adj, size, rng)};
      LinkEvent restore{0.0, false, fail.links};
      in.link_events.push_back(std::move(fail));
      in.link_events.push_back(std::move(restore));
    }
    return in;
  }

  for (std::size_t i = 0; i < kCrowdPrefixes; ++i) in.prefixes.push_back(client_prefix(i));
  // Servers sit on the routers after the prefixes in the workload's fixed
  // layout, so where demand enters is part of the network, not of the seed.
  const std::vector<NodeId> nodes = crowd_layout(topo);
  for (std::size_t s = 0; s < kCrowdServers; ++s) {
    in.servers.push_back({"S" + std::to_string(s), nodes[kCrowdPrefixes + s],
                          fib::net::Ipv4(198, 18, static_cast<std::uint8_t>(s + 1), 1)});
  }
  in.bitrate_bps = kBitrateBps;
  // Which (prefix, server) pair each crowd hits, and its size, are fixed
  // per workload like the network; the seed draws when each client arrives
  // and how long it watches. Seeded pairs or Poisson sizes swing one
  // instance's work by 2x from seed to seed, since whether a crowd congests
  // a link is a threshold effect. Arrivals and watch lengths are each
  // uniform, drawn as a Latin hypercube over the crowd's clients: client k
  // arrives in the k-th tenth of the crowd's window and watches for a length
  // from a distinct tenth of the range (a seeded permutation pairs them), at
  // a uniform point within each tenth. Independent draws let one crowd's
  // sessions bunch up or end together by chance: over 16 seeds the
  // controller's solve count per instance then varied by 8% of its mean
  // (coefficient of variation), with the hypercube by 4%.
  fib::util::Rng pattern(9000 + kCrowdRouters);
  std::vector<int> length_rank(kCrowdSessions);
  for (int k = 0; k < kCrowdSessions; ++k) length_rank[k] = k;
  for (int w = 0; w < kWaves; ++w) {
    const double start = kFirstWaveS + kWaveGapS * w;
    for (int c = 0; c < kCrowdsPerWave; ++c) {
      const std::size_t prefix = pattern.pick_index(kCrowdPrefixes);
      const std::size_t server = pattern.pick_index(kCrowdServers);
      rng.shuffle(length_rank);
      for (int k = 0; k < kCrowdSessions; ++k) {
        const double at = start + kCrowdLengthS * (k + rng.uniform(0.0, 1.0)) / kCrowdSessions;
        const double duration =
            kMinDurationS + (kMaxDurationS - kMinDurationS) *
                                (length_rank[k] + rng.uniform(0.0, 1.0)) / kCrowdSessions;
        in.sessions.push_back({at, server, prefix, duration});
      }
    }
  }
  std::stable_sort(in.sessions.begin(), in.sessions.end(),
                   [](const SessionRequest& a, const SessionRequest& b) {
                     return a.at_s < b.at_s;
                   });
  in.last_request_s = in.sessions.empty() ? 0.0 : in.sessions.back().at_s;

  if (spec.link_toggles) {
    // One link down at a time, never a bridge; toggles land on whole
    // seconds, where the harness plays them between poll steps.
    for (int k = 0; k < kTogglePairs; ++k) {
      const double fail_at =
          15.0 + kToggleGapS * k + static_cast<double>(rng.uniform_int(0, 10));
      const double restore_at = fail_at + static_cast<double>(rng.uniform_int(8, 25));
      LinkEvent fail{fail_at, true, pick_group(topo, adj, 1, rng)};
      LinkEvent restore{restore_at, false, fail.links};
      in.link_events.push_back(std::move(fail));
      in.link_events.push_back(std::move(restore));
    }
  }
  return in;
}

void schedule_sessions(fib::core::FibbingService& service, const Inputs& inputs,
                       const std::vector<fib::video::ServerId>& servers) {
  // Client hosts cycle through the /24 so every request has its own address.
  std::vector<std::uint32_t> next_host(inputs.prefixes.size(), 0);
  std::vector<fib::video::RequestBatch> batches;
  batches.reserve(inputs.sessions.size());
  for (const SessionRequest& r : inputs.sessions) {
    const std::uint32_t host = 1 + next_host[r.prefix]++ % 250;
    batches.push_back({r.at_s, servers[r.server], inputs.prefixes[r.prefix], host, 1,
                       fib::video::VideoAsset{inputs.bitrate_bps, r.duration_s}});
  }
  fib::video::schedule_requests(service.video(), service.events(), batches);
}

}  // namespace perfbench
