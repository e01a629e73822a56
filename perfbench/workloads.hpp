// Workload definitions: what the program receives, generated from a seed.
//
// The network of each workload is fixed (its own generator seed), so that
// the --seed argument varies the load and the failures, not the network;
// the seed-to-seed spread then measures the system rather than topology
// luck. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/service.hpp"
#include "net/prefix.hpp"
#include "topo/topology.hpp"
#include "video/flash_crowd.hpp"

namespace perfbench {

using fibbing::topo::NodeId;

enum class Kind {
  kChurn,  ///< IGP only: back-to-back link fail/restore events
  kCrowd,  ///< video flash crowds, optionally with link toggles
};

struct Spec {
  std::string name;
  Kind kind = Kind::kCrowd;
  bool link_toggles = false;  ///< crowds only: fail/restore links during the waves
  std::size_t igp_shards = 1;
  std::size_t mitigation_workers = 1;
};

/// The named workloads; nullptr for an unknown name.
[[nodiscard]] const Spec* find_spec(const std::string& name);
[[nodiscard]] std::vector<std::string> spec_names();

/// A set of links failed (or restored) in one instant: one event.
struct LinkEvent {
  double at_s = 0.0;  ///< virtual time (crowds); ignored by kChurn
  bool fail = true;
  std::vector<std::pair<NodeId, NodeId>> links;
};

/// One video session: a client in `prefix` asks `server` at `at_s`.
struct SessionRequest {
  double at_s = 0.0;
  std::size_t server = 0;
  std::size_t prefix = 0;
  double duration_s = 0.0;
};

/// Everything the program is given for one pass, apart from the topology,
/// which set-up builds (its construction is part of the timed set-up).
struct Inputs {
  std::vector<fibbing::net::Prefix> prefixes;        ///< client prefixes
  std::vector<fibbing::video::ServerConfig> servers;
  std::vector<SessionRequest> sessions;              ///< sorted by time
  std::vector<LinkEvent> link_events;                ///< in playing order
  double bitrate_bps = 0.0;
  /// Virtual time by which every session has been requested (crowds).
  double last_request_s = 0.0;
};

/// The fixed network of a workload (deterministic; timed as set-up).
[[nodiscard]] fibbing::topo::Topology make_topology(const Spec& spec);

/// The service configuration of a workload.
[[nodiscard]] fibbing::core::ServiceConfig make_config(const Spec& spec, bool tracing);

/// Generate the seeded inputs for `spec` on its network.
[[nodiscard]] Inputs make_inputs(const Spec& spec, const fibbing::topo::Topology& topo,
                                 std::uint64_t seed);

/// Schedule the session requests into a booted service, as batches the
/// video layer plays on its own clock.
void schedule_sessions(fibbing::core::FibbingService& service, const Inputs& inputs,
                       const std::vector<fibbing::video::ServerId>& servers);

}  // namespace perfbench
