#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "igp/lsa.hpp"
#include "igp/view.hpp"
#include "net/prefix.hpp"
#include "topo/topology.hpp"

namespace fibbing::core {

/// One Fibbing lie: a fake node attached (conceptually) to `attach`,
/// announcing `prefix` so that `attach` installs next hop `via`. On the
/// wire it is a single External-LSA whose forwarding address is `via`'s
/// interface on the attach<->via link and whose metric makes the route cost
/// exactly `target_cost` at `attach`.
struct Lie {
  std::uint64_t id = 0;  // External-LSA key = its wire link state id
  std::string name;      // display name, e.g. "f_B_1"
  net::Prefix prefix;
  topo::NodeId attach = topo::kInvalidNode;
  topo::NodeId via = topo::kInvalidNode;
  topo::Metric ext_metric = 0;
  topo::Metric target_cost = 0;  // cost seen at `attach` (diagnostics)
  net::Ipv4 forwarding_address;
};

/// View-layer form (for SPF computations without a protocol run).
[[nodiscard]] std::vector<igp::NetworkView::External> to_externals(
    const std::vector<Lie>& lies);

/// Wire form (for injection into a running IGP domain).
[[nodiscard]] igp::ExternalLsa to_lsa(const Lie& lie);

/// Forwarding address of `via`'s interface on the attach<->via link.
[[nodiscard]] net::Ipv4 lie_forwarding_address(const topo::Topology& topo,
                                               topo::NodeId attach, topo::NodeId via);

[[nodiscard]] std::string to_string(const Lie& lie, const topo::Topology& topo);

}  // namespace fibbing::core
