#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "igp/lsa.hpp"
#include "igp/lsdb.hpp"
#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"

namespace fibbing::igp {

/// The routing-relevant content of a converged LSDB, in graph form: what a
/// router's SPF actually consumes. Built either from an Lsdb (protocol path)
/// or directly from a Topology plus a set of external routes (the fast path
/// used by the optimizer, verifier and benches).
class NetworkView {
 public:
  struct Edge {
    topo::NodeId to = topo::kInvalidNode;
    topo::Metric metric = 1;
    friend bool operator==(const Edge&, const Edge&) = default;
  };

  /// A transfer network (/30) between two routers, used to resolve external
  /// forwarding addresses. Directions matter: metric_ab is a's interface
  /// cost toward b (a's stub cost for the subnet).
  struct Subnet {
    net::Prefix prefix;
    topo::NodeId a = topo::kInvalidNode;
    topo::NodeId b = topo::kInvalidNode;
    topo::Metric metric_ab = 1;
    topo::Metric metric_ba = 1;
    net::Ipv4 addr_a;  // a's interface address
    net::Ipv4 addr_b;  // b's interface address
    friend bool operator==(const Subnet&, const Subnet&) = default;
  };

  struct Attachment {
    net::Prefix prefix;
    topo::NodeId node = topo::kInvalidNode;
    topo::Metric metric = 0;
    friend bool operator==(const Attachment&, const Attachment&) = default;
  };

  /// One external route (a Fibbing lie, or any redistributed route).
  struct External {
    std::uint64_t lie_id = 0;
    net::Prefix prefix;
    topo::Metric ext_metric = 0;
    net::Ipv4 forwarding_address;
    friend bool operator==(const External&, const External&) = default;
  };

  /// Build the graph a converged IGP would compute on. When `link_state` is
  /// given, links it marks down are omitted -- adjacency *and* transfer /30
  /// (so forwarding addresses on a dead link dangle, as in a real LSDB after
  /// the endpoints re-originate without the interface). This is what makes
  /// every consumer (optimizer, compiler, verifier, controller) plan on the
  /// topology that actually exists instead of the pristine static one.
  static NetworkView from_topology(const topo::Topology& topo,
                                   std::vector<External> externals = {},
                                   const topo::LinkStateMask* link_state = nullptr);
  static NetworkView from_lsdb(const Lsdb& lsdb, std::size_t node_count);

  /// Patch a from_lsdb view in place for one change to that LSDB: instance
  /// `before` (null: the key was absent) gave way to `after` (null: the
  /// entry was erased). On true the view equals from_lsdb of the changed
  /// LSDB again, field by field and in vector order. On false the change
  /// adds or removes a Router-LSA origin, which flips the two-way check of
  /// every link naming it: the view is left inconsistent and must be rebuilt
  /// with from_lsdb. `lsdb` only answers which origins are present, which a
  /// patch never changes. External-LSAs must be keyed by external_ls_id, as
  /// every one a router holds is.
  [[nodiscard]] bool patch(const Lsdb& lsdb, const Lsa* before, const Lsa* after);

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }
  [[nodiscard]] const std::vector<Edge>& edges_from(topo::NodeId n) const;
  /// Ordered by prefix, by both constructors and every patch.
  [[nodiscard]] const std::vector<Subnet>& subnets() const { return subnets_; }
  [[nodiscard]] const std::vector<Attachment>& attachments() const {
    return attachments_;
  }
  [[nodiscard]] const std::vector<External>& externals() const { return externals_; }

  /// The transfer subnet with exactly this prefix; null when the view holds
  /// none. A binary search of the prefix-ordered subnets.
  [[nodiscard]] const Subnet* subnet(const net::Prefix& prefix) const;

  /// The subnet owning an external forwarding address, with the pointed-to
  /// side resolved: `pointed_router` is the router whose interface address
  /// matches. A binary search of the prefix-ordered subnets, which relies on
  /// the addressing contract: an interface address lies inside its own
  /// transfer subnet, and transfer subnets are disjoint. Topology::add_link
  /// allocates both addresses from a disjoint /30 pool, and proto's wire
  /// translation rejects a link whose address lies outside its subnet. An
  /// address outside every subnet, or inside one but on neither interface,
  /// resolves to nullopt.
  struct FwdAddrMatch {
    const Subnet* subnet = nullptr;
    topo::NodeId pointed_router = topo::kInvalidNode;
  };
  [[nodiscard]] std::optional<FwdAddrMatch> resolve_forwarding_address(
      net::Ipv4 addr) const;

  friend bool operator==(const NetworkView&, const NetworkView&) = default;

 private:
  /// One router's claim on a transfer subnet: a Router-LSA link whose
  /// neighbor's Router-LSA is present.
  struct Half {
    topo::NodeId origin = topo::kInvalidNode;
    topo::Metric metric = 1;
    net::Ipv4 addr;
    friend bool operator==(const Half&, const Half&) = default;
  };

  void patch_external_(std::uint64_t key, const ExternalLsa* live);
  void patch_router_(const Lsdb& lsdb, const RouterLsa& before, const RouterLsa& after);
  /// Replace `origin`'s claims on `prefix` with `mine` and re-pair it.
  void repair_subnet_(const net::Prefix& prefix, topo::NodeId origin,
                      const std::vector<Half>& mine);

  std::vector<std::vector<Edge>> adj_;
  std::vector<Subnet> subnets_;
  std::vector<Attachment> attachments_;
  std::vector<External> externals_;
  /// from_lsdb views: the claims on each subnet without exactly two, by
  /// origin then link order -- a link whose far end has not re-originated
  /// yet, or a misconfiguration. They yield no Subnet, but patch needs them
  /// to re-pair. Empty in a converged domain.
  std::map<net::Prefix, std::vector<Half>> unpaired_;
};

}  // namespace fibbing::igp
