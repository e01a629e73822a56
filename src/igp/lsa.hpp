#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "proto/codec.hpp"
#include "topo/topology.hpp"

namespace fibbing::igp {

using SeqNum = std::uint64_t;

/// One link advertised inside a Router-LSA: the neighbor, the cost of the
/// outgoing interface, and the transfer network (needed by every router to
/// resolve external forwarding addresses, like OSPF stub entries).
struct LsaLink {
  topo::NodeId neighbor = topo::kInvalidNode;
  topo::Metric metric = 1;
  net::Prefix subnet;        // the /30 transfer network
  net::Ipv4 local_addr;      // originator's address inside `subnet`
};

/// A prefix originated by the router (OSPF intra-area stub route).
struct LsaPrefix {
  net::Prefix prefix;
  topo::Metric metric = 0;
};

/// Router-LSA: the originator's view of its own adjacencies and prefixes.
struct RouterLsa {
  topo::NodeId origin = topo::kInvalidNode;
  std::vector<LsaLink> links;
  std::vector<LsaPrefix> prefixes;
};

/// External-LSA: the vehicle of Fibbing lies (OSPF type-5 with forwarding
/// address). Announces `prefix` at `ext_metric`; routers compute
///   cost = dist(self, subnet owning forwarding_address) + ext_metric
/// and forward toward the forwarding address. `lie_id` distinguishes
/// replicated lies for the same prefix (uneven splitting); the controller
/// sets it to the lie's wire link state id. `withdrawn` models an OSPF
/// MaxAge purge.
struct ExternalLsa {
  std::uint64_t lie_id = 0;
  net::Prefix prefix;
  topo::Metric ext_metric = 0;
  net::Ipv4 forwarding_address;
  bool withdrawn = false;
};

using LsaBody = std::variant<RouterLsa, ExternalLsa>;

enum class LsaType : std::uint8_t { kRouter = 1, kExternal = 5 };

/// Identity of an LSA in the LSDB: its wire identity (RFC 2328 12.1) in the
/// simulator's terms. `key` is the originating node for Router-LSAs and the
/// link state id for External-LSAs, whose advertising router is always the
/// controller (proto::lsa_key is the mapping). For a controller lie the
/// link state id IS the lie id.
struct LsaKey {
  LsaType type = LsaType::kRouter;
  std::uint64_t key = 0;

  friend auto operator<=>(const LsaKey&, const LsaKey&) = default;
};

/// One LSA instance: the semantic view SPF reads, plus `wire`, the
/// finalized RFC 2328 form it arrived or was originated as -- what DD
/// summaries list, LS Requests are answered from and floods re-send. A
/// router's LSDB entry is exactly one of these; `wire` stays empty on
/// instances built outside a router (make_*_lsa, tests).
struct Lsa {
  LsaKey id;
  SeqNum seq = 1;
  LsaBody body;
  proto::WireLsa wire{};
};

/// Shared-ownership handle to an immutable LSA instance. Each router
/// decodes its own copy of a flooded instance; the handle lets readers of
/// a database (Lsdb::all, a rebuilt database) share its entries without
/// deep-copying them.
using LsaPtr = std::shared_ptr<const Lsa>;

/// The link state id an External-LSA for (prefix, lie_id) carries on the
/// wire: the prefix network with the lie id's host bits (appendix E). The
/// controller numbers the k-th lie of a set for P as external_ls_id(P, k),
/// k = 1..n, so its lie ids ARE their link state ids. Ids that agree modulo
/// 2^(32-len) share one wire identity; the controller session and every
/// router refuse a different lie at an identity already held.
[[nodiscard]] std::uint32_t external_ls_id(const net::Prefix& prefix,
                                           std::uint64_t lie_id);

/// How many host-bit values `prefix` has: 2^(32 - prefix length). Slot 0
/// (the network address) is never a lie's, so a set for the prefix holds at
/// most max_coexisting_lies - 1 lies.
[[nodiscard]] std::uint64_t max_coexisting_lies(const net::Prefix& prefix);

/// Build `node`'s Router-LSA from the topology. Links whose id is marked in
/// `down_links` (when non-empty) are omitted, as after an interface failure.
[[nodiscard]] Lsa make_router_lsa(const topo::Topology& topo, topo::NodeId node,
                                  SeqNum seq = 1,
                                  const std::vector<bool>& down_links = {});
/// Keyed by external_ls_id(ext.prefix, ext.lie_id).
[[nodiscard]] Lsa make_external_lsa(const ExternalLsa& ext, SeqNum seq = 1);

[[nodiscard]] std::string to_string(const Lsa& lsa);

}  // namespace fibbing::igp

template <>
struct std::hash<fibbing::igp::LsaKey> {
  std::size_t operator()(const fibbing::igp::LsaKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(k.key * 8 + static_cast<std::uint8_t>(k.type));
  }
};
