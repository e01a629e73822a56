#include "igp/view.hpp"

#include <algorithm>
#include <iterator>
#include <map>

#include "util/assert.hpp"

namespace fibbing::igp {

namespace {

/// The Subnet record of a transfer network claimed exactly twice.
template <typename Claims>
NetworkView::Subnet paired(const net::Prefix& prefix, const Claims& claims) {
  const auto& a = claims[0];
  const auto& b = claims[1];
  return NetworkView::Subnet{prefix, a.origin, b.origin, a.metric, b.metric, a.addr, b.addr};
}

}  // namespace

NetworkView NetworkView::from_topology(const topo::Topology& topo,
                                       std::vector<External> externals,
                                       const topo::LinkStateMask* link_state) {
  const auto down = [&](topo::LinkId lid) {
    return link_state != nullptr && link_state->is_down(lid);
  };
  NetworkView view;
  view.adj_.resize(topo.node_count());
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    for (const topo::LinkId lid : topo.out_links(n)) {
      if (down(lid)) continue;
      const topo::Link& link = topo.link(lid);
      view.adj_[n].push_back(Edge{link.to, link.metric});
    }
  }
  // One Subnet per bidirectional pair: take the direction with from < to.
  for (topo::LinkId lid = 0; lid < topo.link_count(); ++lid) {
    if (down(lid)) continue;
    const topo::Link& link = topo.link(lid);
    if (link.from < link.to) {
      const topo::Link& rev = topo.link(link.reverse);
      view.subnets_.push_back(Subnet{link.subnet, link.from, link.to, link.metric,
                                     rev.metric, link.local_addr, rev.local_addr});
    }
  }
  for (const auto& att : topo.prefixes()) {
    view.attachments_.push_back(Attachment{att.prefix, att.node, att.metric});
  }
  std::ranges::sort(view.subnets_, {}, &Subnet::prefix);
  view.externals_ = std::move(externals);
  return view;
}

NetworkView NetworkView::from_lsdb(const Lsdb& lsdb, std::size_t node_count) {
  NetworkView view;
  view.adj_.resize(node_count);
  const std::vector<const Lsa*> by_key = lsdb.live();
  // Only use an adjacency if the neighbor's Router-LSA is also present
  // (OSPF's two-way check).
  std::vector<bool> present(node_count, false);
  for (const Lsa* lsa : by_key) {
    if (const auto* router = std::get_if<RouterLsa>(&lsa->body)) {
      FIB_ASSERT(router->origin < node_count, "from_lsdb: origin out of range");
      present[router->origin] = true;
    }
  }
  // Collect every claim on each subnet before emitting Subnet records.
  std::map<net::Prefix, std::vector<Half>>& claims = view.unpaired_;
  for (const Lsa* lsa : by_key) {
    if (const auto* router = std::get_if<RouterLsa>(&lsa->body)) {
      for (const LsaLink& link : router->links) {
        if (link.neighbor >= node_count || !present[link.neighbor]) continue;
        view.adj_[router->origin].push_back(Edge{link.neighbor, link.metric});
        claims[link.subnet].push_back(Half{router->origin, link.metric, link.local_addr});
      }
      for (const LsaPrefix& pfx : router->prefixes) {
        view.attachments_.push_back(Attachment{pfx.prefix, router->origin, pfx.metric});
      }
    } else if (const auto* ext = std::get_if<ExternalLsa>(&lsa->body)) {
      view.externals_.push_back(
          External{ext->lie_id, ext->prefix, ext->ext_metric, ext->forwarding_address});
    }
  }
  for (auto it = claims.begin(); it != claims.end();) {
    if (it->second.size() != 2) {  // half-configured adjacency: unusable
      ++it;
      continue;
    }
    view.subnets_.push_back(paired(it->first, it->second));
    it = claims.erase(it);
  }
  return view;
}

bool NetworkView::patch(const Lsdb& lsdb, const Lsa* before, const Lsa* after) {
  FIB_ASSERT(before != nullptr || after != nullptr, "NetworkView::patch: no change");
  const Lsa& changed = after != nullptr ? *after : *before;
  if (std::holds_alternative<ExternalLsa>(changed.body)) {
    const auto* ext = after != nullptr ? &std::get<ExternalLsa>(after->body) : nullptr;
    patch_external_(changed.id.key, ext != nullptr && !ext->withdrawn ? ext : nullptr);
    return true;
  }
  if (before == nullptr || after == nullptr) return false;
  patch_router_(lsdb, std::get<RouterLsa>(before->body),
                std::get<RouterLsa>(after->body));
  return true;
}

void NetworkView::patch_external_(std::uint64_t key, const ExternalLsa* live) {
  // from_lsdb lists live externals in LSDB key order, and a router's
  // External-LSA keys are their link state ids.
  const auto key_of = [](const External& e) -> std::uint64_t {
    return external_ls_id(e.prefix, e.lie_id);
  };
  const auto it = std::lower_bound(
      externals_.begin(), externals_.end(), key,
      [&](const External& e, std::uint64_t k) { return key_of(e) < k; });
  const bool held = it != externals_.end() && key_of(*it) == key;
  if (live == nullptr) {
    if (held) externals_.erase(it);
    return;
  }
  FIB_ASSERT(external_ls_id(live->prefix, live->lie_id) == key,
             "NetworkView::patch: external not keyed by its link state id");
  const External ext{live->lie_id, live->prefix, live->ext_metric, live->forwarding_address};
  if (held) {
    *it = ext;
  } else {
    externals_.insert(it, ext);
  }
}

void NetworkView::patch_router_(const Lsdb& lsdb, const RouterLsa& before,
                                const RouterLsa& after) {
  const topo::NodeId origin = after.origin;
  FIB_ASSERT(before.origin == origin && origin < adj_.size(),
             "NetworkView::patch: origin mismatch");
  // from_lsdb's two-way check: the neighbor's Router-LSA is present.
  const auto counted = [&](const LsaLink& link) {
    return lsdb.find(LsaKey{LsaType::kRouter, link.neighbor}) != nullptr;
  };
  std::vector<Edge>& out = adj_[origin];
  out.clear();
  for (const LsaLink& link : after.links) {
    if (counted(link)) out.push_back(Edge{link.neighbor, link.metric});
  }
  // from_lsdb lists attachments by origin: this origin's form one run.
  const auto first = std::lower_bound(
      attachments_.begin(), attachments_.end(), origin,
      [](const Attachment& att, topo::NodeId n) { return att.node < n; });
  const auto last = std::find_if(first, attachments_.end(), [&](const Attachment& att) {
    return att.node != origin;
  });
  std::vector<Attachment> mine;
  for (const LsaPrefix& pfx : after.prefixes) {
    mine.push_back(Attachment{pfx.prefix, origin, pfx.metric});
  }
  attachments_.insert(attachments_.erase(first, last), mine.begin(), mine.end());
  // Re-pair every subnet the origin claimed before or claims now.
  std::vector<net::Prefix> touched;
  for (const RouterLsa* lsa : {&before, &after}) {
    for (const LsaLink& link : lsa->links) {
      if (counted(link)) touched.push_back(link.subnet);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const net::Prefix& prefix : touched) {
    std::vector<Half> claims;
    for (const LsaLink& link : after.links) {
      if (link.subnet == prefix && counted(link)) {
        claims.push_back(Half{origin, link.metric, link.local_addr});
      }
    }
    repair_subnet_(prefix, origin, claims);
  }
}

void NetworkView::repair_subnet_(const net::Prefix& prefix, topo::NodeId origin,
                                 const std::vector<Half>& mine) {
  const auto record = std::ranges::lower_bound(subnets_, prefix, {}, &Subnet::prefix);
  const bool was_paired = record != subnets_.end() && record->prefix == prefix;
  const auto loose = unpaired_.find(prefix);
  std::vector<Half> claims;
  if (was_paired) {
    claims = {Half{record->a, record->metric_ab, record->addr_a},
              Half{record->b, record->metric_ba, record->addr_b}};
  } else if (loose != unpaired_.end()) {
    claims = std::move(loose->second);
  }
  // Swap in the origin's new claims where from_lsdb would list them: by
  // origin, then link order.
  std::erase_if(claims, [&](const Half& h) { return h.origin == origin; });
  claims.insert(std::find_if(claims.begin(), claims.end(),
                             [&](const Half& h) { return h.origin > origin; }),
                mine.begin(), mine.end());

  if (loose != unpaired_.end()) unpaired_.erase(loose);
  if (claims.size() == 2) {
    if (was_paired) {
      *record = paired(prefix, claims);
    } else {
      subnets_.insert(record, paired(prefix, claims));
    }
    return;
  }
  if (was_paired) subnets_.erase(record);
  if (!claims.empty()) unpaired_.emplace(prefix, std::move(claims));
}

const std::vector<NetworkView::Edge>& NetworkView::edges_from(topo::NodeId n) const {
  FIB_ASSERT(n < adj_.size(), "edges_from: node out of range");
  return adj_[n];
}

const NetworkView::Subnet* NetworkView::subnet(const net::Prefix& prefix) const {
  const auto it = std::ranges::lower_bound(subnets_, prefix, {}, &Subnet::prefix);
  return it != subnets_.end() && it->prefix == prefix ? &*it : nullptr;
}

std::optional<NetworkView::FwdAddrMatch> NetworkView::resolve_forwarding_address(
    net::Ipv4 addr) const {
  // The last subnet whose network address is <= addr: under the addressing
  // contract, the only one that can contain it.
  const auto after = std::ranges::upper_bound(
      subnets_, addr, {}, [](const Subnet& s) { return s.prefix.network(); });
  if (after == subnets_.begin()) return std::nullopt;
  const Subnet& s = *std::prev(after);
  if (!s.prefix.contains(addr)) return std::nullopt;
  if (addr == s.addr_a) return FwdAddrMatch{&s, s.a};
  if (addr == s.addr_b) return FwdAddrMatch{&s, s.b};
  return std::nullopt;
}

}  // namespace fibbing::igp
