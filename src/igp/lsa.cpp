#include "igp/lsa.hpp"

#include <sstream>

namespace fibbing::igp {

Lsa make_router_lsa(const topo::Topology& topo, topo::NodeId node, SeqNum seq,
                    const std::vector<bool>& down_links) {
  RouterLsa body;
  body.origin = node;
  for (const topo::LinkId lid : topo.out_links(node)) {
    if (lid < down_links.size() && down_links[lid]) continue;
    const topo::Link& link = topo.link(lid);
    body.links.push_back(LsaLink{link.to, link.metric, link.subnet, link.local_addr});
  }
  for (const auto& att : topo.prefixes()) {
    if (att.node == node) body.prefixes.push_back(LsaPrefix{att.prefix, att.metric});
  }
  return Lsa{LsaKey{LsaType::kRouter, node}, seq, std::move(body)};
}

std::uint32_t external_ls_id(const net::Prefix& prefix, std::uint64_t lie_id) {
  // Appendix E: concurrent instances for one prefix are told apart by the
  // host bits of the link state id. The lie id also rides in the route tag,
  // so decoding is exact; for controller lies the two are one number.
  const std::uint32_t host_bits = ~net::mask_for(prefix.length());
  return prefix.network().bits() |
         (static_cast<std::uint32_t>(lie_id) & host_bits);
}

std::uint64_t max_coexisting_lies(const net::Prefix& prefix) {
  return 1ull << (32 - prefix.length());
}

Lsa make_external_lsa(const ExternalLsa& ext, SeqNum seq) {
  return Lsa{LsaKey{LsaType::kExternal, external_ls_id(ext.prefix, ext.lie_id)}, seq,
             ext};
}

std::string to_string(const Lsa& lsa) {
  std::ostringstream out;
  if (const auto* router = std::get_if<RouterLsa>(&lsa.body)) {
    out << "RouterLSA(origin=" << router->origin << " seq=" << lsa.seq
        << " links=" << router->links.size() << " prefixes=" << router->prefixes.size()
        << ")";
  } else if (const auto* ext = std::get_if<ExternalLsa>(&lsa.body)) {
    out << "ExternalLSA(lie=" << ext->lie_id << " seq=" << lsa.seq << " "
        << ext->prefix.to_string() << " metric=" << ext->ext_metric
        << " fwd=" << ext->forwarding_address.to_string()
        << (ext->withdrawn ? " WITHDRAWN" : "") << ")";
  }
  return out.str();
}

}  // namespace fibbing::igp
