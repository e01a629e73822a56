#include "proto/controller_session.hpp"

#include <algorithm>
#include <string>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace fibbing::proto {

ControllerSession::ControllerSession(const AddressMap& addrs, SendFn send)
    : addrs_(addrs), send_(std::move(send)) {
  FIB_ASSERT(send_ != nullptr, "ControllerSession: transport not wired");
}

void ControllerSession::send_update_(const igp::ExternalLsa& ext, igp::SeqNum seq) {
  const WireLsa wire = to_wire(igp::make_external_lsa(ext, seq), addrs_);
  unacked_[identity_of(wire.header)] = wire.header;
  LsUpdateBody lsu;
  lsu.lsas.push_back(wire);
  const Buffer bytes =
      encode_packet(Packet{kControllerRouterId, 0, std::move(lsu)});
  ++counters_.packets_sent;
  ++counters_.lsus_sent;
  ++counters_.lsas_sent;
  counters_.bytes_sent += bytes.size();
  send_(std::make_shared<const Buffer>(bytes));
}

util::Status ControllerSession::inject(const igp::ExternalLsa& ext) {
  FIB_ASSERT(!ext.withdrawn, "ControllerSession::inject: use retract()");
  const std::uint32_t wire_id = igp::external_ls_id(ext.prefix, ext.lie_id);
  if (const auto owner = wire_id_owner_.find(wire_id);
      owner != wire_id_owner_.end() && owner->second != ext.lie_id) {
    // Same host bits, different lie: on the wire the two are one LSA, and
    // the fresher instance would silently replace the other in every LSDB
    // that holds it -- a tombstone included. Refuse before anything floods.
    ++counters_.alias_rejections;
    const bool live = !last_.at(owner->second).withdrawn;
    return util::Status::failure(
        "lie " + std::to_string(ext.lie_id) + " aliases " +
        (live ? "live" : "retracted") + " lie " + std::to_string(owner->second) +
        " at wire identity: ids collide modulo 2^(32-len) for " +
        ext.prefix.to_string() + " (appendix-E host bits)");
  }
  if (const auto standing = last_.find(ext.lie_id);
      standing != last_.end() && standing->second.prefix != ext.prefix) {
    // The lie would move to another wire identity, leaving its old one
    // standing in every LSDB under the same lie id.
    ++counters_.alias_rejections;
    return util::Status::failure("lie " + std::to_string(ext.lie_id) +
                                 " was announced for " +
                                 standing->second.prefix.to_string() + ", not " +
                                 ext.prefix.to_string());
  }
  wire_id_owner_.emplace(wire_id, ext.lie_id);
  last_[ext.lie_id] = ext;
  send_update_(ext, ++lie_seq_[ext.lie_id]);
  return {};
}

util::Status ControllerSession::retract(std::uint64_t lie_id) {
  const auto it = last_.find(lie_id);
  if (it == last_.end()) {
    return util::Status::failure("retract: lie " + std::to_string(lie_id) +
                                 " was never announced");
  }
  if (it->second.withdrawn) {
    return util::Status::failure("retract: lie " + std::to_string(lie_id) +
                                 " is already retracted");
  }
  it->second.withdrawn = true;
  send_update_(it->second, ++lie_seq_[lie_id]);
  return {};
}

void ControllerSession::receive(const BufferPtr& buffer) {
  Decoded<Packet> decoded = decode_packet(*buffer);
  if (!decoded) {
    FIB_LOG(kWarn, "proto") << "controller session: undecodable packet ("
                            << to_string(decoded.error().kind) << ": "
                            << decoded.error().detail << ")";
    return;
  }
  if (const auto* lsu = std::get_if<LsUpdateBody>(&decoded.value().body)) {
    // The session router echoes controller-originated externals it installs
    // from *real* neighbors (RFC 13.4 on our behalf: routers cannot refresh
    // our LSAs, so the self-originated-LSA decision comes back here).
    for (const WireLsa& lsa : lsu->lsas) {
      if (lsa.header.type != WireLsaType::kExternal) continue;
      if (lsa.header.advertising_router != kControllerRouterId) continue;
      const auto* body = std::get_if<ExternalLsaBody>(&lsa.body);
      if (body == nullptr) continue;
      const auto it = last_.find(body->route_tag);
      if (it == last_.end()) continue;  // not a lie we remember
      if (!it->second.withdrawn || lsa.header.age == kMaxAge) continue;
      // A lie we retracted is circulating live again: its tombstone was
      // flushed (RFC 14) and a healed partition resurrected the stale
      // announcement. Re-issue the tombstone above both the resurrected
      // instance and everything we ever sent.
      auto& seq = lie_seq_.at(body->route_tag);
      seq = std::max(seq, from_wire_seq(lsa.header.seq));
      ++counters_.reflushes;
      FIB_LOG(kInfo, "proto")
          << "controller session: retracted lie " << body->route_tag
          << " resurrected by the domain; re-flushing";
      send_update_(it->second, ++seq);
    }
    return;
  }
  const auto* ack = std::get_if<LsAckBody>(&decoded.value().body);
  if (ack == nullptr) return;
  for (const LsaHeader& header : ack->headers) {
    const auto it = unacked_.find(identity_of(header));
    if (it == unacked_.end()) continue;
    if (compare_instances(header, it->second) >= 0) {
      unacked_.erase(it);
      ++counters_.acks_received;
    }
  }
}

}  // namespace fibbing::proto
