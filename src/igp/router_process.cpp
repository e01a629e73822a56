#include "igp/router_process.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace fibbing::igp {

RouterProcess::RouterProcess(topo::NodeId self, std::size_t node_count,
                             const proto::AddressMap& addrs,
                             util::Scheduler& events, IgpTiming timing)
    : self_(self),
      node_count_(node_count),
      addrs_(&addrs),
      events_(events),
      timing_(timing) {}

void RouterProcess::add_neighbor(topo::NodeId peer) {
  FIB_ASSERT(!sessions_.contains(peer), "add_neighbor: session already exists");
  proto::SessionConfig config;
  config.rxmt_interval_s = timing_.rxmt_interval_s;
  config.hello_interval_s = timing_.hello_interval_s;
  config.dead_interval_s = timing_.dead_interval_s;
  config.flood_batch_window_s = timing_.flood_batch_window_s;
  config.ack_delay_s = timing_.ack_delay_s;
  auto session = std::make_unique<proto::NeighborSession>(
      addrs_->router_id(self_), addrs_->router_id(peer),
      static_cast<proto::DatabaseFacade&>(*this), events_, config,
      [this, peer](const proto::BufferPtr& buffer) {
        FIB_ASSERT(send_ != nullptr, "RouterProcess: transport not wired");
        send_(self_, peer, buffer);
      });
  session->set_on_event([this, peer](proto::SessionEvent event) {
    on_session_event_(peer, event);
  });
  if (started_) session->start();
  sessions_.emplace(peer, std::move(session));
}

void RouterProcess::remove_neighbor(topo::NodeId peer) {
  const auto it = sessions_.find(peer);
  if (it == sessions_.end()) return;
  it->second->shutdown();
  retired_ += it->second->counters();
  sessions_.erase(it);
  // The dead session's retransmission and pending lists are gone; any
  // tombstone it alone still referenced is now flushable.
  sweep_tombstones_();
}

void RouterProcess::on_session_event_(topo::NodeId peer,
                                      proto::SessionEvent event) {
  // Reaching Full empties the exchange lists; losing the adjacency clears
  // them -- either way tombstone flushes may have unblocked.
  sweep_tombstones_();
  if (on_adjacency_) {
    on_adjacency_(self_, peer, event == proto::SessionEvent::kAdjacencyFull);
  }
}

void RouterProcess::start() {
  FIB_ASSERT(!started_, "RouterProcess::start called twice");
  started_ = true;
  for (auto& [peer, session] : sessions_) session->start();
}

const proto::NeighborSession* RouterProcess::session(topo::NodeId peer) const {
  const auto it = sessions_.find(peer);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool RouterProcess::synchronized() const {
  for (const auto& [peer, session] : sessions_) {
    if (!session->synchronized()) return false;
  }
  return true;
}

bool RouterProcess::quiescent() const {
  for (const auto& [peer, session] : sessions_) {
    if (!session->quiescent()) return false;
  }
  return true;
}

proto::SessionCounters RouterProcess::counters() const {
  proto::SessionCounters total = retired_;
  total += controller_io_;
  for (const auto& [peer, session] : sessions_) total += session->counters();
  return total;
}

void RouterProcess::index_tombstone_(const proto::LsaHeader& header) {
  if (header.age == proto::kMaxAge) {
    tombstones_.insert(proto::identity_of(header));
  } else {
    tombstones_.erase(proto::identity_of(header));
  }
}

void RouterProcess::maybe_flush_tombstone_(const proto::LsaIdentity& id) {
  // RFC 14: a MaxAge instance leaves the database once it is off every
  // neighbor's retransmission (and pending) list and no neighbor is mid
  // database exchange -- every adjacent replica provably saw the flush.
  const proto::WireLsa* stored = lookup(id);
  if (stored == nullptr || stored->header.age != proto::kMaxAge) return;
  for (const auto& [peer, session] : sessions_) {
    if (session->in_exchange() || session->references(id)) return;
  }
  FIB_LOG(kDebug, "igp") << "router " << self_ << ": flushing MaxAge tombstone";
  const LsaKey key = *proto::lsa_key(id, *addrs_);
  patch_view_(lsdb_.find(key), nullptr);
  lsdb_.erase(key);
  tombstones_.erase(id);
  ++tombstones_flushed_;
}

void RouterProcess::sweep_tombstones_() {
  if (tombstones_.empty()) return;
  const std::vector<proto::LsaIdentity> ids(tombstones_.begin(),
                                            tombstones_.end());
  for (const proto::LsaIdentity& id : ids) maybe_flush_tombstone_(id);
}

void RouterProcess::on_flood_acked(const proto::LsaIdentity& id) {
  if (tombstones_.contains(id)) maybe_flush_tombstone_(id);
}

void RouterProcess::originate(Lsa lsa) {
  lsa.wire = proto::to_wire(lsa, *addrs_);
  const LsaPtr stored = std::make_shared<const Lsa>(std::move(lsa));
  LsaPtr replaced;
  if (lsdb_.install(stored, &replaced) != Lsdb::InstallResult::kNewer) return;
  patch_view_(replaced.get(), stored.get());
  const proto::LsaHeader& header = stored->wire.header;
  index_tombstone_(header);
  flood_(proto::identity_of(header), /*except_router_id=*/addrs_->router_id(self_));
  schedule_spf_();
  if (header.age == proto::kMaxAge) maybe_flush_tombstone_(proto::identity_of(header));
}

void RouterProcess::flood_(const proto::LsaIdentity& id,
                           std::uint32_t except_router_id) {
  // Each session coalesces floods landing within its batching window into
  // one LS Update (RFC 13.5), so per-session queuing replaced the old
  // shared-buffer encode: batch composition differs per neighbor.
  for (auto& [peer, session] : sessions_) {
    if (session->peer_id() == except_router_id) continue;
    session->flood(id);  // no-op below Exchange: DD sync covers those
  }
}

void RouterProcess::echo_to_controller_(const proto::WireLsa& lsa) {
  proto::LsUpdateBody echo;
  echo.lsas.push_back(lsa);
  proto::Packet packet{addrs_->router_id(self_), 0, std::move(echo)};
  auto bytes =
      std::make_shared<const proto::Buffer>(proto::encode_packet(packet));
  ++controller_io_.packets_sent;
  ++controller_io_.lsus_sent;
  ++controller_io_.lsas_sent;
  controller_io_.bytes_sent += bytes->size();
  controller_send_(bytes);
}

std::vector<proto::LsaHeader> RouterProcess::summarize() const {
  // Key order is wire-identity order: router ids ascend with node ids, and
  // both type enums put Router before External.
  const std::vector<LsaPtr> all = lsdb_.all();
  std::vector<proto::LsaHeader> headers;
  headers.reserve(all.size());
  for (const LsaPtr& lsa : all) headers.push_back(lsa->wire.header);
  return headers;
}

const proto::WireLsa* RouterProcess::lookup(const proto::LsaIdentity& id) const {
  const std::optional<LsaKey> key = proto::lsa_key(id, *addrs_);
  const Lsa* lsa = key ? lsdb_.find(*key) : nullptr;
  return lsa == nullptr ? nullptr : &lsa->wire;
}

proto::DatabaseFacade::DeliverResult RouterProcess::deliver(
    const proto::WireLsa& lsa, std::uint32_t from_router_id) {
  ++lsas_received_;
  // Flooding delivers most instances once per adjacency, so the common case
  // is a copy we already hold: settle that from the stored wire header
  // before paying for translation.
  const proto::WireLsa* mine = lookup(proto::identity_of(lsa.header));
  if (mine != nullptr) {
    if (lsa.header.type == proto::WireLsaType::kExternal) {
      const auto& incoming = std::get<proto::ExternalLsaBody>(lsa.body);
      const auto& stored = std::get<proto::ExternalLsaBody>(mine->body);
      if (incoming.route_tag != stored.route_tag) {
        // Appendix-E aliasing: a *different* lie (route tag) arrived under
        // the wire identity a stored lie -- live or tombstoned -- holds:
        // their ids collide modulo 2^(32-len) of the prefix. Installing it
        // would replace the stored lie here and in every LSDB flooding
        // reaches.
        // Refuse the instance and ack it so retransmission stops; the
        // counter surfaces the event to tests and operators.
        ++alias_collisions_;
        FIB_LOG(kWarn, "igp")
            << "router " << self_ << ": external LSA aliasing: lie "
            << incoming.route_tag << " collides with stored lie "
            << stored.route_tag << " at one wire identity; rejected";
        return DeliverResult::kDuplicate;
      }
    }
    const int order = proto::compare_instances(lsa.header, mine->header);
    if (order <= 0) {
      return order == 0 ? DeliverResult::kDuplicate : DeliverResult::kStale;
    }
  } else if (lsa.header.age == proto::kMaxAge) {
    // RFC 13 step (4): a MaxAge instance of an LSA we hold no copy of, with
    // no neighbor mid database exchange, is acknowledged directly and never
    // installed -- re-installing a withdrawal we already flushed would only
    // restart its flood.
    bool exchanging = false;
    for (const auto& [peer, session] : sessions_) {
      if (session->in_exchange()) {
        exchanging = true;
        break;
      }
    }
    if (!exchanging) return DeliverResult::kDuplicate;
  }
  proto::Decoded<Lsa> translated = proto::from_wire(lsa, *addrs_);
  if (!translated) {
    // The checksum held, so this is a structurally valid LSA referencing
    // things this domain does not know -- drop it (and ack, so the sender
    // stops retransmitting an instance we will never install).
    ++decode_errors_;
    FIB_LOG(kWarn, "igp") << "router " << self_ << ": untranslatable LSA ("
                          << proto::to_string(translated.error().kind) << ": "
                          << translated.error().detail << ")";
    return DeliverResult::kDuplicate;
  }
  const LsaPtr installed = std::make_shared<const Lsa>(std::move(translated).value());
  LsaPtr replaced;
  switch (lsdb_.install(installed, &replaced)) {
    case Lsdb::InstallResult::kNewer:
      patch_view_(replaced.get(), installed.get());
      index_tombstone_(lsa.header);
      flood_(proto::identity_of(lsa.header), from_router_id);
      schedule_spf_();
      if (tracer_ != nullptr && tracer_->enabled() &&
          lsa.header.type == proto::WireLsaType::kExternal &&
          lsa.header.advertising_router == proto::kControllerRouterId &&
          lsa.header.age != proto::kMaxAge) {
        // A live lie landed in this replica (the route tag carries its lie
        // id). Stamp its trace's LSA-install stage and remember it for the
        // SPF run the schedule above just armed.
        const std::uint64_t lie = std::get<proto::ExternalLsaBody>(lsa.body).route_tag;
        if (const std::uint64_t trace = tracer_->trace_for_lie(lie); trace != 0) {
          tracer_->emit_lane(trace_lane_, events_.now(), trace,
                             obs::Stage::kLsaInstall,
                             static_cast<std::uint32_t>(self_), lie);
          pending_trace_lies_.insert(lie);
        }
      }
      if (controller_peer_ && controller_send_ != nullptr &&
          from_router_id != proto::kControllerRouterId &&
          lsa.header.type == proto::WireLsaType::kExternal &&
          lsa.header.advertising_router == proto::kControllerRouterId) {
        // A controller-originated lie arrived over a *real* adjacency and
        // superseded our copy -- e.g. a healed partition resurrecting an
        // instance whose tombstone was already flushed (RFC 13.4, applied
        // on the controller's behalf). Echo it up the controller session,
        // which re-flushes withdrawn lies at a fresher sequence.
        echo_to_controller_(lsa);
      }
      if (lsa.header.age == proto::kMaxAge) {
        // If no adjacency took the flood (all Full neighbors already acked
        // or none exist), the tombstone is flushable right now.
        maybe_flush_tombstone_(proto::identity_of(lsa.header));
      }
      return DeliverResult::kNewer;
    case Lsdb::InstallResult::kDuplicate:
      return DeliverResult::kDuplicate;
    case Lsdb::InstallResult::kStale:
      return DeliverResult::kStale;
  }
  return DeliverResult::kDuplicate;
}

void RouterProcess::receive_packet(topo::NodeId from, const BufferPtr& buffer) {
  ++packets_received_;
  proto::Decoded<proto::Packet> decoded = proto::decode_packet(*buffer);
  if (!decoded) {
    ++decode_errors_;
    FIB_LOG(kWarn, "igp") << "router " << self_ << ": undecodable packet from "
                          << from << " (" << proto::to_string(decoded.error().kind)
                          << ": " << decoded.error().detail << ")";
    return;
  }
  const auto it = sessions_.find(from);
  if (it == sessions_.end()) return;  // adjacency raced away: drop
  it->second->receive(decoded.value());
}

void RouterProcess::receive_controller_packet(const BufferPtr& buffer) {
  ++packets_received_;
  proto::Decoded<proto::Packet> decoded = proto::decode_packet(*buffer);
  if (!decoded) {
    ++decode_errors_;
    FIB_LOG(kWarn, "igp") << "router " << self_
                          << ": undecodable controller packet ("
                          << proto::to_string(decoded.error().kind) << ")";
    return;
  }
  const auto* lsu = std::get_if<proto::LsUpdateBody>(&decoded.value().body);
  if (lsu == nullptr) return;  // the controller only speaks LS Updates
  proto::LsAckBody ack;
  for (const proto::WireLsa& lsa : lsu->lsas) {
    // The controller adjacency behaves like an always-Full neighbor outside
    // the flooding graph: install and flood to every real adjacency.
    deliver(lsa, proto::kControllerRouterId);
    ack.headers.push_back(lsa.header);
  }
  if (ack.headers.empty() || controller_send_ == nullptr) return;
  proto::Packet response{addrs_->router_id(self_), 0, std::move(ack)};
  auto bytes =
      std::make_shared<const proto::Buffer>(proto::encode_packet(response));
  ++controller_io_.packets_sent;
  ++controller_io_.lsacks_sent;
  controller_io_.bytes_sent += bytes->size();
  controller_send_(bytes);
}

void RouterProcess::schedule_spf_() {
  if (spf_pending_) return;  // hold-down: batch further LSDB changes
  spf_pending_ = true;
  events_.schedule_in(timing_.spf_delay_s, [this] {
    spf_pending_ = false;
    run_spf_now_();
  });
}

void RouterProcess::patch_view_(const Lsa* before, const Lsa* after) {
  if (view_stale_) return;  // the next SPF run rebuilds from the LSDB
  const Lsa& changed = after != nullptr ? *after : *before;
  if (const auto* router = std::get_if<RouterLsa>(&changed.body)) {
    changed_edges_.try_emplace(router->origin, view_.edges_from(router->origin));
  }
  view_stale_ = !view_.patch(lsdb_, before, after);
}

namespace {

/// Append node `u`'s directed adjacency changes from `before` to `after`:
/// the multiset difference of the two out-edge lists (a metric change shows
/// up as a removal plus an insertion), in (to, metric) order.
void append_edge_deltas(topo::NodeId u, const std::vector<NetworkView::Edge>& before,
                        const std::vector<NetworkView::Edge>& after,
                        std::vector<EdgeDelta>& deltas) {
  if (before == after) return;
  const auto by_key = [](const NetworkView::Edge& x, const NetworkView::Edge& y) {
    return std::pair(x.to, x.metric) < std::pair(y.to, y.metric);
  };
  std::vector<NetworkView::Edge> a = before;
  std::vector<NetworkView::Edge> b = after;
  std::sort(a.begin(), a.end(), by_key);
  std::sort(b.begin(), b.end(), by_key);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && by_key(a[i], b[j]))) {
      deltas.push_back(EdgeDelta{u, a[i].to, a[i].metric, /*removed=*/true});
      ++i;
    } else if (i == a.size() || by_key(b[j], a[i])) {
      deltas.push_back(EdgeDelta{u, b[j].to, b[j].metric, /*removed=*/false});
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

/// Past this many flipped directed edges the change is a bulk LSDB
/// transition (boot, partition heal): repair would touch most of the graph,
/// so run the full Dijkstra directly.
constexpr std::size_t kMaxRouterSpfDeltas = 16;

}  // namespace

void RouterProcess::run_spf_now_() {
  ++spf_runs_;
  const bool first_run = spf_runs_ == 1;
  // The hold-down window's adjacency changes: every changed node's
  // snapshot against its current out-edges, in ascending node order -- and
  // every node when the view has to be rebuilt.
  std::vector<EdgeDelta> deltas;
  if (view_stale_) {
    NetworkView fresh = NetworkView::from_lsdb(lsdb_, node_count_);
    ++view_rebuilds_;
    for (topo::NodeId u = 0; !first_run && u < node_count_; ++u) {
      // Untouched nodes' out-edges in view_ are still the previous run's.
      const auto it = changed_edges_.find(u);
      append_edge_deltas(u, it != changed_edges_.end() ? it->second : view_.edges_from(u),
                         fresh.edges_from(u), deltas);
    }
    view_ = std::move(fresh);
    view_stale_ = false;
  } else {
    for (const auto& [u, before] : changed_edges_) {
      append_edge_deltas(u, before, view_.edges_from(u), deltas);
    }
  }
  changed_edges_.clear();
  // Lie (External-LSA) churn leaves no deltas: the old distances are
  // certified unchanged and only routes are recomputed.
  bool avoided_full = false;
  if (first_run || deltas.size() > kMaxRouterSpfDeltas) {
    prev_spf_ = run_spf(view_, self_);
  } else {
    SpfUpdate update = update_spf(view_, prev_spf_, deltas);
    avoided_full = update.mode != SpfUpdate::Mode::kFull;
    if (update.mode != SpfUpdate::Mode::kUnchanged) prev_spf_ = std::move(update.result);
  }
  if (avoided_full) ++spf_incremental_runs_;
  table_ = compute_routes(view_, prev_spf_);
  FIB_LOG(kDebug, "igp") << "router " << self_ << " spf run #" << spf_runs_ << ", "
                         << table_.size() << " routes"
                         << (avoided_full ? " (incremental)" : "");
  // This run consumed every traced lie installed since the previous run:
  // stamp one kSpf per distinct trace (sorted lie order -- pending is a
  // set -- so the stream is independent of install interleaving), and keep
  // the ids for the table-flip stamp at flush time.
  last_spf_lie_ids_.assign(pending_trace_lies_.begin(), pending_trace_lies_.end());
  pending_trace_lies_.clear();
  if (tracer_ != nullptr && tracer_->enabled() && !last_spf_lie_ids_.empty()) {
    std::set<std::uint64_t> stamped;
    for (const std::uint64_t lie : last_spf_lie_ids_) {
      const std::uint64_t trace = tracer_->trace_for_lie(lie);
      if (trace == 0 || !stamped.insert(trace).second) continue;
      tracer_->emit_lane(trace_lane_, events_.now(), trace, obs::Stage::kSpf,
                         static_cast<std::uint32_t>(self_), lie);
    }
  }
  if (on_table_) on_table_(self_, table_);
}

}  // namespace fibbing::igp
