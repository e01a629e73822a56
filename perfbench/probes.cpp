#include "probes.hpp"

#include <algorithm>
#include <variant>

#include "core/augment.hpp"
#include "core/requirements.hpp"
#include "core/verify.hpp"
#include "igp/lsdb.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "proto/codec.hpp"
#include "proto/translate.hpp"
#include "te/minmax.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace fib = fibbing;

namespace {

/// Placed prefixes probed per probe point (each costs a solve, two
/// compiles and a verify).
constexpr std::size_t kPrefixesPerPoint = 3;
/// Per-ingress rate of the probe demand on workloads that place nothing.
constexpr double kProbeDemandBps = 2e9;
/// Lie ids of probe compiles, far above anything the controller allocates.
constexpr std::uint64_t kProbeLieIds = std::uint64_t{1} << 40;

/// Keeps probe results observable so the timed calls cannot be elided.
volatile std::size_t g_sink = 0;

/// Wall seconds per call of `fn`, repeated until at least `min_total_s`
/// has passed (short calls would otherwise measure the clock).
template <typename Fn>
double per_call_s(Fn&& fn, double min_total_s = 2e-3) {
  const Clock::time_point start = Clock::now();
  int calls = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = seconds_since(start);
  } while (elapsed < min_total_s);
  return elapsed / calls;
}

void add_stats(fib::igp::RouteCacheStats& into, const fib::igp::RouteCacheStats& after,
               const fib::igp::RouteCacheStats& before) {
  into.table_hits += after.table_hits - before.table_hits;
  into.table_builds += after.table_builds - before.table_builds;
  into.memo_evictions += after.memo_evictions - before.memo_evictions;
  into.baseline_builds += after.baseline_builds - before.baseline_builds;
  into.entries_patched += after.entries_patched - before.entries_patched;
  into.spf_full += after.spf_full - before.spf_full;
  into.spf_incremental += after.spf_incremental - before.spf_incremental;
  into.spf_unchanged += after.spf_unchanged - before.spf_unchanged;
  into.spf_batched += after.spf_batched - before.spf_batched;
  into.generations += after.generations - before.generations;
}

/// Demand toward `prefix` at `now_s`: the sessions the inputs keep open at
/// that instant, summed per server router.
std::vector<fib::te::Demand> session_demands(const Inputs& inputs,
                                             const fib::net::Prefix& prefix, double now_s) {
  std::map<NodeId, double> by_ingress;
  for (const SessionRequest& s : inputs.sessions) {
    if (s.at_s > now_s) break;
    if (inputs.prefixes[s.prefix] != prefix || s.at_s + s.duration_s <= now_s) continue;
    by_ingress[inputs.servers[s.server].node] += inputs.bitrate_bps;
  }
  std::vector<fib::te::Demand> out;
  for (const auto& [node, rate] : by_ingress) out.push_back({node, rate});
  return out;
}

}  // namespace

std::vector<fib::core::Lie> installed_lies(fib::core::FibbingService& service) {
  const fib::igp::Lsdb& lsdb =
      service.domain().router(service.controller().config().session_router).lsdb();
  std::vector<fib::core::Lie> out;
  for (const auto& [prefix, lies] : service.controller().active_lies()) {
    for (const fib::core::Lie& lie : lies) {
      const fib::igp::Lsa* lsa = lsdb.find({fib::igp::LsaType::kExternal, lie.id});
      if (lsa == nullptr) continue;
      const auto* ext = std::get_if<fib::igp::ExternalLsa>(&lsa->body);
      if (ext != nullptr && !ext->withdrawn) out.push_back(lie);
    }
  }
  return out;
}

void Probes::run(fib::core::FibbingService& service, const fib::topo::Topology& topo,
                 const Inputs& inputs, std::uint64_t point, std::uint64_t step, double now_s,
                 SpanLog* spans) {
  ScopedSpan whole(spans, "probes", step);
  const auto router = static_cast<NodeId>(point % topo.node_count());
  probe_proto_(service, router, spans, step);
  probe_igp_(service, topo, router, spans, step);

  // te/core: the placed prefixes with the demand the sessions put on them;
  // a workload that places nothing (igp_churn) probes its attached
  // prefixes with a fixed demand from three far-apart routers instead.
  std::vector<std::pair<fib::net::Prefix, std::vector<fib::te::Demand>>> targets;
  const auto& active = service.controller().active_lies();
  if (!active.empty()) {
    std::vector<fib::net::Prefix> placed;
    for (const auto& [prefix, lies] : active) placed.push_back(prefix);
    for (std::size_t i = 0; i < std::min(kPrefixesPerPoint, placed.size()); ++i) {
      const fib::net::Prefix& prefix = placed[(point + i) % placed.size()];
      std::vector<fib::te::Demand> demands = session_demands(inputs, prefix, now_s);
      if (!demands.empty()) targets.emplace_back(prefix, std::move(demands));
    }
  } else if (inputs.sessions.empty() && !topo.prefixes().empty()) {
    const fib::topo::PrefixAttachment& att = topo.prefixes()[point % topo.prefixes().size()];
    const std::size_t n = topo.node_count();
    std::vector<fib::te::Demand> demands;
    for (std::size_t k = 1; k <= 3; ++k) {
      demands.push_back({static_cast<NodeId>((att.node + k * n / 4) % n), kProbeDemandBps});
    }
    targets.emplace_back(att.prefix, std::move(demands));
  }
  for (const auto& [prefix, demands] : targets) {
    probe_placement_(service, topo, prefix, demands, spans, step);
  }
}

void Probes::probe_proto_(fib::core::FibbingService& service, NodeId router, SpanLog* spans,
                          std::uint64_t step) {
  ScopedSpan span(spans, "probe.proto", step);
  const fib::proto::AddressMap& addrs = service.domain().addresses();
  fib::proto::LsUpdateBody update;
  std::size_t lsa_bytes = 0;
  for (const fib::igp::LsaPtr& lsa : service.domain().router(router).lsdb().all()) {
    update.lsas.push_back(fib::proto::finalize_lsa(fib::proto::to_wire(*lsa, addrs)));
    lsa_bytes += update.lsas.back().header.length;
  }
  fib::proto::Packet packet;
  packet.router_id = addrs.router_id(router);
  packet.body = std::move(update);

  fib::proto::Buffer wire;
  const double encode_s = per_call_s([&] {
    wire = fib::proto::encode_packet(packet);
    g_sink = g_sink + wire.size();
  });
  const double decode_s = per_call_s([&] {
    const auto decoded = fib::proto::decode_packet(wire);
    g_sink = g_sink + (decoded.ok() ? 1 : 0);
  });
  const auto& lsas = std::get<fib::proto::LsUpdateBody>(packet.body).lsas;
  const double checksum_s = per_call_s([&] {
    std::size_t ok = 0;
    for (const fib::proto::WireLsa& lsa : lsas) ok += fib::proto::lsa_checksum_ok(lsa) ? 1 : 0;
    g_sink = g_sink + ok;
  });
  record_("proto.encode_ns_per_byte", encode_s * 1e9 / static_cast<double>(wire.size()));
  record_("proto.decode_ns_per_byte", decode_s * 1e9 / static_cast<double>(wire.size()));
  record_("proto.checksum_ns_per_byte",
          checksum_s * 1e9 / static_cast<double>(std::max<std::size_t>(lsa_bytes, 1)));
}

void Probes::probe_igp_(fib::core::FibbingService& service, const fib::topo::Topology& topo,
                        NodeId router, SpanLog* spans, std::uint64_t step) {
  ScopedSpan span(spans, "probe.igp", step);
  const fib::igp::Lsdb& lsdb = service.domain().router(router).lsdb();
  const std::size_t n = topo.node_count();

  fib::igp::NetworkView view = fib::igp::NetworkView::from_lsdb(lsdb, n);
  record_("igp.view_build_us", 1e6 * per_call_s([&] {
            view = fib::igp::NetworkView::from_lsdb(lsdb, n);
            g_sink = g_sink + view.node_count();
          }));
  fib::igp::SpfResult spf = fib::igp::run_spf(view, router);
  record_("igp.spf_full_us", 1e6 * per_call_s([&] {
            spf = fib::igp::run_spf(view, router);
            g_sink = g_sink + spf.dist.size();
          }));

  const std::vector<fib::igp::LsaPtr> all = lsdb.all();
  record_("igp.lsdb_install_us", 1e6 * per_call_s([&] {
            fib::igp::Lsdb fresh;
            for (const fib::igp::LsaPtr& lsa : all) fresh.install(lsa);
            g_sink = g_sink + fresh.size();
          }));

  // One-link delta: cut the first hop of this router's longest shortest
  // path, the change whose repair region is largest.
  NodeId far = router;
  for (NodeId v = 0; v < n; ++v) {
    if (spf.reaches(v) && !spf.first_hops[v].empty() && spf.dist[v] > spf.dist[far]) far = v;
  }
  if (far == router) return;
  const NodeId hop = spf.first_hops[far].front();
  const fib::topo::LinkId cut_link = topo.link_between(router, hop);
  if (cut_link == fib::topo::kInvalidLink) return;
  const fib::topo::LinkStateMask& live = service.link_state();
  fib::topo::LinkStateMask cut(topo);
  for (const fib::topo::LinkId l : live.down_links()) cut.fail(l);
  cut.fail(cut_link);
  const auto externals = fib::core::to_externals(installed_lies(service));
  const fib::igp::NetworkView before = fib::igp::NetworkView::from_topology(topo, externals, &live);
  const fib::igp::NetworkView after = fib::igp::NetworkView::from_topology(topo, externals, &cut);
  const fib::igp::SpfResult old = fib::igp::run_spf(before, router);
  // Callers keep the reverse adjacency across updates (RouteCache does).
  const fib::igp::ReverseAdjacency rin = fib::igp::reverse_adjacency(after);
  const fib::topo::Link& link = topo.link(cut_link);
  record_("igp.spf_incremental_us", 1e6 * per_call_s([&] {
            const fib::igp::SpfUpdate update =
                fib::igp::update_spf(after, old, router, hop, link.metric,
                                     topo.link(link.reverse).metric, true, &rin);
            g_sink = g_sink + update.affected;
          }));
}

void Probes::probe_placement_(fib::core::FibbingService& service,
                              const fib::topo::Topology& topo, const fib::net::Prefix& prefix,
                              const std::vector<fib::te::Demand>& demands, SpanLog* spans,
                              std::uint64_t step) {
  const std::vector<fib::topo::PrefixAttachment> owners = topo.attachments_for(prefix);
  if (owners.empty()) return;
  const fib::topo::LinkStateMask& mask = service.link_state();
  const fib::core::ControllerConfig& config = service.controller().config();
  fib::igp::RouteCache& cache = service.controller().route_cache();
  const std::vector<fib::core::Lie> standing = installed_lies(service);

  {
    // Cold table build of the installed lie set, then the memo hit.
    ScopedSpan span(spans, "probe.cache", step);
    const auto externals = fib::core::to_externals(standing);
    fib::igp::RouteCache cold(topo, mask);
    const Clock::time_point start = Clock::now();
    const fib::igp::RouteCache::TablesPtr built = cold.tables(externals);
    record_("cache.tables_build_ms", 1e3 * seconds_since(start));
    record_("cache.tables_hit_us", 1e6 * per_call_s([&] {
              g_sink = g_sink + cold.tables(externals)->size();
            }));
    g_sink = g_sink + built->size();
  }

  // The controller's MinMaxConfig (Controller::place_prefix_).
  fib::te::MinMaxConfig mm;
  mm.max_stretch = config.max_stretch;
  mm.link_state = &mask;
  mm.granularity_floor = 1.0 / std::max<std::uint32_t>(config.max_replicas, 2);
  Clock::time_point start = Clock::now();
  const auto solution = [&] {
    ScopedSpan span(spans, "probe.te.solve_min_max", step);
    return fib::te::solve_min_max(topo, owners.front().node, demands, {}, mm);
  }();
  record_("te.solve_ms", 1e3 * seconds_since(start));
  if (!solution.ok()) return;

  const fib::core::DestRequirement req =
      fib::core::requirement_from_splits(prefix, solution.value().splits, config.max_replicas);
  fib::core::AugmentConfig aug;
  aug.first_lie_id = kProbeLieIds;
  aug.link_state = &mask;
  aug.route_cache = &cache;
  const fib::igp::RouteCacheStats before = cache.stats();
  start = Clock::now();
  const fib::core::CompileResult compiled = [&] {
    ScopedSpan span(spans, "probe.core.compile", step);
    return fib::core::compile_lies(topo, req, aug);
  }();
  record_("core.compile_ms", 1e3 * seconds_since(start));

  fib::core::AugmentConfig cold_aug = aug;
  cold_aug.route_cache = nullptr;
  start = Clock::now();
  {
    ScopedSpan span(spans, "probe.core.compile_cold", step);
    const fib::core::CompileResult cold = fib::core::compile_lies(topo, req, cold_aug);
    g_sink = g_sink + (cold.ok() ? 1 : 0);
  }
  record_("core.compile_cold_ms", 1e3 * seconds_since(start));

  if (compiled.ok()) {
    // Verify the compiled lies next to every other prefix's standing lies,
    // as they would coexist in the network.
    std::vector<fib::core::Lie> lies = compiled.value().lies;
    for (const fib::core::Lie& lie : standing) {
      if (lie.prefix != prefix) lies.push_back(lie);
    }
    start = Clock::now();
    {
      ScopedSpan span(spans, "probe.core.verify", step);
      const fib::core::VerifyReport report =
          fib::core::verify_augmentation(topo, req, lies, &mask, &cache);
      g_sink = g_sink + report.issues.size();
    }
    record_("core.verify_ms", 1e3 * seconds_since(start));
  }
  add_stats(cache_work_, cache.stats(), before);
}

std::map<std::string, double> Probes::medians() const {
  std::map<std::string, double> out;
  for (const auto& [name, samples] : samples_) {
    out[name] = fib::util::percentile(samples, 50.0);
  }
  return out;
}

std::map<std::string, std::size_t> Probes::counts() const {
  std::map<std::string, std::size_t> out;
  for (const auto& [name, samples] : samples_) out[name] = samples.size();
  return out;
}

}  // namespace perfbench
