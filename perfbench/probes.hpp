// Per-layer probes of the traced run: each times one layer's public
// function on the workload's own live state, from outside the program.
//
//   proto  encode_packet / decode_packet / lsa_checksum_ok over an LS Update
//          carrying one router's converged LSDB (ns per byte)
//   igp    run_spf, update_spf on a one-link delta, NetworkView::from_lsdb,
//          Lsdb::install of a whole LSDB into a fresh database
//   cache  RouteCache::tables for the installed lie set, cold and on a hit
//   te     solve_min_max per placed prefix, configured as the controller does
//   core   compile_lies through the controller's route cache, the cacheless
//          compile, and verify_augmentation
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/lie.hpp"
#include "core/service.hpp"
#include "igp/route_cache.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The controller's active lies that the IGP actually holds: those live in
/// the session router's LSDB. A lie the routers refused (the appendix-E
/// aliasing defect) is active for the controller but absent here.
[[nodiscard]] std::vector<fibbing::core::Lie> installed_lies(
    fibbing::core::FibbingService& service);

class Probes {
 public:
  /// Run every probe once on the service's current state. `point` numbers
  /// the probe points of a pass, `step` is the workload step the spans
  /// belong to, `now_s` the virtual time.
  void run(fibbing::core::FibbingService& service, const fibbing::topo::Topology& topo,
           const Inputs& inputs, std::uint64_t point, std::uint64_t step, double now_s,
           SpanLog* spans);

  /// Median of each probe's samples, keyed by metric name.
  [[nodiscard]] std::map<std::string, double> medians() const;
  /// Sample count of each probe.
  [[nodiscard]] std::map<std::string, std::size_t> counts() const;

  /// Work the probes added to the controller's route cache; the harness
  /// subtracts it so cache.* counters report the workload alone.
  [[nodiscard]] const fibbing::igp::RouteCacheStats& controller_cache_work() const {
    return cache_work_;
  }

 private:
  void probe_proto_(fibbing::core::FibbingService& service, fibbing::topo::NodeId router,
                    SpanLog* spans, std::uint64_t step);
  void probe_igp_(fibbing::core::FibbingService& service, const fibbing::topo::Topology& topo,
                  fibbing::topo::NodeId router, SpanLog* spans, std::uint64_t step);
  void probe_placement_(fibbing::core::FibbingService& service,
                        const fibbing::topo::Topology& topo, const fibbing::net::Prefix& prefix,
                        const std::vector<fibbing::te::Demand>& demands, SpanLog* spans,
                        std::uint64_t step);
  void record_(const std::string& name, double value) { samples_[name].push_back(value); }

  std::map<std::string, std::vector<double>> samples_;
  fibbing::igp::RouteCacheStats cache_work_{};
};

}  // namespace perfbench
