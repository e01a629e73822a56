// perfbench harness: plays one named workload against the public
// core::FibbingService API, checks the program's outputs, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as the last line of stdout, one JSON object.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--out-dir DIR]
//
// The untraced run plays independent instances of the workload (each on a
// fresh service, in a child process) until --seconds of wall time have
// passed. The traced run plays one instance twice untraced, which must give
// identical counts, then once with the program's tracing on, the harness's
// spans recorded and the per-layer probes run. perfbench/README.md defines
// every metric and check.
//
// Exit status: 0 on success, 1 when a correctness check failed or no
// instance completed, 2 on a usage error.

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/lie.hpp"
#include "core/service.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace fib = fibbing;
using namespace perfbench;

namespace {

/// One poll interval: the longest stretch of virtual time a timed call plays.
constexpr double kStepS = 1.0;
/// Set-ups per run, at least: their median CPU time is setup_s.
constexpr int kMinSetups = 3;
/// Virtual seconds played after the last session request, before draining.
constexpr double kSessionTailS = 50.0;
/// Virtual seconds the last sessions get to finish playing; clients still
/// waiting after that give up (a session whose flow loops never finishes).
constexpr double kDrainCapS = 60.0;
/// Poll steps after every session ended, before lies must be gone.
constexpr int kRetractSteps = 30;
/// Traced passes probe every kProbeEvery-th loop sample.
constexpr std::size_t kProbeEvery = 16;
/// An instance that has not finished after this long is killed and counted
/// as failed (a link event whose reconvergence never ends, for one).
constexpr double kInstanceDeadlineS = 50.0;
/// A run stops starting instances after this long, completed or not.
constexpr double kGiveUpS = 90.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Registry keys whose values are levels, not running counts.
bool is_level(const std::string& key) {
  return key == "controller.active_lies" || key == "dataplane.flows" ||
         key == "dataplane.looping_flows" || key == "dataplane.blackholed_flows" ||
         key.rfind("trace.", 0) == 0;
}

/// Seconds of one timed stretch: wall clock, and the whole process's CPU
/// time (every program thread) scaled to nominal machine speed by
/// SpeedGauge. On kernels with paravirtual steal accounting CPU time also
/// leaves out what the hypervisor gave to other guests; the
/// regression-gated metrics use it.
struct Timing {
  double wall = 0.0;
  double cpu = 0.0;
  Timing& operator+=(const Timing& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// How fast the machine runs right now, from a fixed calibration kernel
/// (harness code, never program code) sampled between timed calls. On a
/// shared host, a neighbour on the sibling hyperthread or the same memory
/// bus slows every instruction without the kernel counting it as stolen
/// time: both CPU and wall time then swing by tens of percent within
/// minutes. Dividing CPU time by the kernel's current slowdown cancels what
/// slows both alike, so gated times read as CPU time at nominal speed.
class SpeedGauge {
 public:
  /// Run the kernel if kSampleEveryS of wall time passed since the last run.
  void maybe_sample() {
    if (!recent_.empty() && seconds_since(last_) < kSampleEveryS) return;
    const double start = process_cpu_s();
    g_calibration_sink = g_calibration_sink + kernel_();
    recent_.push_back(process_cpu_s() - start);
    if (recent_.size() > kKeep) recent_.erase(recent_.begin());
    last_ = Clock::now();
  }
  /// Current kernel time over its nominal time (1 at nominal speed).
  [[nodiscard]] double factor() const {
    if (recent_.empty()) return 1.0;
    return fib::util::percentile(recent_, 50.0) / kNominalS;
  }

 private:
  static constexpr double kSampleEveryS = 0.25;
  static constexpr std::size_t kKeep = 5;
  /// The kernel's CPU time on an unloaded 4-vCPU x86-64 guest (Release).
  static constexpr double kNominalS = 1.7e-3;
  static inline volatile std::uint64_t g_calibration_sink = 0;

  /// Dijkstra from several sources over a fixed sparse graph, keeping the
  /// settled distances in a std::map: heap, vector and node-based container
  /// traffic, the program's own mix.
  static std::uint64_t kernel_() {
    constexpr std::uint32_t kNodes = 512;
    constexpr std::uint32_t kDegree = 6;
    static const std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> graph = [] {
      std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> g(kNodes);
      std::uint64_t x = 0x9e3779b97f4a7c15ull;
      for (std::uint32_t u = 0; u < kNodes; ++u) {
        for (std::uint32_t k = 0; k < kDegree; ++k) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          g[u].emplace_back(static_cast<std::uint32_t>(x % kNodes),
                            1 + static_cast<std::uint32_t>((x >> 32) % 10));
        }
      }
      return g;
    }();
    std::uint64_t sum = 0;
    for (std::uint32_t source = 0; source < 8; ++source) {
      std::vector<std::uint32_t> dist(kNodes, ~0u);
      std::map<std::uint32_t, std::uint32_t> settled;
      using Item = std::pair<std::uint32_t, std::uint32_t>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
      dist[source] = 0;
      heap.emplace(0, source);
      while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d != dist[u] || !settled.emplace(u, d).second) continue;
        for (const auto& [v, w] : graph[u]) {
          if (d + w < dist[v]) {
            dist[v] = d + w;
            heap.emplace(d + w, v);
          }
        }
      }
      for (const auto& [node, d] : settled) sum += node ^ d;
    }
    return sum;
  }

  std::vector<double> recent_;
  Clock::time_point last_{};
};

SpeedGauge g_speed;

/// Wall time, and CPU time at nominal speed (see SpeedGauge).
class Stopwatch {
 public:
  [[nodiscard]] Timing elapsed() const {
    return {seconds_since(wall_), (process_cpu_s() - cpu_) / g_speed.factor()};
  }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = process_cpu_s();
};

/// What one pass measured and counted.
struct Pass {
  Timing setup;
  Timing run;  ///< summed over the timed calls
  std::vector<Timing> decisions;
  std::vector<Timing> reconvergences;
  /// The pass's deterministic outcome: registry deltas over play ("<key>")
  /// and over set-up ("<key>.setup"), plus what the harness counted.
  std::map<std::string, double> counts;
  std::map<std::string, double> reaction;  ///< trace.reaction.*_p50 (traced)
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  double peak_rss_mb = 0.0;  ///< of the process that played the pass
};

/// Redirect this process's stderr (where the program logs) into a file for
/// the lifetime of the object.
class StderrToFile {
 public:
  explicit StderrToFile(const std::string& path) {
    std::fflush(stderr);
    saved_ = ::dup(2);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 2);
      ::close(fd);
    }
  }
  ~StderrToFile() {
    std::fflush(stderr);
    if (saved_ >= 0) {
      ::dup2(saved_, 2);
      ::close(saved_);
    }
  }
  StderrToFile(const StderrToFile&) = delete;
  StderrToFile& operator=(const StderrToFile&) = delete;

 private:
  int saved_ = -1;
};

std::size_t count_warn_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    if (line.rfind("[WRN]", 0) == 0) ++n;
  }
  return n;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// A booted service over its own topology (the service keeps a reference
/// to the topology, so both live and die together).
struct World {
  fib::topo::Topology topo;
  std::unique_ptr<fib::core::FibbingService> service;
};

std::unique_ptr<World> set_up(const Spec& spec, bool tracing) {
  auto world = std::make_unique<World>();
  world->topo = make_topology(spec);
  world->service = std::make_unique<fib::core::FibbingService>(world->topo,
                                                               make_config(spec, tracing));
  world->service->boot();
  return world;
}

/// Every router's table equals a fresh computation over the live topology
/// and the lies the IGP holds.
bool tables_match(fib::core::FibbingService& service, const fib::topo::Topology& topo,
                  std::string& why) {
  const std::vector<fib::core::Lie> lies = installed_lies(service);
  const fib::igp::NetworkView view = fib::igp::NetworkView::from_topology(
      topo, fib::core::to_externals(lies), &service.link_state());
  const std::vector<fib::igp::RoutingTable> fresh = fib::igp::compute_all_routes(view);
  for (NodeId r = 0; r < topo.node_count(); ++r) {
    if (service.domain().table(r) != fresh[r]) {
      why = "router " + std::to_string(r) + "'s table differs from a fresh computation (" +
            std::to_string(lies.size()) + " installed lies, " +
            std::to_string(service.link_state().down_count()) + " links down)";
      return false;
    }
  }
  return true;
}

/// Prefixes whose forwarding graph in the routers' tables has a cycle.
std::vector<fib::net::Prefix> cyclic_prefixes(fib::core::FibbingService& service,
                                              const fib::topo::Topology& topo) {
  std::set<fib::net::Prefix> prefixes;
  for (const fib::topo::PrefixAttachment& a : topo.prefixes()) prefixes.insert(a.prefix);
  std::vector<fib::net::Prefix> out;
  const std::size_t n = topo.node_count();
  for (const fib::net::Prefix& prefix : prefixes) {
    // Iterative DFS with colours: 0 new, 1 on the stack, 2 done.
    std::vector<char> colour(n, 0);
    bool cycle = false;
    for (NodeId root = 0; root < n && !cycle; ++root) {
      if (colour[root] != 0) continue;
      std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
      colour[root] = 1;
      while (!stack.empty() && !cycle) {
        auto& [node, next] = stack.back();
        const fib::igp::RoutingTable& table = service.domain().table(node);
        const auto entry = table.find(prefix);
        const std::size_t hops = entry == table.end() ? 0 : entry->second.next_hops.size();
        if (next == hops) {
          colour[node] = 2;
          stack.pop_back();
          continue;
        }
        const NodeId via = entry->second.next_hops[next++].via;
        if (colour[via] == 1) cycle = true;
        if (colour[via] == 0) {
          colour[via] = 1;
          stack.emplace_back(via, 0);
        }
      }
    }
    if (cycle) out.push_back(prefix);
  }
  return out;
}

/// Lies the controller holds active for `prefix` that the IGP refused.
std::size_t refused_lies(fib::core::FibbingService& service, const fib::net::Prefix& prefix) {
  const auto& active = service.controller().active_lies();
  const auto it = active.find(prefix);
  if (it == active.end()) return 0;
  std::size_t installed = 0;
  for (const fib::core::Lie& lie : installed_lies(service)) {
    installed += lie.prefix == prefix ? 1 : 0;
  }
  return it->second.size() - installed;
}

class PassRunner {
 public:
  PassRunner(const Spec& spec, const Inputs& inputs, bool traced, SpanLog* spans,
             Probes* probes)
      : spec_(spec),
        inputs_(inputs),
        traced_(traced),
        spans_(spans),
        probes_(probes) {}

  Pass run(const std::string& log_path) {
    StderrToFile capture(log_path);
    ScopedSpan whole(spans_, "pass", step_);
    g_speed.maybe_sample();
    {
      ScopedSpan span(spans_, "set_up", step_);
      const Stopwatch watch;
      world_ = set_up(spec_, traced_);
      pass_.setup = watch.elapsed();
    }
    fib::core::FibbingService& svc = *world_->service;
    const std::map<std::string, double> at_boot = svc.metrics().snapshot();
    const fib::igp::RouteCacheStats probe_work_before =
        probes_ != nullptr ? probes_->controller_cache_work() : fib::igp::RouteCacheStats{};
    const std::uint64_t alias_at_boot = alias_collisions_();

    if (spec_.kind == Kind::kChurn) {
      play_churn_();
    } else {
      play_crowd_();
    }
    final_checks_();

    const std::map<std::string, double> at_end = svc.metrics().snapshot();
    for (const auto& [key, value] : at_end) {
      if (is_level(key)) continue;
      const auto boot = at_boot.find(key);
      const double base = boot == at_boot.end() ? 0.0 : boot->second;
      pass_.counts[key] = value - base;
      pass_.counts[key + ".setup"] = base;
    }
    if (probes_ != nullptr) {
      // Probe work on the controller's cache is the harness's, not the
      // workload's.
      const fib::igp::RouteCacheStats& w = probes_->controller_cache_work();
      const fib::igp::RouteCacheStats& b = probe_work_before;
      pass_.counts["cache.table_hits"] -= static_cast<double>(w.table_hits - b.table_hits);
      pass_.counts["cache.table_builds"] -= static_cast<double>(w.table_builds - b.table_builds);
      pass_.counts["cache.spf_full"] -= static_cast<double>(w.spf_full - b.spf_full);
      pass_.counts["cache.spf_incremental"] -=
          static_cast<double>(w.spf_incremental - b.spf_incremental);
      pass_.counts["cache.spf_batched"] -= static_cast<double>(w.spf_batched - b.spf_batched);
    }
    pass_.counts["igp.alias_collisions"] =
        static_cast<double>(alias_collisions_() - alias_at_boot);
    pass_.counts["loop.decisions"] = static_cast<double>(pass_.decisions.size());
    pass_.counts["loop.reconvergences"] = static_cast<double>(pass_.reconvergences.size());
    pass_.counts["congested_s"] = congested_steps_ * kStepS;
    pass_.counts["dataplane.looping_steps"] = looping_steps_;
    pass_.counts["lies_peak"] = static_cast<double>(lies_peak_);
    pass_.counts["igp.lsdb_entries"] = static_cast<double>(lsdb_peak_);
    pass_.counts["dataplane.flows_peak"] = static_cast<double>(flows_peak_);
    pass_.counts["dataplane.blackholed_flows"] = static_cast<double>(blackholed_peak_);
    std::size_t stalled = 0;
    const std::vector<fib::video::Qoe> qoe = svc.video().all_qoe();
    for (const fib::video::Qoe& q : qoe) stalled += q.stall_count > 0 ? 1 : 0;
    pass_.counts["video.sessions_started"] = static_cast<double>(qoe.size());
    pass_.counts["video.sessions_stalled"] = static_cast<double>(stalled);
    pass_.counts["video.sessions_abandoned"] = static_cast<double>(abandoned_);
    if (traced_) {
      for (const auto& [key, value] : svc.telemetry_snapshot()) {
        if (key.rfind("trace.reaction.", 0) == 0 && key.ends_with("_p50")) {
          pass_.reaction[key] = value;
        }
      }
    }
    world_.reset();
    return std::move(pass_);
  }

  /// The program's own control-loop trace of the pass (traced passes).
  [[nodiscard]] const std::string& program_trace() const { return program_trace_; }

 private:
  fib::core::FibbingService& svc_() { return *world_->service; }

  std::uint64_t alias_collisions_() {
    std::uint64_t sum = 0;
    for (NodeId r = 0; r < world_->topo.node_count(); ++r) {
      sum += svc_().domain().router(r).alias_collisions();
    }
    return sum;
  }

  void check_(bool ok, const std::string& what) {
    if (!ok && pass_.errors.size() < 20) pass_.errors.push_back(what);
  }

  void check_tables_(const char* when) {
    std::string why;
    check_(tables_match(svc_(), world_->topo, why), std::string(when) + ": " + why);
  }

  /// Probe every kProbeEvery-th loop sample of a traced pass.
  void maybe_probe_() {
    if (probes_ == nullptr) return;
    const std::size_t samples = pass_.decisions.size() + pass_.reconvergences.size();
    if (samples == 0 || samples % kProbeEvery != 1) return;
    probes_->run(svc_(), world_->topo, inputs_, probe_points_++, step_, svc_().events().now(),
                 spans_);
  }

  /// One link event through reconvergence: the boot/restore -> converged
  /// loop. Timed as one call; the table check runs after the clock stops.
  void play_link_event_(const LinkEvent& ev) {
    ++step_;
    ++pass_.attempted;
    Timing elapsed;
    {
      ScopedSpan span(spans_, ev.fail ? "fail_link+converge" : "restore_link+converge", step_);
      const Stopwatch watch;
      for (const auto& [a, b] : ev.links) {
        const auto result = ev.fail ? svc_().fail_link(a, b) : svc_().restore_link(a, b);
        if (!result.ok()) {
          ++pass_.failed;
          check_(false, "link event on " + std::to_string(a) + "-" + std::to_string(b) +
                            ": " + result.error());
        }
      }
      svc_().domain().run_to_convergence();
      elapsed = watch.elapsed();
    }
    pass_.run += elapsed;
    pass_.reconvergences.push_back(elapsed);
    g_speed.maybe_sample();
    const NodeId session = svc_().controller().config().session_router;
    lsdb_peak_ = std::max(lsdb_peak_, svc_().domain().router(session).lsdb().size());
    check_tables_("after a link event");
    check_loops_();
    maybe_probe_();
  }

  void play_churn_() {
    for (const LinkEvent& ev : inputs_.link_events) play_link_event_(ev);
  }

  /// One poll interval of virtual time as one timed call; a decision sample
  /// when the controller mitigated, retracted or solved during it.
  void play_step_(double until) {
    ++step_;
    ++pass_.attempted;
    fib::core::Controller& ctl = svc_().controller();
    const int mitigations = ctl.mitigations();
    const int retractions = ctl.retractions();
    const int solves = ctl.placement_solves();
    Timing elapsed;
    {
      ScopedSpan span(spans_, "run_until", step_);
      const Stopwatch watch;
      svc_().run_until(until);
      elapsed = watch.elapsed();
    }
    pass_.run += elapsed;
    g_speed.maybe_sample();
    const bool decided = ctl.mitigations() != mitigations ||
                         ctl.retractions() != retractions || ctl.placement_solves() != solves;
    if (decided) pass_.decisions.push_back(elapsed);
    sample_();
    if (decided) maybe_probe_();
  }

  void check_loops_() {
    fib::core::FibbingService& svc = svc_();
    if (svc.sim().looping_flows() > 0) {
      // Every step with a loop is counted. A loop fails the run unless the
      // domain is still flooding (a transient micro-loop between routers
      // holding different LSDBs) or the routers refused some of the
      // prefix's lies (the known appendix-E lie-aliasing defect: the
      // installed remainder realizes a forwarding graph nobody verified).
      ++looping_steps_;
      if (!svc.domain().converged()) return;
      const std::string at = " at t=" + std::to_string(svc.events().now());
      const std::vector<fib::net::Prefix> cyclic = cyclic_prefixes(svc, world_->topo);
      check_(!cyclic.empty(), "looping flows with no cycle in any router table" + at);
      for (const fib::net::Prefix& prefix : cyclic) {
        check_(refused_lies(svc, prefix) > 0,
               "forwarding loop for " + prefix.to_string() + " with all its lies installed" + at);
      }
    }
  }

  /// Step-end observations (outside the timed calls).
  void sample_() {
    fib::core::FibbingService& svc = svc_();
    check_loops_();
    const double high = svc.controller().config().high_watermark;
    for (fib::topo::LinkId l = 0; l < world_->topo.link_count(); ++l) {
      if (svc.sim().link_utilization(l) > high) {
        ++congested_steps_;
        break;
      }
    }
    lies_peak_ = std::max(lies_peak_, svc.controller().active_lie_count());
    flows_peak_ = std::max(flows_peak_, svc.sim().flow_count());
    blackholed_peak_ = std::max(blackholed_peak_, svc.sim().blackholed_flows());
    const NodeId session = svc.controller().config().session_router;
    lsdb_peak_ = std::max(lsdb_peak_, svc.domain().router(session).lsdb().size());
  }

  void play_crowd_() {
    fib::core::FibbingService& svc = svc_();
    std::vector<fib::video::ServerId> servers;
    for (const fib::video::ServerConfig& s : inputs_.servers) {
      servers.push_back(svc.video().add_server(s));
    }
    schedule_sessions(svc, inputs_, servers);

    std::size_t next_event = 0;
    double t = std::ceil(svc.events().now() / kStepS) * kStepS;
    const double busy_until = inputs_.last_request_s + kSessionTailS;
    int quiet_steps = 0;
    for (;;) {
      t += kStepS;
      play_step_(t);
      while (next_event < inputs_.link_events.size() &&
             inputs_.link_events[next_event].at_s <= t) {
        play_link_event_(inputs_.link_events[next_event++]);
      }
      if (t < busy_until) continue;
      if (svc.video().active_count() > 0 && t < busy_until + kDrainCapS) continue;
      if (quiet_steps++ == 0) abandon_sessions_();
      if (quiet_steps >= kRetractSteps) break;
    }
  }

  /// Clients still waiting at the drain deadline leave (counted).
  void abandon_sessions_() {
    fib::video::VideoSystem& video = svc_().video();
    for (const fib::video::SessionId id : video.session_ids()) {
      if (video.client(id).qoe().finished) continue;
      video.stop_session(id);
      ++abandoned_;
    }
  }

  void final_checks_() {
    fib::core::FibbingService& svc = svc_();
    svc.domain().run_to_convergence();
    check_tables_("at the end of the pass");
    if (spec_.kind == Kind::kCrowd) {
      check_(svc.controller().active_lie_count() == 0,
             std::to_string(svc.controller().active_lie_count()) +
                 " lies still active after the demand drained");
    }
    if (traced_) program_trace_ = svc.tracer().chrome_json();
  }

  const Spec& spec_;
  const Inputs& inputs_;
  bool traced_;
  SpanLog* spans_;
  Probes* probes_;
  std::unique_ptr<World> world_;
  Pass pass_;
  std::uint64_t step_ = 0;
  std::uint64_t probe_points_ = 0;
  int congested_steps_ = 0;
  int looping_steps_ = 0;
  std::size_t abandoned_ = 0;
  std::size_t lies_peak_ = 0;
  std::size_t flows_peak_ = 0;
  std::size_t blackholed_peak_ = 0;
  std::size_t lsdb_peak_ = 0;
  std::string program_trace_;
};

/// Pass <-> text, one record per line, for the pipe from a child process.
std::string serialize(const Pass& p) {
  std::ostringstream out;
  out.precision(17);
  out << "setup " << p.setup.wall << " " << p.setup.cpu << "\nrun " << p.run.wall << " "
      << p.run.cpu << "\nattempted " << p.attempted << "\nfailed " << p.failed << "\nrss "
      << p.peak_rss_mb << "\n";
  for (const Timing& t : p.decisions) out << "decision " << t.wall << " " << t.cpu << "\n";
  for (const Timing& t : p.reconvergences) out << "reconverge " << t.wall << " " << t.cpu << "\n";
  for (const auto& [key, value] : p.counts) out << "count " << key << " " << value << "\n";
  for (const std::string& e : p.errors) out << "error " << e << "\n";
  return out.str();
}

Pass deserialize(const std::string& text) {
  Pass p;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "setup") fields >> p.setup.wall >> p.setup.cpu;
    if (tag == "run") fields >> p.run.wall >> p.run.cpu;
    if (tag == "attempted") fields >> p.attempted;
    if (tag == "failed") fields >> p.failed;
    if (tag == "rss") fields >> p.peak_rss_mb;
    if (tag == "decision" || tag == "reconverge") {
      Timing t;
      fields >> t.wall >> t.cpu;
      (tag == "decision" ? p.decisions : p.reconvergences).push_back(t);
    }
    if (tag == "count") {
      std::string key;
      double value = 0.0;
      fields >> key >> value;
      p.counts[key] = value;
    }
    if (tag == "error") p.errors.push_back(line.substr(6));
  }
  return p;
}

/// The program's last words in a pass log (its FIB_ASSERT message).
std::string last_words(const std::string& log) {
  std::ifstream in(log);
  std::string line;
  std::string assertion;
  std::string last;
  while (std::getline(in, line)) {
    if (line.rfind("FIB_ASSERT", 0) == 0) assertion = line;
    last = line;
  }
  return assertion.empty() ? last : assertion;
}

/// Play one untraced pass in a child process, so that a program abort or a
/// pass that never ends costs one instance instead of the whole run. Empty
/// when the child died or missed `deadline_s`; `why` then says which.
std::optional<Pass> play_isolated(const Spec& spec, const Inputs& inputs,
                                  const std::string& log,
                                  double deadline_s, std::string& why) {
  int fds[2];
  if (::pipe(fds) != 0) {
    why = "pipe failed";
    return std::nullopt;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    why = "fork failed";
    return std::nullopt;
  }
  if (child == 0) {
    // Die with the parent, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(4);
    ::close(fds[0]);
    PassRunner runner(spec, inputs, false, nullptr, nullptr);
    Pass pass = runner.run(log);
    pass.counts["log.warn_lines"] = static_cast<double>(count_warn_lines(log));
    pass.peak_rss_mb = peak_rss_mb();
    const std::string text = serialize(pass);
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) ::_exit(3);
      done += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  const Clock::time_point start = Clock::now();
  bool late = false;
  for (;;) {
    const double left_s = deadline_s - seconds_since(start);
    pollfd pfd{fds[0], POLLIN, 0};
    if (left_s <= 0.0 || ::poll(&pfd, 1, static_cast<int>(left_s * 1e3) + 1) == 0) {
      late = seconds_since(start) >= deadline_s;
      if (late) break;
      continue;
    }
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (late) ::kill(child, SIGKILL);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0) {
  }
  if (late) {
    why = "did not finish within " + std::to_string(static_cast<int>(deadline_s)) +
          " s; last log line: " + last_words(log);
    return std::nullopt;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    why = "the program aborted: " + last_words(log);
    return std::nullopt;
  }
  return deserialize(text);
}

double median(std::vector<double> v) { return fib::util::percentile(std::move(v), 50.0); }

/// Instance j of seed s plays the inputs generated from this seed.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t j) { return seed * 1000 + j; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The controller's route-cache statistics, which are outside the
/// program's determinism contract in two cases: the probes share the
/// controller's cache (its LRU order then differs), and with more than one
/// mitigation worker the workers race for the same memo entries, so how
/// many tables are built rather than hit depends on thread timing. Routing,
/// lies and every other counter stay bit-identical for any worker count.
bool cache_stat(const std::string& key) { return key.rfind("cache.", 0) == 0; }

/// The first key whose counts differ between two passes, or "".
std::string first_difference(const Pass& a, const Pass& b, bool skip_cache_stats) {
  for (const auto& [key, value] : a.counts) {
    if (skip_cache_stats && cache_stat(key)) continue;
    const auto it = b.counts.find(key);
    if (it == b.counts.end() || it->second != value) return key;
  }
  return a.counts.size() == b.counts.size() || skip_cache_stats ? "" : "(key set)";
}

/// A run's timings: set-up median, run mean over passes, and the loop
/// percentiles over every pass's pooled samples (ms), each in wall and CPU.
struct Timings {
  Timing setup;
  Timing run;
  Timing loop_p50;
  Timing loop_p90;
  std::size_t decisions = 0;
  std::size_t reconvergences = 0;
};

Timings summarize(const std::vector<Pass>& passes, const std::vector<Timing>& setups) {
  Timings t;
  std::vector<double> setup_wall, setup_cpu, loop_wall, loop_cpu;
  for (const Timing& s : setups) {
    setup_wall.push_back(s.wall);
    setup_cpu.push_back(s.cpu);
  }
  for (const Pass& p : passes) {
    t.run.wall += p.run.wall / static_cast<double>(passes.size());
    t.run.cpu += p.run.cpu / static_cast<double>(passes.size());
    for (const auto* samples : {&p.decisions, &p.reconvergences}) {
      for (const Timing& x : *samples) {
        loop_wall.push_back(1e3 * x.wall);
        loop_cpu.push_back(1e3 * x.cpu);
      }
    }
    t.decisions += p.decisions.size();
    t.reconvergences += p.reconvergences.size();
  }
  t.setup = {median(setup_wall), median(setup_cpu)};
  t.loop_p50 = {fib::util::percentile(loop_wall, 50.0), fib::util::percentile(loop_cpu, 50.0)};
  t.loop_p90 = {fib::util::percentile(loop_wall, 90.0), fib::util::percentile(loop_cpu, 90.0)};
  return t;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Per-layer metrics of the traced run: `p` is the traced pass, `u` the
/// summary of the untraced passes of the same inputs.
std::vector<Metric> per_layer(const Pass& p, const Timings& u, const Probes& probes) {
  const auto c = [&p](const std::string& key) {
    const auto it = p.counts.find(key);
    return it == p.counts.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m;
  const auto count = [&](const std::string& key) { m.push_back({key, c(key), "count"}); };
  // Loop outcomes.
  count("loop.decisions");
  count("loop.reconvergences");
  m.push_back({"congested_s", c("congested_s"), "virtual_s"});
  count("lies_peak");
  m.push_back({"stall_share", ratio(c("video.sessions_stalled"), c("video.sessions_started")),
               "share"});
  m.push_back({"lie_reject_share", ratio(c("igp.alias_collisions"), c("southbound.lsas_sent")),
               "share"});
  // proto
  for (const char* key : {"proto.bytes_sent", "proto.packets_sent", "proto.lsas_sent",
                          "proto.retransmissions"}) {
    count(key);
    count(std::string(key) + ".setup");
  }
  m.push_back({"proto.bytes_per_lsa", ratio(c("proto.bytes_sent"), c("proto.lsas_sent")),
               "bytes"});
  // igp
  for (const char* key : {"igp.spf_runs", "igp.spf_incremental_runs"}) {
    count(key);
    count(std::string(key) + ".setup");
  }
  m.push_back({"igp.spf_incremental_share",
               ratio(c("igp.spf_incremental_runs"), c("igp.spf_runs")), "share"});
  count("igp.lsdb_entries");
  count("igp.alias_collisions");
  // shard
  for (const char* key : {"shard.rounds", "shard.events_run", "shard.cross_shard_messages"}) {
    count(key);
    count(std::string(key) + ".setup");
  }
  m.push_back({"shard.events_per_round", ratio(c("shard.events_run"), c("shard.rounds")),
               "events"});
  // southbound
  for (const char* key : {"southbound.lsas_sent", "southbound.acks_received",
                          "southbound.reflushes", "southbound.alias_rejections"}) {
    count(key);
  }
  // cache
  for (const char* key : {"cache.table_hits", "cache.table_builds", "cache.spf_full",
                          "cache.spf_incremental", "cache.spf_batched"}) {
    count(key);
  }
  m.push_back({"cache.hit_share",
               ratio(c("cache.table_hits"), c("cache.table_hits") + c("cache.table_builds")),
               "share"});
  // core
  for (const char* key : {"controller.mitigations", "controller.retractions",
                          "controller.placement_solves", "controller.relaxed_placements",
                          "controller.topology_events"}) {
    count(key);
  }
  m.push_back({"controller.solves_per_mitigation",
               ratio(c("controller.placement_solves"), c("controller.mitigations")), "solves"});
  m.push_back({"controller.solve_yield",
               ratio(c("controller.mitigations"), c("controller.placement_solves")), "share"});
  count("log.warn_lines");
  // dataplane, video, monitor
  count("dataplane.flows_peak");
  count("dataplane.blackholed_flows");
  count("dataplane.looping_steps");
  count("poller.polls");
  count("video.sessions_started");
  count("video.sessions_stalled");
  count("video.sessions_abandoned");

  // Probes: medians over the probe points of every traced pass.
  const std::map<std::string, double> probe = probes.medians();
  const auto pr = [&](const std::string& key, const std::string& unit) {
    const auto it = probe.find(key);
    m.push_back({key, it == probe.end() ? 0.0 : it->second, unit});
  };
  pr("proto.encode_ns_per_byte", "ns/byte");
  pr("proto.decode_ns_per_byte", "ns/byte");
  pr("proto.checksum_ns_per_byte", "ns/byte");
  pr("igp.spf_full_us", "us");
  pr("igp.spf_incremental_us", "us");
  pr("igp.view_build_us", "us");
  pr("igp.lsdb_install_us", "us");
  pr("cache.tables_build_ms", "ms");
  pr("cache.tables_hit_us", "us");
  pr("te.solve_ms", "ms");
  pr("core.compile_ms", "ms");
  pr("core.compile_cold_ms", "ms");
  pr("core.verify_ms", "ms");

  // obs: the program's virtual-clock reaction offsets, and what tracing
  // (program tracing plus the harness's spans) cost the timed calls.
  for (const char* stage :
       {"solve", "compile", "verify", "inject", "lsa_install", "spf", "table_flip"}) {
    const std::string key = std::string("trace.reaction.") + stage + "_s_p50";
    const auto it = p.reaction.find(key);
    m.push_back({key, it == p.reaction.end() ? 0.0 : it->second, "virtual_s"});
  }
  m.push_back({"obs.trace_overhead_share", ratio(p.run.cpu, u.run.cpu) - 1.0, "share"});
  // Wall-clock counterparts of the end-to-end metrics, from the untraced
  // passes.
  m.push_back({"setup_wall_s", u.setup.wall, "s"});
  m.push_back({"run_wall_s", u.run.wall, "s"});
  m.push_back({"loop_wall_ms_p50", u.loop_p50.wall, "ms"});
  m.push_back({"loop_wall_ms_p90", u.loop_p90.wall, "ms"});
  return m;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt) || find_spec(opt.workload) == nullptr) {
    std::string names;
    for (const std::string& n : spec_names()) names += " " + n;
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  const Spec& spec = *find_spec(opt.workload);
  const std::string base =
      opt.out_dir + "/" + spec.name + "-seed" + std::to_string(opt.seed) +
      (opt.trace ? "-traced" : "");

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const fib::topo::Topology topo = make_topology(spec);

  SpanLog spans;
  Probes probes;
  std::vector<Inputs> instances;
  std::vector<Pass> passes;
  std::vector<Timing> setups;
  std::string program_trace;
  // A program abort (FIB_ASSERT) or a pass past its deadline kills only the
  // child playing it: that counts as one failed operation, and the run moves
  // on to the next instance.
  std::size_t crashes = 0;
  const auto play_untraced = [&](const Inputs& inputs, std::size_t instance) {
    const std::string log = base + "-pass" + std::to_string(passes.size() + crashes) + ".log";
    std::string why;
    std::optional<Pass> pass =
        play_isolated(spec, inputs, log, kInstanceDeadlineS, why);
    if (!pass) {
      ++crashes;
      std::fprintf(stderr, "perfbench: %s seed %llu instance %zu: %s\n", spec.name.c_str(),
                   static_cast<unsigned long long>(opt.seed), instance, why.c_str());
      return false;
    }
    passes.push_back(std::move(*pass));
    setups.push_back(passes.back().setup);
    return true;
  };
  const Clock::time_point run_start = Clock::now();
  if (!opt.trace) {
    // Independent instances of the workload until the time is up: one
    // instance's cost swings with the controller's trajectory, the mean of
    // several much less.
    while (passes.empty() || seconds_since(run_start) < opt.seconds) {
      if (seconds_since(run_start) > kGiveUpS) break;
      instances.push_back(make_inputs(spec, topo, instance_seed(opt.seed, instances.size())));
      play_untraced(instances.back(), instances.size() - 1);
    }
  } else {
    // The first instance the program completes, twice untraced (the
    // determinism check, and the overhead baseline), then once traced
    // with probes, in this process.
    while (passes.size() < 2 && seconds_since(run_start) < kGiveUpS) {
      passes.clear();
      instances.push_back(make_inputs(spec, topo, instance_seed(opt.seed, instances.size())));
      if (play_untraced(instances.back(), instances.size() - 1)) {
        play_untraced(instances.back(), instances.size() - 1);
      }
    }
    if (passes.size() == 2) {
      const std::string log = base + "-pass" + std::to_string(passes.size() + crashes) + ".log";
      PassRunner runner(spec, instances.back(), true, &spans, &probes);
      passes.push_back(runner.run(log));
      passes.back().counts["log.warn_lines"] = static_cast<double>(count_warn_lines(log));
      setups.push_back(passes.back().setup);
      program_trace = runner.program_trace();
    }
  }
  if (passes.size() < (opt.trace ? 3u : 1u)) {
    std::fprintf(stderr, "perfbench: no instance completed (%zu aborted)\n", crashes);
    return 1;
  }
  while (setups.size() < kMinSetups) {
    g_speed.maybe_sample();
    const Stopwatch watch;
    std::unique_ptr<World> world = set_up(spec, false);
    setups.push_back(watch.elapsed());
  }

  // Correctness: every pass's own checks, then determinism: the same inputs
  // give identical counts. The traced pass shares the controller's route
  // cache with the probes, and parallel mitigation workers race for it, so
  // cache.* counts are compared only between untraced single-worker passes.
  bool correct = true;
  std::size_t attempted = crashes;
  std::size_t failed = crashes;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    attempted += passes[i].attempted;
    failed += passes[i].failed;
    for (const std::string& e : passes[i].errors) {
      std::fprintf(stderr, "perfbench: check failed (pass %zu): %s\n", i, e.c_str());
      correct = false;
    }
  }
  if (opt.trace) {
    for (std::size_t i = 1; i < passes.size(); ++i) {
      const std::string diff =
          first_difference(passes[0], passes[i], i == 2 || spec.mitigation_workers > 1);
      if (diff.empty()) continue;
      std::fprintf(stderr,
                   "perfbench: check failed: pass %zu counted %s = %.17g, pass 0 %.17g "
                   "(same seed, same inputs)\n",
                   i, diff.c_str(), passes[i].counts[diff], passes[0].counts[diff]);
      correct = false;
    }
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const Timings t = summarize(passes, setups);
    metrics.push_back({"setup_s", t.setup.cpu, "s"});
    metrics.push_back({"run_cpu_s", t.run.cpu, "s"});
    // The median instance: the largest would grow with the number of
    // instances that fit in the run.
    std::vector<double> rss;
    for (const Pass& p : passes) rss.push_back(p.peak_rss_mb);
    metrics.push_back({"peak_rss_mb", median(rss), "MB"});
    metrics.push_back({"loop_cpu_ms_p50", t.loop_p50.cpu, "ms"});
    metrics.push_back({"loop_cpu_ms_p90", t.loop_p90.cpu, "ms"});
    std::printf("%s seed %llu: %zu instances (%zu aborted), %zu set-ups; loop samples: "
                "%zu decision steps, %zu reconvergences\n",
                spec.name.c_str(), static_cast<unsigned long long>(opt.seed), passes.size(),
                crashes, setups.size(), t.decisions, t.reconvergences);
    std::printf("  wall clock: setup_s %.6f, run_s %.6f, loop_ms_p50 %.6f, loop_ms_p90 %.6f\n",
                t.setup.wall, t.run.wall, t.loop_p50.wall, t.loop_p90.wall);
  } else {
    const std::vector<Pass> untraced(passes.begin(), passes.begin() + 2);
    const std::vector<Timing> untraced_setups(setups.begin(), setups.begin() + 2);
    metrics = per_layer(passes[2], summarize(untraced, untraced_setups), probes);
    std::ofstream(base + "-spans.json") << spans.chrome_json();
    std::ofstream(base + "-program-trace.json") << program_trace;
    std::printf("%s seed %llu: 2 untraced passes, 1 traced; spans in %s-spans.json\n",
                spec.name.c_str(), static_cast<unsigned long long>(opt.seed), base.c_str());
    for (const auto& [key, n] : probes.counts()) {
      std::printf("  probe %-28s %zu samples\n", key.c_str(), n);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
