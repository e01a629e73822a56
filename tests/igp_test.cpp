#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "igp/domain.hpp"
#include "igp/lsa.hpp"
#include "igp/lsdb.hpp"
#include "igp/router_process.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "support/scenario.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace fibbing::igp {
namespace {

using support::fwd_addr;
using topo::make_paper_topology;
using topo::NodeId;
using topo::PaperTopology;

std::map<std::string, std::uint32_t> named_hops(const topo::Topology& t,
                                                const RouteEntry& entry) {
  std::map<std::string, std::uint32_t> out;
  for (const auto& nh : entry.next_hops) out[t.node(nh.via).name] = nh.weight;
  return out;
}

// ------------------------------------------------------------------ SPF core

TEST(Spf, PaperTopologyDistances) {
  const PaperTopology p = make_paper_topology();
  const NetworkView view = NetworkView::from_topology(p.topo);
  const SpfResult from_a = run_spf(view, p.a);
  EXPECT_EQ(from_a.dist[p.c], 6u);   // A-B-R2-C (metrics are scaled by 2)
  EXPECT_EQ(from_a.dist[p.b], 2u);
  EXPECT_EQ(from_a.dist[p.r1], 4u);
  EXPECT_EQ(from_a.dist[p.r4], 6u);  // A-R1-R4
  const SpfResult from_b = run_spf(view, p.b);
  EXPECT_EQ(from_b.dist[p.c], 4u);   // B-R2-C
  EXPECT_EQ(from_b.dist[p.r3], 4u);
}

TEST(Spf, FirstHopsAreUniqueOnPaperTopology) {
  const PaperTopology p = make_paper_topology();
  const NetworkView view = NetworkView::from_topology(p.topo);
  const SpfResult from_a = run_spf(view, p.a);
  EXPECT_EQ(from_a.first_hops[p.c], (std::vector<NodeId>{p.b}));
  const SpfResult from_b = run_spf(view, p.b);
  EXPECT_EQ(from_b.first_hops[p.c], (std::vector<NodeId>{p.r2}));
}

TEST(Spf, EcmpMergesFirstHops) {
  // Diamond: s-(1)-x-(1)-t and s-(1)-y-(1)-t: two equal paths.
  topo::Topology t;
  const NodeId s = t.add_node("s");
  const NodeId x = t.add_node("x");
  const NodeId y = t.add_node("y");
  const NodeId d = t.add_node("d");
  t.add_link(s, x, 1, 1e9);
  t.add_link(s, y, 1, 1e9);
  t.add_link(x, d, 1, 1e9);
  t.add_link(y, d, 1, 1e9);
  const SpfResult spf = run_spf(NetworkView::from_topology(t), s);
  EXPECT_EQ(spf.dist[d], 2u);
  EXPECT_EQ(spf.first_hops[d], (std::vector<NodeId>{x, y}));
}

TEST(Spf, UnreachableNodeHasInfiniteCost) {
  topo::Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  t.add_node("island");  // node 2, never linked
  t.add_link(a, b, 1, 1e9);
  const SpfResult spf = run_spf(NetworkView::from_topology(t), a);
  EXPECT_FALSE(spf.reaches(2));
  EXPECT_TRUE(spf.reaches(b));
}

TEST(Spf, AsymmetricMetricsUseDirectionalCosts) {
  topo::Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  t.add_link_asymmetric(a, b, 5, 2, 1e9);
  EXPECT_EQ(run_spf(NetworkView::from_topology(t), a).dist[b], 5u);
  EXPECT_EQ(run_spf(NetworkView::from_topology(t), b).dist[a], 2u);
}

// ------------------------------------------------------------ route building

TEST(Routes, IntraRoutesOnPaperTopology) {
  const PaperTopology p = make_paper_topology();
  const NetworkView view = NetworkView::from_topology(p.topo);

  const RoutingTable at_a = compute_routes(view, p.a);
  ASSERT_TRUE(at_a.contains(p.p1));
  EXPECT_EQ(at_a.at(p.p1).cost, 6u);
  EXPECT_EQ(named_hops(p.topo, at_a.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"B", 1}}));

  const RoutingTable at_b = compute_routes(view, p.b);
  EXPECT_EQ(at_b.at(p.p1).cost, 4u);
  EXPECT_EQ(named_hops(p.topo, at_b.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}}));

  const RoutingTable at_c = compute_routes(view, p.c);
  EXPECT_TRUE(at_c.at(p.p1).local);
  EXPECT_EQ(at_c.at(p.p1).cost, 0u);
}

/// Fig. 1c, first lie: fake node fB attached to B announcing D1's prefix at
/// a total cost equal to B's real path cost, resolving to R3. B must see two
/// equal-cost paths.
TEST(Routes, LieFbGivesBEcmp) {
  const PaperTopology p = make_paper_topology();
  // dist(B, S_BR3) = 4 = B's real cost, so ext_metric 0 creates the tie.
  const NetworkView::External fb{/*lie_id=*/1, p.p1, /*ext_metric=*/0,
                                 fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {fb});

  const RoutingTable at_b = compute_routes(view, p.b);
  EXPECT_EQ(at_b.at(p.p1).cost, 4u);
  EXPECT_EQ(named_hops(p.topo, at_b.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
}

/// The fB lie ties at A (A's path to the forwarding subnet runs through B
/// at equal total cost) but only duplicates A's unique next hop -- the
/// forwarding *behaviour* at A must not change. This benign tie is why the
/// verifier compares normalized distributions, not raw weights.
TEST(Routes, LieFbTieAtAIsBehaviorallyInvisible) {
  const PaperTopology p = make_paper_topology();
  const NetworkView::External fb{1, p.p1, 0, fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {fb});

  const RoutingTable at_a = compute_routes(view, p.a);
  const RouteEntry& entry = at_a.at(p.p1);
  EXPECT_EQ(entry.cost, 6u);
  ASSERT_EQ(entry.next_hops.size(), 1u);  // still only via B
  EXPECT_EQ(entry.next_hops[0].via, p.b);
  EXPECT_EQ(entry.next_hops[0].weight, 2u);  // intra + lie, same interface
}

/// Fig. 1c, second step: two fake nodes fA at A announcing D2's prefix at
/// a total cost equal to A's real path cost, resolving to R1 -> A's FIB gets
/// {B:1, R1:2} = the paper's 1/3 : 2/3 uneven split.
TEST(Routes, TwoFaLiesGiveUnevenSplitAtA) {
  const PaperTopology p = make_paper_topology();
  const net::Ipv4 fa_r1 = fwd_addr(p.topo, p.a, p.r1);
  // dist(A, S_AR1) = 4, so ext_metric 2 makes the total 6 = A's real cost.
  const NetworkView view = NetworkView::from_topology(
      p.topo, {{10, p.p2, 2, fa_r1}, {11, p.p2, 2, fa_r1}});

  const RoutingTable at_a = compute_routes(view, p.a);
  const RouteEntry& entry = at_a.at(p.p2);
  EXPECT_EQ(entry.cost, 6u);
  EXPECT_EQ(named_hops(p.topo, entry),
            (std::map<std::string, std::uint32_t>{{"B", 1}, {"R1", 2}}));
  EXPECT_EQ(entry.total_weight(), 3u);

  // Per-destination isolation: A's route for P1 is untouched.
  EXPECT_EQ(named_hops(p.topo, at_a.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"B", 1}}));
}

/// The full Fig. 1c/1d lie set: fB about both halves; at A, strict-mode lies
/// for P2 (one unit below A's real cost, so fB's benign tie at A cannot
/// pollute the uneven split): fA' resolving to B plus twice fA resolving to
/// R1. Checks every router's resulting next hops -- the complete data plane
/// of Fig. 1d.
TEST(Routes, FullPaperLieSetMatchesFig1d) {
  const PaperTopology p = make_paper_topology();
  const net::Ipv4 to_r3 = fwd_addr(p.topo, p.b, p.r3);
  const net::Ipv4 to_r1 = fwd_addr(p.topo, p.a, p.r1);
  const net::Ipv4 to_b = fwd_addr(p.topo, p.a, p.b);
  // A's targets: total 5 (real cost 6, strict). dist(A,S_AB)=2 -> ext 3;
  // dist(A,S_AR1)=4 -> ext 1. B's target: total 4 (tie) -> ext 0.
  const NetworkView view = NetworkView::from_topology(p.topo, {
                                                                  {1, p.p1, 0, to_r3},
                                                                  {2, p.p2, 0, to_r3},
                                                                  {9, p.p2, 3, to_b},
                                                                  {10, p.p2, 1, to_r1},
                                                                  {11, p.p2, 1, to_r1},
                                                              });

  const auto tables = compute_all_routes(view);
  // B splits both prefixes evenly across R2/R3.
  EXPECT_EQ(named_hops(p.topo, tables[p.b].at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
  EXPECT_EQ(named_hops(p.topo, tables[p.b].at(p.p2)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
  // A: P1 via B only; P2 at 1/3 B, 2/3 R1.
  ASSERT_EQ(tables[p.a].at(p.p1).next_hops.size(), 1u);
  EXPECT_EQ(tables[p.a].at(p.p1).next_hops[0].via, p.b);
  EXPECT_EQ(named_hops(p.topo, tables[p.a].at(p.p2)),
            (std::map<std::string, std::uint32_t>{{"B", 1}, {"R1", 2}}));
  // Transit routers unaffected: R1 -> R4, R2/R3/R4 -> C, for both prefixes.
  for (const auto& prefix : {p.p1, p.p2}) {
    EXPECT_EQ(named_hops(p.topo, tables[p.r1].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"R4", 1}}));
    EXPECT_EQ(named_hops(p.topo, tables[p.r2].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"C", 1}}));
    EXPECT_EQ(named_hops(p.topo, tables[p.r3].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"C", 1}}));
    EXPECT_EQ(named_hops(p.topo, tables[p.r4].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"C", 1}}));
    EXPECT_TRUE(tables[p.c].at(prefix).local);
  }
}

TEST(Routes, SelfPointingLieIsIgnored) {
  const PaperTopology p = make_paper_topology();
  // FA owned by R3 itself: R3 must ignore it; others may use it.
  const NetworkView::External lie{1, p.p1, 0, fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {lie});
  const RoutingTable at_r3 = compute_routes(view, p.r3);
  // R3's route for P1 is its plain intra route (cost 2 via C).
  EXPECT_EQ(at_r3.at(p.p1).cost, 2u);
  EXPECT_EQ(named_hops(p.topo, at_r3.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"C", 1}}));
}

TEST(Routes, DanglingForwardingAddressIsUnusable) {
  const PaperTopology p = make_paper_topology();
  const NetworkView::External lie{1, p.p1, 0, net::Ipv4(1, 2, 3, 4)};
  const NetworkView view = NetworkView::from_topology(p.topo, {lie});
  // Route falls back to the intra path everywhere.
  const RoutingTable at_b = compute_routes(view, p.b);
  EXPECT_EQ(at_b.at(p.p1).cost, 4u);
  EXPECT_EQ(named_hops(p.topo, at_b.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}}));
}

TEST(Routes, LieForUnknownPrefixCreatesRoute) {
  const PaperTopology p = make_paper_topology();
  const net::Prefix q(net::Ipv4(198, 51, 100, 0), 24);
  const NetworkView::External lie{1, q, 0, fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {lie});
  const RoutingTable at_b = compute_routes(view, p.b);
  ASSERT_TRUE(at_b.contains(q));
  EXPECT_EQ(named_hops(p.topo, at_b.at(q)),
            (std::map<std::string, std::uint32_t>{{"R3", 1}}));
}

// ----------------------------------------------------------------- LSDB

LsaPtr external(const ExternalLsa& ext, SeqNum seq) {
  return std::make_shared<const Lsa>(make_external_lsa(ext, seq));
}

/// The LSDB key of `ext`: its wire identity, the link state id.
LsaKey key_of(const ExternalLsa& ext) {
  return LsaKey{LsaType::kExternal, external_ls_id(ext.prefix, ext.lie_id)};
}

TEST(Lsdb, NewerSequenceWins) {
  Lsdb db;
  ExternalLsa ext;
  ext.lie_id = 7;
  ext.prefix = net::Prefix(net::Ipv4(203, 0, 113, 0), 24);
  EXPECT_EQ(db.install(external(ext, 1)), Lsdb::InstallResult::kNewer);
  EXPECT_EQ(db.install(external(ext, 1)), Lsdb::InstallResult::kDuplicate);
  ext.ext_metric = 9;
  EXPECT_EQ(db.install(external(ext, 2)), Lsdb::InstallResult::kNewer);
  EXPECT_EQ(db.install(external(ext, 1)), Lsdb::InstallResult::kStale);
  const Lsa* stored = db.find(key_of(ext));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(std::get<ExternalLsa>(stored->body).ext_metric, 9u);
}

TEST(Lsdb, WithdrawnLsasAreNotLive) {
  Lsdb db;
  ExternalLsa ext;
  ext.lie_id = 7;
  db.install(external(ext, 1));
  EXPECT_EQ(db.live().size(), 1u);
  ext.withdrawn = true;
  db.install(external(ext, 2));
  EXPECT_EQ(db.live().size(), 0u);
  EXPECT_EQ(db.all().size(), 1u);  // tombstone retained
}

TEST(Lsdb, EscapingOrderIsInsertionOrderIndependent) {
  // Pins the lint:unordered-iter-ok waivers in lsdb.cpp: entries_ is an
  // unordered_map, but live() and all() promise a deterministic, sorted-by-key
  // order regardless of install history. Build the same content twice with
  // permuted install orders (which produces different hash-table layouts) and
  // demand bit-identical escape sequences.
  std::vector<LsaPtr> instances;
  for (std::uint64_t id : {19u, 3u, 42u, 7u, 28u, 11u, 36u, 1u, 23u, 15u,
                           31u, 5u, 40u, 9u, 26u, 13u}) {
    ExternalLsa ext;
    ext.lie_id = id;
    ext.ext_metric = static_cast<topo::Metric>(id * 2);
    ext.withdrawn = (id % 5 == 0);  // a few tombstones: live() != all()
    instances.push_back(external(ext, /*seq=*/1 + id % 3));
  }

  Lsdb forward;
  for (const LsaPtr& lsa : instances) forward.install(lsa);
  Lsdb reversed;
  for (auto it = instances.rbegin(); it != instances.rend(); ++it)
    reversed.install(*it);
  Lsdb interleaved;  // evens then odds: yet another rehash history
  for (std::size_t i = 0; i < instances.size(); i += 2)
    interleaved.install(instances[i]);
  for (std::size_t i = 1; i < instances.size(); i += 2)
    interleaved.install(instances[i]);

  const auto keys_of = [](const Lsdb& db) {
    std::vector<LsaKey> live_keys;
    for (const Lsa* lsa : db.live()) live_keys.push_back(lsa->id);
    std::vector<LsaKey> all_keys;
    for (const LsaPtr& lsa : db.all()) all_keys.push_back(lsa->id);
    return std::pair{live_keys, all_keys};
  };
  const auto [live_fwd, all_fwd] = keys_of(forward);
  EXPECT_TRUE(std::is_sorted(live_fwd.begin(), live_fwd.end()));
  EXPECT_TRUE(std::is_sorted(all_fwd.begin(), all_fwd.end()));
  EXPECT_LT(live_fwd.size(), all_fwd.size());  // tombstones only in all()
  EXPECT_EQ(keys_of(reversed), (std::pair{live_fwd, all_fwd}));
  EXPECT_EQ(keys_of(interleaved), (std::pair{live_fwd, all_fwd}));
  EXPECT_TRUE(forward.same_content(reversed));
  EXPECT_TRUE(forward.same_content(interleaved));
}

// ------------------------------------------------------------------ protocol

TEST(Domain, FloodingConvergesToIdenticalLsdbs) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  for (NodeId n = 1; n < p.topo.node_count(); ++n) {
    EXPECT_TRUE(domain.router(0).lsdb().same_content(domain.router(n).lsdb()))
        << "router " << n << " LSDB differs";
  }
  EXPECT_EQ(domain.router(0).lsdb().size(), p.topo.node_count());
}

TEST(Domain, ConvergedTablesMatchDirectComputation) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const auto direct = compute_all_routes(NetworkView::from_topology(p.topo));
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    EXPECT_EQ(domain.table(n), direct[n]) << "router " << n;
  }
}

TEST(Domain, InjectedLieFloodsAndReprograms) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  // Controller session at R3 (as in the paper's demo setup).
  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();

  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
}

TEST(Domain, WithdrawRestoresOriginalRoutes) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const RoutingTable before = domain.table(p.b);

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  EXPECT_NE(domain.table(p.b), before);

  ASSERT_TRUE(domain.withdraw_external(p.r3, 1).ok());
  domain.run_to_convergence();
  EXPECT_EQ(domain.table(p.b), before);
}

TEST(Domain, ReinjectionSupersedesOlderInstance) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fa;
  fa.lie_id = 10;
  fa.prefix = p.p2;
  fa.ext_metric = 2;  // total 6 = A's real cost: tie -> ECMP at A
  fa.forwarding_address = fwd_addr(p.topo, p.a, p.r1);
  domain.inject_external(p.r3, fa);
  domain.run_to_convergence();
  EXPECT_EQ(domain.table(p.a).at(p.p2).next_hops.size(), 2u);

  // Update the same lie to a non-competitive metric: route reverts.
  fa.ext_metric = 50;
  domain.inject_external(p.r3, fa);
  domain.run_to_convergence();
  EXPECT_EQ(domain.table(p.a).at(p.p2).next_hops.size(), 1u);
}

TEST(Domain, AliasingLieFromAnotherSessionIsDetectedAtDecode) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;  // /25: ids congruent modulo 128 share a wire identity
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  const RoutingTable settled = domain.table(p.b);

  // A colliding lie arrives through a *different* session router, so the
  // injecting session has no send-side state to refuse it with. The first
  // router to decode it sees a route tag disagreeing with the wire
  // identity's standing owner, refuses to install, and counts the event.
  ExternalLsa alias = fb;
  alias.lie_id = 129;
  alias.ext_metric = 7;
  domain.inject_external(p.r2, alias);
  domain.run_to_convergence();

  EXPECT_EQ(domain.router(p.r2).alias_collisions(), 1u);
  // The standing lie survives everywhere; the alias never entered any LSDB:
  // the one entry at the shared wire identity still carries lie 1's tag.
  ASSERT_EQ(key_of(alias), key_of(fb));
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    const Lsa* stored = domain.router(n).lsdb().find(key_of(fb));
    ASSERT_NE(stored, nullptr) << "router " << n;
    EXPECT_EQ(std::get<ExternalLsa>(stored->body).lie_id, 1u) << "router " << n;
  }
  EXPECT_EQ(domain.table(p.b), settled);
}

TEST(RouterProcess, ExternalFromAnotherRouterIsNotAHeldLiesInstance) {
  // An External-LSA's wire identity names an LSDB entry only when the
  // controller advertises it. The same link state id from any other router
  // is a different LSA, one this domain cannot decode: it must neither be
  // settled against the held lie's header (here it would read as stale)
  // nor replace it.
  const PaperTopology p = make_paper_topology();
  const proto::AddressMap addrs(p.topo);
  util::EventQueue events;
  RouterProcess router(p.b, p.topo.node_count(), addrs, events, IgpTiming{});
  router.set_controller_send([](const proto::BufferPtr&) {});
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    router.originate(make_router_lsa(p.topo, n));
  }
  const auto receive = [&](const proto::WireLsa& lsa) {
    proto::LsUpdateBody lsu;
    lsu.lsas.push_back(lsa);
    const proto::Packet packet{proto::kControllerRouterId, 0, std::move(lsu)};
    router.receive_controller_packet(
        std::make_shared<const proto::Buffer>(proto::encode_packet(packet)));
    events.run_until(events.now() + 1.0);
  };

  ExternalLsa fb;
  fb.lie_id = external_ls_id(p.p1, 1);
  fb.prefix = p.p1;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  const proto::WireLsa lie = proto::to_wire(make_external_lsa(fb, /*seq=*/2), addrs);
  receive(lie);
  const RoutingTable held = router.table();
  ASSERT_EQ(named_hops(p.topo, held.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));

  proto::WireLsa foreign = proto::to_wire(make_external_lsa(fb, /*seq=*/1), addrs);
  foreign.header.advertising_router = addrs.router_id(p.a);
  receive(proto::finalize_lsa(std::move(foreign)));

  EXPECT_EQ(router.decode_errors(), 1u);
  EXPECT_EQ(router.alias_collisions(), 0u);
  const Lsa* stored = router.lsdb().find(key_of(fb));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->wire, lie);
  EXPECT_EQ(router.table(), held);
}

TEST(Domain, LsaFloodCountIsBounded) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const std::uint64_t boot = domain.total_lsas_sent();

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  const std::uint64_t delta = domain.total_lsas_sent() - boot;
  // One LSA flooded once per directed link is the upper bound.
  EXPECT_LE(delta, p.topo.link_count());
  EXPECT_GE(delta, p.topo.node_count() - 1);  // must have reached everyone
}

TEST(Domain, LinkFailureReconvergesToReducedTopology) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  ASSERT_EQ(domain.table(p.b).at(p.p1).cost, 4u);  // B-R2-C

  domain.fail_link(p.topo.link_between(p.b, p.r2));
  domain.run_to_convergence();

  // B lost its best path: R3 takes over at cost 6 (B-R3-C).
  EXPECT_EQ(domain.table(p.b).at(p.p1).cost, 6u);
  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R3", 1}}));
  // R2 still reaches the prefix directly through C.
  EXPECT_EQ(named_hops(p.topo, domain.table(p.r2).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"C", 1}}));
}

TEST(Domain, LinkFailureKillsLieForwardingAddress) {
  // A lie whose forwarding address lives on the failed link must stop
  // steering: its /30 disappears from both Router-LSAs, the FA dangles and
  // routes fall back to the intra path.
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  ASSERT_EQ(domain.table(p.b).at(p.p1).next_hops.size(), 2u);

  domain.fail_link(p.topo.link_between(p.b, p.r3));
  domain.run_to_convergence();
  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}}));
}

/// Property: on random graphs, protocol-computed tables equal direct
/// computation from the topology (flooding correctness at scale).
TEST(Domain, RandomGraphsConvergeToDirectTables) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 5; ++trial) {
    topo::Topology t = topo::make_waxman(12 + 4 * trial, rng);
    const net::Prefix pfx(net::Ipv4(203, 0, static_cast<std::uint8_t>(trial), 0), 24);
    t.attach_prefix(static_cast<NodeId>(trial % t.node_count()), pfx, 0);
    util::EventQueue events;
    IgpDomain domain(t, events);
    domain.start();
    domain.run_to_convergence();
    const auto direct = compute_all_routes(NetworkView::from_topology(t));
    for (NodeId n = 0; n < t.node_count(); ++n) {
      ASSERT_EQ(domain.table(n), direct[n]) << "trial " << trial << " router " << n;
    }
  }
}

// ------------------------------------------------------------ link recovery

TEST(Domain, RestoreLinkRoundTripsTablesBitIdentical) {
  // Fail B-R2 with a standing lie, restore it: every router's table must be
  // bit-identical to before the failure, and the shared mask must be clean.
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();

  std::vector<RoutingTable> before;
  for (NodeId n = 0; n < p.topo.node_count(); ++n) before.push_back(domain.table(n));

  const topo::LinkId dead = p.topo.link_between(p.b, p.r2);
  domain.fail_link(dead);
  domain.run_to_convergence();
  ASSERT_NE(domain.table(p.b), before[p.b]);  // the failure really moved routes
  ASSERT_TRUE(domain.link_is_down(dead));

  domain.restore_link(dead);
  domain.run_to_convergence();
  EXPECT_FALSE(domain.link_is_down(dead));
  EXPECT_FALSE(domain.link_state().any_down());
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    EXPECT_EQ(domain.table(n), before[n]) << "router " << p.topo.node(n).name;
  }
}

TEST(Domain, RestoreOfNeverFailedLinkIsNoOp) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const std::uint64_t lsas = domain.total_lsas_sent();
  domain.restore_link(p.topo.link_between(p.a, p.b));
  EXPECT_TRUE(domain.converged());  // nothing scheduled
  EXPECT_EQ(domain.total_lsas_sent(), lsas);
}

TEST(Domain, RestoreHealsPartitionThroughDatabaseExchange) {
  // Isolate A (fail A-B and A-R1), inject a lie while A is cut off, then
  // restore one link: the adjacency's database exchange must deliver the
  // missed External-LSA to A, not just the two fresh Router-LSAs.
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  domain.fail_link(p.topo.link_between(p.a, p.b));
  domain.fail_link(p.topo.link_between(p.a, p.r1));
  domain.run_to_convergence();
  {
    const auto marooned = domain.table(p.a).find(p.p1);
    ASSERT_TRUE(marooned == domain.table(p.a).end() ||
                !marooned->second.reachable());
  }

  ExternalLsa fb;
  fb.lie_id = 7;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  ASSERT_EQ(domain.router(p.a).lsdb().find(key_of(fb)), nullptr);

  domain.restore_link(p.topo.link_between(p.a, p.b));
  domain.run_to_convergence();
  // A holds the lie it never heard, and its routes match direct computation
  // on the degraded topology (A-R1 still down) with the lie installed.
  EXPECT_NE(domain.router(p.a).lsdb().find(key_of(fb)), nullptr);
  EXPECT_TRUE(domain.table(p.a).at(p.p1).reachable());
  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
}


// ---------------------------------------------------------- in-place view

/// Random LSDB churn over a small Waxman domain, one change per step, of
/// every kind a router's LSDB sees: a Router-LSA's first appearance or
/// replacement (link drop, link restore, a stray claim on another pair's
/// subnet, metric or interface-address change, prefix change), an
/// External-LSA inject or withdrawal, and erases (withdrawn externals;
/// Router-LSAs on request).
class LsdbChurn {
 public:
  enum class Op { kRouterFirst, kRouterReplace, kExternal, kErase };
  struct Step {
    Op op;
    Lsa lsa;  ///< kErase: only `lsa.id` is meaningful
  };

  LsdbChurn(std::uint64_t seed, std::size_t nodes)
      : rng_(seed), topo_(topo::make_waxman(nodes, rng_)), routers_(nodes) {
    for (NodeId n = 0; n < nodes; ++n) {
      topo_.attach_prefix(n, net::Prefix(net::Ipv4(172, 16, static_cast<std::uint8_t>(n), 0), 24));
    }
  }

  [[nodiscard]] const topo::Topology& topo() const { return topo_; }
  /// How many re-addressed interfaces (10.250.0.1, 10.250.0.2, ...) the
  /// churn has handed out so far.
  [[nodiscard]] std::uint32_t fresh_addresses() const { return fresh_; }

  Step next(bool router_erase) {
    std::vector<NodeId> absent;
    std::vector<NodeId> present;
    for (NodeId n = 0; n < routers_.size(); ++n) {
      (routers_[n] ? present : absent).push_back(n);
    }
    const std::int64_t roll = rng_.uniform_int(0, 99);
    if (!absent.empty() && (present.size() < 2 || roll < 8)) {
      const NodeId origin = absent[rng_.pick_index(absent.size())];
      routers_[origin] = std::get<RouterLsa>(make_router_lsa(topo_, origin).body);
      return router_step(Op::kRouterFirst, origin);
    }
    if (roll < 60) {
      const NodeId origin = present[rng_.pick_index(present.size())];
      mutate(*routers_[origin]);
      return router_step(Op::kRouterReplace, origin);
    }
    if (roll < 92 || withdrawn_.empty()) return external_step();
    if (router_erase && roll >= 98) {
      const NodeId origin = present[rng_.pick_index(present.size())];
      routers_[origin].reset();
      return erase_step(LsaKey{LsaType::kRouter, origin});
    }
    const auto it = std::next(withdrawn_.begin(),
                              static_cast<std::ptrdiff_t>(rng_.pick_index(withdrawn_.size())));
    const LsaKey key{LsaType::kExternal, *it};
    withdrawn_.erase(it);
    return erase_step(key);
  }

 private:
  static Step erase_step(const LsaKey& key) {
    Step step{Op::kErase, Lsa{}};
    step.lsa.id = key;
    return step;
  }

  Step router_step(Op op, NodeId origin) {
    Lsa lsa;
    lsa.id = LsaKey{LsaType::kRouter, origin};
    lsa.seq = ++seq_[lsa.id];
    lsa.body = *routers_[origin];
    return Step{op, std::move(lsa)};
  }

  void mutate(RouterLsa& router) {
    const auto pick = [&](const auto& v) { return rng_.pick_index(v.size()); };
    const std::int64_t kind = rng_.uniform_int(0, 19);
    if (kind < 5) {  // link drop (an interface failure, or a stray withdrawn)
      if (!router.links.empty()) {
        router.links.erase(router.links.begin() +
                           static_cast<std::ptrdiff_t>(pick(router.links)));
      }
      return;
    }
    switch (kind < 11 ? 1 : kind < 13 ? 2 : kind < 17 ? 3 : 4) {
      case 1:  // link restore: a topology link the LSA no longer lists
        for (const topo::LinkId lid : topo_.out_links(router.origin)) {
          const topo::Link& link = topo_.link(lid);
          const bool listed = std::any_of(
              router.links.begin(), router.links.end(),
              [&](const LsaLink& l) { return l.neighbor == link.to; });
          if (listed) continue;
          router.links.push_back(LsaLink{link.to, link.metric, link.subnet, link.local_addr});
          break;
        }
        break;
      case 2: {  // a stray claim: some other link's subnet, a fresh address
        const topo::Link& other = topo_.link(static_cast<topo::LinkId>(
            rng_.pick_index(topo_.link_count())));
        router.links.push_back(LsaLink{
            static_cast<NodeId>(rng_.pick_index(routers_.size())),
            static_cast<topo::Metric>(rng_.uniform_int(1, 9)), other.subnet,
            fresh_address()});
        break;
      }
      case 3:  // metric change, now and then a re-addressed interface
        if (!router.links.empty()) {
          LsaLink& link = router.links[pick(router.links)];
          if (rng_.uniform_int(0, 3) == 0) {
            link.local_addr = fresh_address();
          } else {
            link.metric = static_cast<topo::Metric>(rng_.uniform_int(1, 9));
          }
        }
        break;
      default: {  // prefix change: toggle one of a few stub prefixes
        const net::Prefix pfx(
            net::Ipv4(198, 51, static_cast<std::uint8_t>(rng_.uniform_int(0, 3)), 0), 24);
        const auto it = std::find_if(router.prefixes.begin(), router.prefixes.end(),
                                     [&](const LsaPrefix& p) { return p.prefix == pfx; });
        if (it != router.prefixes.end()) {
          router.prefixes.erase(it);
        } else {
          router.prefixes.push_back(
              LsaPrefix{pfx, static_cast<topo::Metric>(rng_.uniform_int(0, 3))});
        }
        break;
      }
    }
  }

  net::Ipv4 fresh_address() {
    ++fresh_;
    return net::Ipv4(10, 250, static_cast<std::uint8_t>(fresh_ >> 8),
                     static_cast<std::uint8_t>(fresh_));
  }

  Step external_step() {
    ExternalLsa ext;
    const std::vector<std::uint64_t> live(live_.begin(), live_.end());
    if (!live.empty() && rng_.uniform_int(0, 2) == 0) {  // withdraw a live lie
      const std::uint64_t key = live[rng_.pick_index(live.size())];
      ext = lies_.at(key);
      ext.withdrawn = true;
      live_.erase(key);
      withdrawn_.insert(key);
    } else {  // inject or replace a lie for one of three prefixes
      ext.prefix = net::Prefix(
          net::Ipv4(203, 0, static_cast<std::uint8_t>(113 + rng_.uniform_int(0, 2)), 0), 24);
      ext.lie_id = external_ls_id(ext.prefix, static_cast<std::uint64_t>(rng_.uniform_int(1, 3)));
      ext.ext_metric = static_cast<topo::Metric>(rng_.uniform_int(0, 4));
      ext.forwarding_address =
          rng_.uniform_int(0, 9) == 0
              ? net::Ipv4(192, 0, 2, 1)  // dangling
              : topo_.link(static_cast<topo::LinkId>(rng_.pick_index(topo_.link_count())))
                    .local_addr;
      live_.insert(ext.lie_id);
      withdrawn_.erase(ext.lie_id);
    }
    lies_[ext.lie_id] = ext;
    Lsa lsa = make_external_lsa(ext);
    lsa.seq = ++seq_[lsa.id];
    return Step{Op::kExternal, std::move(lsa)};
  }

  util::Rng rng_;
  topo::Topology topo_;
  std::vector<std::optional<RouterLsa>> routers_;
  std::map<LsaKey, SeqNum> seq_;
  std::map<std::uint64_t, ExternalLsa> lies_;
  std::set<std::uint64_t> live_;
  std::set<std::uint64_t> withdrawn_;
  std::uint32_t fresh_ = 0;
};

/// A forwarding address's resolution as (subnet prefix, pointed router).
using Resolution = std::optional<std::pair<net::Prefix, NodeId>>;

Resolution resolve(const NetworkView& view, net::Ipv4 addr) {
  const auto match = view.resolve_forwarding_address(addr);
  if (!match) return std::nullopt;
  return std::pair{match->subnet->prefix, match->pointed_router};
}

/// The addressing contract by linear scan: the subnet that contains `addr`
/// and has it on one of its two interfaces.
Resolution resolve_by_scan(const NetworkView& view, net::Ipv4 addr) {
  for (const NetworkView::Subnet& s : view.subnets()) {
    if (!s.prefix.contains(addr)) continue;
    if (addr == s.addr_a) return std::pair{s.prefix, s.a};
    if (addr == s.addr_b) return std::pair{s.prefix, s.b};
  }
  return std::nullopt;
}

net::Ipv4 broadcast_of(const net::Prefix& prefix) {
  return net::Ipv4(prefix.network().bits() | ~net::mask_for(prefix.length()));
}

TEST(ViewPatch, EqualsRebuildAfterEveryLsdbChange) {
  // The in-place view's oracle: after every install and erase, the patched
  // view equals from_lsdb of the same LSDB field by field -- adjacency,
  // subnets, attachments and externals in vector order, and the claims of
  // unpaired subnets -- and both resolve a fixed address set exactly as a
  // linear scan of the subnets does. Only a change of the set of Router-LSA
  // origins may refuse the patch.
  constexpr std::uint32_t kFreshProbes = 512;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LsdbChurn churn(seed, 14);
    const topo::Topology& t = churn.topo();
    const std::size_t n = t.node_count();
    // Every interface, each transfer subnet's network and broadcast
    // address, a dangling address, and the churn's re-addressed interfaces
    // (which lie outside their subnets, so never resolve).
    std::vector<net::Ipv4> probes{net::Ipv4(192, 0, 2, 1)};
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
      probes.push_back(t.link(l).local_addr);
      probes.push_back(t.link(l).subnet.network());
      probes.push_back(broadcast_of(t.link(l).subnet));
    }
    for (std::uint32_t k = 1; k <= kFreshProbes; ++k) {
      probes.push_back(net::Ipv4(10, 250, static_cast<std::uint8_t>(k >> 8),
                                 static_cast<std::uint8_t>(k)));
    }
    Lsdb lsdb;
    NetworkView view = NetworkView::from_lsdb(lsdb, n);
    std::size_t refused = 0;
    std::size_t resolved = 0;
    for (int step = 0; step < 800; ++step) {
      const LsdbChurn::Step next = churn.next(/*router_erase=*/true);
      bool patched = false;
      if (next.op == LsdbChurn::Op::kErase) {
        patched = view.patch(lsdb, lsdb.find(next.lsa.id), nullptr);
        ASSERT_TRUE(lsdb.erase(next.lsa.id));
      } else {
        const LsaPtr lsa = std::make_shared<const Lsa>(next.lsa);
        LsaPtr replaced;
        ASSERT_EQ(lsdb.install(lsa, &replaced), Lsdb::InstallResult::kNewer);
        patched = view.patch(lsdb, replaced.get(), lsa.get());
      }
      const bool origins_changed = next.op == LsdbChurn::Op::kRouterFirst ||
                                   (next.op == LsdbChurn::Op::kErase &&
                                    next.lsa.id.type == LsaType::kRouter);
      ASSERT_EQ(patched, !origins_changed) << "step " << step;
      const NetworkView rebuilt = NetworkView::from_lsdb(lsdb, n);
      if (!patched) {
        ++refused;
        view = rebuilt;
      }
      ASSERT_TRUE(view == rebuilt) << "step " << step << ": " << to_string(next.lsa);
      for (const net::Ipv4 addr : probes) {
        const Resolution expected = resolve_by_scan(rebuilt, addr);
        ASSERT_EQ(resolve(view, addr), expected)
            << "step " << step << ": " << addr.to_string();
        ASSERT_EQ(resolve(rebuilt, addr), expected)
            << "step " << step << ": " << addr.to_string();
        if (expected) ++resolved;
      }
    }
    EXPECT_LT(refused, 100u);
    EXPECT_GT(resolved, 0u);
    EXPECT_LE(churn.fresh_addresses(), kFreshProbes);
  }
}

TEST(ViewResolve, DownedLinkAddressesDangleInTopologyView) {
  // from_topology under a mask omits a downed link's transfer subnet, so
  // its two interface addresses resolve to nothing; every other interface
  // still resolves to its own router.
  util::Rng rng(11);
  const topo::Topology t = topo::make_waxman(20, rng);
  topo::LinkStateMask mask(t);
  ASSERT_TRUE(mask.fail(0));
  const NetworkView view = NetworkView::from_topology(t, {}, &mask);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const topo::Link& link = t.link(l);
    const Resolution got = resolve(view, link.local_addr);
    EXPECT_EQ(got, resolve_by_scan(view, link.local_addr)) << "link " << l;
    if (mask.is_down(l)) {
      EXPECT_EQ(got, std::nullopt) << "link " << l;
    } else {
      EXPECT_EQ(got, std::pair(link.subnet, link.from)) << "link " << l;
    }
  }
}

TEST(RouterProcess, TablesEqualFreshComputeUnderRandomLsdbChurn) {
  // The same churn through a router's own install, flush and SPF paths, in
  // hold-down windows of one to three changes: after every SPF run the
  // table equals a fresh computation over the router's LSDB.
  for (const std::uint64_t seed : {6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LsdbChurn churn(seed, 14);
    const topo::Topology& t = churn.topo();
    const proto::AddressMap addrs(t);
    util::EventQueue events;
    RouterProcess router(0, t.node_count(), addrs, events, IgpTiming{});
    for (int window = 0; window < 240; ++window) {
      for (int k = 0; k <= window % 3; ++k) {
        LsdbChurn::Step next = churn.next(/*router_erase=*/false);
        // A router flushes its own withdrawals: nothing to erase by hand.
        if (next.op != LsdbChurn::Op::kErase) router.originate(std::move(next.lsa));
      }
      events.run_until(events.now() + 1.0);
      const NetworkView fresh = NetworkView::from_lsdb(router.lsdb(), t.node_count());
      ASSERT_EQ(router.table(), compute_routes(fresh, run_spf(fresh, 0)))
          << "window " << window;
    }
    EXPECT_GT(router.tombstones_flushed(), 0u);
    EXPECT_GT(router.spf_incremental_runs(), 0u);
    EXPECT_LT(router.view_rebuilds(), router.spf_runs() / 2);
  }
}

TEST(Domain, LinkFlipPatchesEveryViewWithoutRebuilding) {
  util::Rng rng(60);
  topo::Topology t = topo::make_waxman(60, rng, 0.25, 0.25, 10);
  t.attach_prefix(0, net::Prefix(net::Ipv4(203, 0, 113, 0), 24), 0);
  util::EventQueue events;
  IgpDomain domain(t, events);
  domain.start();
  domain.run_to_convergence();
  const std::uint64_t boot_rebuilds = domain.total_view_rebuilds();
  const std::uint64_t boot_incremental = domain.total_spf_incremental_runs();
  EXPECT_GT(boot_rebuilds, 0u);

  topo::LinkId flipped = topo::kInvalidLink;
  for (topo::LinkId l = 0; l < t.link_count() && flipped == topo::kInvalidLink; ++l) {
    if (t.out_links(t.link(l).from).size() >= 3 && t.out_links(t.link(l).to).size() >= 3) {
      flipped = l;
    }
  }
  ASSERT_NE(flipped, topo::kInvalidLink);
  const auto expect_fresh_tables = [&] {
    for (NodeId n = 0; n < t.node_count(); ++n) {
      const NetworkView fresh = NetworkView::from_lsdb(domain.router(n).lsdb(), t.node_count());
      ASSERT_EQ(domain.table(n), compute_routes(fresh, n)) << "router " << n;
    }
  };
  domain.fail_link(flipped);
  domain.run_to_convergence();
  expect_fresh_tables();
  domain.restore_link(flipped);
  domain.run_to_convergence();
  expect_fresh_tables();
  EXPECT_EQ(domain.total_view_rebuilds(), boot_rebuilds);
  EXPECT_GT(domain.total_spf_incremental_runs(), boot_incremental);
}

}  // namespace
}  // namespace fibbing::igp
