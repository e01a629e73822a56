#pragma once

// An in-memory proto::DatabaseFacade for the session-FSM suites: they drive
// NeighborSession pairs over it and can add or remove an instance at any
// point of an exchange.

#include <cstdint>
#include <map>
#include <vector>

#include "proto/codec.hpp"
#include "proto/neighbor.hpp"

namespace fibbing::support {

class FakeDb final : public proto::DatabaseFacade {
 public:
  std::map<proto::LsaIdentity, proto::WireLsa> store;

  void seed(const proto::WireLsa& lsa) { store[proto::identity_of(lsa.header)] = lsa; }

  [[nodiscard]] std::vector<proto::LsaHeader> summarize() const override {
    std::vector<proto::LsaHeader> out;
    for (const auto& [id, lsa] : store) out.push_back(lsa.header);
    return out;
  }
  [[nodiscard]] const proto::WireLsa* lookup(
      const proto::LsaIdentity& id) const override {
    const auto it = store.find(id);
    return it == store.end() ? nullptr : &it->second;
  }
  DeliverResult deliver(const proto::WireLsa& lsa, std::uint32_t) override {
    const proto::LsaIdentity id = proto::identity_of(lsa.header);
    const auto it = store.find(id);
    if (it == store.end()) {
      store.emplace(id, lsa);
      return DeliverResult::kNewer;
    }
    const int order = proto::compare_instances(lsa.header, it->second.header);
    if (order > 0) {
      it->second = lsa;
      return DeliverResult::kNewer;
    }
    return order == 0 ? DeliverResult::kDuplicate : DeliverResult::kStale;
  }
};

}  // namespace fibbing::support
