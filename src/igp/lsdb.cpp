#include "igp/lsdb.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace fibbing::igp {

Lsdb::InstallResult Lsdb::install(LsaPtr lsa, LsaPtr* replaced) {
  FIB_ASSERT(lsa != nullptr, "Lsdb::install: null LSA");
  auto it = entries_.find(lsa->id);
  if (it == entries_.end()) {
    entries_.emplace(lsa->id, std::move(lsa));
    if (replaced != nullptr) replaced->reset();
    return InstallResult::kNewer;
  }
  if (lsa->seq > it->second->seq) {
    if (replaced != nullptr) *replaced = std::move(it->second);
    it->second = std::move(lsa);
    return InstallResult::kNewer;
  }
  if (lsa->seq == it->second->seq) return InstallResult::kDuplicate;
  return InstallResult::kStale;
}

bool Lsdb::erase(const LsaKey& key) { return entries_.erase(key) > 0; }

const Lsa* Lsdb::find(const LsaKey& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<const Lsa*> Lsdb::live() const {
  std::vector<const Lsa*> out;
  out.reserve(entries_.size());
  // lint:unordered-iter-ok(hash order never escapes: out is sorted by key below)
  for (const auto& [key, lsa] : entries_) {
    const auto* ext = std::get_if<ExternalLsa>(&lsa->body);
    if (ext != nullptr && ext->withdrawn) continue;
    out.push_back(lsa.get());
  }
  std::sort(out.begin(), out.end(),
            [](const Lsa* a, const Lsa* b) { return a->id < b->id; });
  return out;
}

std::vector<LsaPtr> Lsdb::all() const {
  std::vector<LsaPtr> out;
  out.reserve(entries_.size());
  // lint:unordered-iter-ok(hash order never escapes: out is sorted by key below)
  for (const auto& [key, lsa] : entries_) out.push_back(lsa);
  std::sort(out.begin(), out.end(),
            [](const LsaPtr& a, const LsaPtr& b) { return a->id < b->id; });
  return out;
}

bool Lsdb::same_content(const Lsdb& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  // lint:unordered-iter-ok(order-independent reduction: all-of over lookups)
  for (const auto& [key, lsa] : entries_) {
    const Lsa* theirs = other.find(key);
    if (theirs == nullptr || theirs->seq != lsa->seq) return false;
  }
  return true;
}

}  // namespace fibbing::igp
