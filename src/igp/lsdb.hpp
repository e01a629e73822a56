#pragma once

#include <unordered_map>
#include <vector>

#include "igp/lsa.hpp"

namespace fibbing::igp {

/// Link-state database: a router's one store of every flooded LSA, one
/// entry per wire identity (LsaKey), each entry one instance -- its wire
/// form and the view decoded from it at install (see Lsa). Sequence numbers
/// decide freshness, exactly as in OSPF: an instance replaces a stored one
/// iff its seq is strictly newer. Entries are shared handles (LsaPtr), so
/// readers and rebuilt databases reuse them without copying.
class Lsdb {
 public:
  enum class InstallResult { kNewer, kDuplicate, kStale };

  /// Install an LSA instance. kNewer means the database changed (and the
  /// caller should re-flood and schedule SPF); `replaced`, when given, then
  /// receives the instance it displaced (null for a new key).
  InstallResult install(LsaPtr lsa, LsaPtr* replaced = nullptr);

  [[nodiscard]] const Lsa* find(const LsaKey& key) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Remove an entry outright (RFC 14 MaxAge flushing). Returns true when
  /// something was erased.
  bool erase(const LsaKey& key);

  /// All live (non-withdrawn) LSAs, deterministic order (sorted by key).
  [[nodiscard]] std::vector<const Lsa*> live() const;

  /// All entries including withdrawal tombstones (for flooding sync),
  /// shared handles so re-flooding does not copy.
  [[nodiscard]] std::vector<LsaPtr> all() const;

  /// Two databases are equivalent when they hold the same keys at the same
  /// sequence numbers (the convergence criterion for the flooding tests).
  [[nodiscard]] bool same_content(const Lsdb& other) const;

 private:
  std::unordered_map<LsaKey, LsaPtr> entries_;
};

}  // namespace fibbing::igp
