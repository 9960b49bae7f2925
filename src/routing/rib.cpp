#include "routing/rib.hpp"

#include <algorithm>

namespace acr::route {

namespace {

/// Cross-rib state compare (the old `key() == key()`, prefix handled by the
/// caller's cell alignment): id compare within one table lineage, name/
/// content compare across unrelated tables.
bool sameStateAcross(const SimTables* ta, const RouteEntry& ea,
                     const SimTables* tb, const RouteEntry& eb) {
  if (ea.source != eb.source || ea.local_pref != eb.local_pref ||
      ea.med != eb.med || ea.next_hop != eb.next_hop) {
    return false;
  }
  if (ta == tb) {
    return ea.learned_from_id == eb.learned_from_id &&
           ea.as_path_id == eb.as_path_id;
  }
  if (ta->routers.nameOf(ea.learned_from_id) !=
      tb->routers.nameOf(eb.learned_from_id)) {
    return false;
  }
  const std::span<const std::uint32_t> pa = ta->paths.pathOf(ea.as_path_id);
  const std::span<const std::uint32_t> pb = tb->paths.pathOf(eb.as_path_id);
  return pa.size() == pb.size() &&
         std::equal(pa.begin(), pa.end(), pb.begin());
}

}  // namespace

std::uint64_t entryStateHash(int rid, PrefixId pid, const RouteEntry& entry) {
  const std::uint32_t words[8] = {
      static_cast<std::uint32_t>(rid),
      pid,
      static_cast<std::uint32_t>(entry.source),
      entry.local_pref,
      entry.med,
      entry.next_hop,
      static_cast<std::uint32_t>(entry.learned_from_id),
      entry.as_path_id,
  };
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::uint32_t w : words) {
    hash ^= w;
    hash *= 1099511628211ull;
  }
  // Finalizer: XOR-combining entry hashes needs every output bit to depend
  // on every input word, which raw FNV's low-bit diffusion doesn't give.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  return hash;
}

Rib::Rib(SimTablesPtr tables, const std::vector<int>& router_ids)
    : tables_(std::move(tables)) {
  int max_rid = 0;
  for (const int rid : router_ids) max_rid = std::max(max_rid, rid);
  pages_.resize(static_cast<std::size_t>(max_rid) + 1);
  for (const int rid : router_ids) {
    auto& slot = pages_[static_cast<std::size_t>(rid)];
    if (slot == nullptr) {
      slot = std::make_shared<RibPage>();
      ++page_count_;
    }
  }
}

std::vector<std::string> Rib::routers() const {
  std::vector<std::string> out;
  if (tables_ == nullptr) return out;
  out.reserve(page_count_);
  for (const int rid : tables_->routers.ids_by_name) {
    if (page(rid) != nullptr) out.push_back(tables_->routers.nameOf(rid));
  }
  return out;
}

bool Rib::hasRouter(const std::string& router) const {
  if (tables_ == nullptr) return false;
  const int rid = tables_->routers.idOf(router);
  return rid != 0 && page(rid) != nullptr;
}

std::size_t Rib::routeCountOf(const std::string& router) const {
  if (tables_ == nullptr) return 0;
  const RibPage* p = page(tables_->routers.idOf(router));
  return p == nullptr ? 0 : p->live;
}

std::optional<Route> Rib::routeOf(const std::string& router,
                                  const net::Prefix& prefix) const {
  if (tables_ == nullptr) return std::nullopt;
  const int rid = tables_->routers.idOf(router);
  if (rid == 0) return std::nullopt;
  const PrefixId pid = tables_->prefixes.tryIdOf(prefix);
  if (pid == kNoId) return std::nullopt;
  const RouteEntry* entry = entryAt(rid, pid);
  if (entry == nullptr) return std::nullopt;
  return materialize(pid, *entry);
}

std::vector<std::pair<net::Prefix, PrefixId>> Rib::sortedCells(
    const RibPage& p) const {
  std::vector<std::pair<net::Prefix, PrefixId>> cells;
  cells.reserve(p.live);
  for (PrefixId pid = 0; pid < p.entries.size(); ++pid) {
    if (p.entries[pid].present != 0) {
      cells.emplace_back(tables_->prefixes.prefixOf(pid), pid);
    }
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

std::map<net::Prefix, Route> Rib::routesOf(const std::string& router) const {
  std::map<net::Prefix, Route> out;
  for (auto& [prefix, route] : routesListOf(router)) {
    out.emplace(prefix, std::move(route));
  }
  return out;
}

std::vector<std::pair<net::Prefix, Route>> Rib::routesListOf(
    const std::string& router) const {
  std::vector<std::pair<net::Prefix, Route>> out;
  if (tables_ == nullptr) return out;
  const RibPage* p = page(tables_->routers.idOf(router));
  if (p == nullptr) return out;
  const auto cells = sortedCells(*p);
  out.reserve(cells.size());
  for (const auto& [prefix, pid] : cells) {
    out.emplace_back(prefix, materialize(pid, p->entries[pid]));
  }
  return out;
}

std::size_t Rib::totalRoutes() const {
  std::size_t total = 0;
  for (const RibPagePtr& p : pages_) {
    if (p != nullptr) total += p->live;
  }
  return total;
}

std::size_t Rib::pageBytes() const {
  std::size_t total = 0;
  for (const RibPagePtr& p : pages_) {
    if (p != nullptr) total += p->entries.capacity() * sizeof(RouteEntry);
  }
  return total;
}

bool Rib::identicalTo(const Rib& other) const {
  const std::vector<std::string> names = routers();
  if (names != other.routers()) return false;
  const SimTables* ta = tables_.get();
  const SimTables* tb = other.tables_.get();
  for (const std::string& name : names) {
    const int rid = ta->routers.idOf(name);
    const int orid = tb->routers.idOf(name);
    const RibPage* pa = page(rid);
    const RibPage* pb = other.page(orid);
    if (ta == tb && pageRef(rid) == other.pageRef(orid)) {
      continue;  // shared page, identical by construction
    }
    const auto ca = sortedCells(*pa);
    const auto cb = other.sortedCells(*pb);
    if (ca.size() != cb.size()) return false;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      if (ca[i].first != cb[i].first) return false;
      if (!sameStateAcross(ta, pa->entries[ca[i].second], tb,
                           pb->entries[cb[i].second])) {
        return false;
      }
    }
  }
  return true;
}

void Rib::changedPrefixesInto(const Rib& old, std::set<net::Prefix>& out) const {
  if (tables_ == nullptr) return;
  const SimTables* ta = tables_.get();
  const SimTables* tb = old.tables_.get();
  for (const int rid : ta->routers.ids_by_name) {
    const RibPage* pa = page(rid);
    if (pa == nullptr) continue;
    const std::string& name = ta->routers.nameOf(rid);
    const int orid = tb == nullptr ? 0 : tb->routers.idOf(name);
    const RibPage* pb = orid == 0 ? nullptr : old.page(orid);
    if (pb == nullptr) {
      // Router absent on the old side: every present prefix changed.
      for (PrefixId pid = 0; pid < pa->entries.size(); ++pid) {
        if (pa->entries[pid].present != 0) {
          out.insert(ta->prefixes.prefixOf(pid));
        }
      }
      continue;
    }
    if (ta == tb) {
      if (pageRef(rid) == old.pageRef(orid)) continue;  // shared, no diff
      const std::size_t n = std::max(pa->entries.size(), pb->entries.size());
      static const RouteEntry kAbsent{};
      for (PrefixId pid = 0; pid < n; ++pid) {
        const RouteEntry& ea =
            pid < pa->entries.size() ? pa->entries[pid] : kAbsent;
        const RouteEntry& eb =
            pid < pb->entries.size() ? pb->entries[pid] : kAbsent;
        if (ea.present == 0 && eb.present == 0) continue;
        if (ea.present != eb.present || !sameStateAcross(ta, ea, tb, eb)) {
          out.insert(ta->prefixes.prefixOf(pid));
        }
      }
      continue;
    }
    // Unrelated tables: merge-walk both sides in prefix order.
    const auto ca = sortedCells(*pa);
    const auto cb = old.sortedCells(*pb);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ca.size() || j < cb.size()) {
      if (j >= cb.size() || (i < ca.size() && ca[i].first < cb[j].first)) {
        out.insert(ca[i].first);
        ++i;
      } else if (i >= ca.size() || cb[j].first < ca[i].first) {
        out.insert(cb[j].first);
        ++j;
      } else {
        if (!sameStateAcross(ta, pa->entries[ca[i].second], tb,
                             pb->entries[cb[j].second])) {
          out.insert(ca[i].first);
        }
        ++i;
        ++j;
      }
    }
  }
}

RibPage& Rib::mutablePage(int rid) {
  auto& slot = pages_[static_cast<std::size_t>(rid)];
  if (slot == nullptr) {
    slot = std::make_shared<RibPage>();
    ++page_count_;
  } else if (slot.use_count() != 1) {
    slot = std::make_shared<RibPage>(*slot);  // clone-on-first-write
  }
  return *slot;
}

void Rib::set(int rid, PrefixId pid, const RouteEntry& entry) {
  RibPage& p = mutablePage(rid);
  if (pid >= p.entries.size()) {
    p.entries.resize(static_cast<std::size_t>(pid) + 1);
  }
  RouteEntry& cell = p.entries[pid];
  if (cell.present == 0) ++p.live;
  cell = entry;
  cell.present = 1;
}

void Rib::erase(int rid, PrefixId pid) {
  if (entryAt(rid, pid) == nullptr) return;
  RibPage& p = mutablePage(rid);
  p.entries[pid] = RouteEntry{};
  --p.live;
}

void Rib::installPage(int rid, RibPage&& fresh) {
  auto& slot = pages_[static_cast<std::size_t>(rid)];
  if (slot == nullptr) ++page_count_;
  slot = std::make_shared<RibPage>(std::move(fresh));
}

void Rib::restorePage(int rid, RibPagePtr saved) {
  auto& slot = pages_[static_cast<std::size_t>(rid)];
  if ((slot == nullptr) != (saved == nullptr)) {
    page_count_ += saved != nullptr ? 1 : -1;
  }
  slot = std::move(saved);
}

void Rib::clearRouter(const std::string& router) {
  if (tables_ == nullptr) return;
  const int rid = tables_->routers.idOf(router);
  if (rid == 0 || page(rid) == nullptr) return;
  pages_[static_cast<std::size_t>(rid)] = std::make_shared<RibPage>();
}

std::uint64_t Rib::stateHash() const {
  std::uint64_t hash = 0;
  for (std::size_t rid = 0; rid < pages_.size(); ++rid) {
    const RibPage* p = pages_[rid].get();
    if (p == nullptr) continue;
    for (PrefixId pid = 0; pid < p->entries.size(); ++pid) {
      if (p->entries[pid].present != 0) {
        hash ^= entryStateHash(static_cast<int>(rid), pid, p->entries[pid]);
      }
    }
  }
  return hash;
}

Route Rib::materialize(PrefixId pid, const RouteEntry& entry) const {
  Route r;
  r.prefix = tables_->prefixes.prefixOf(pid);
  r.source = entry.source;
  const std::span<const std::uint32_t> path =
      tables_->paths.pathOf(entry.as_path_id);
  r.as_path.assign(path.begin(), path.end());
  r.local_pref = entry.local_pref;
  r.med = entry.med;
  r.learned_from = tables_->routers.nameOf(entry.learned_from_id);
  r.learned_from_id = entry.learned_from_id;
  r.next_hop = net::Ipv4Address(entry.next_hop);
  r.derivation =
      show_derivations_ ? entry.derivation : prov::kNoDerivation;
  return r;
}

}  // namespace acr::route
