#include "analysis/interning.h"

#include <algorithm>
#include <iterator>

#include "support/diagnostics.h"

namespace encore::analysis {

std::size_t
LocationInterner::MemLocKeyHash::operator()(const MemLoc &loc) const
{
    // FNV-1a over the canonical fields. The offset participates only
    // when exact, mirroring MemLoc::operator==.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(loc.unknown_base ? 1 : 0);
    mix(loc.exact_offset ? 1 : 0);
    if (loc.exact_offset)
        mix(static_cast<std::uint64_t>(loc.offset));
    for (const ir::ObjectId base : loc.bases)
        mix(base);
    return static_cast<std::size_t>(h);
}

LocId
LocationInterner::internLoc(const MemLoc &loc)
{
    auto [it, inserted] =
        loc_ids_.try_emplace(loc, static_cast<LocId>(locs_.size()));
    if (!inserted)
        return it->second;
    const LocId id = it->second;
    locs_.push_back(loc);
    GuardId guard = kInvalidInternId;
    if (loc.isExact()) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(loc.bases[0]) << 32) ^
            static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(loc.offset)) ^
            (static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(loc.offset >> 32))
             << 52);
        auto [git, ginserted] = guard_ids_.try_emplace(
            key, static_cast<GuardId>(num_guards_));
        if (ginserted)
            ++num_guards_;
        guard = git->second;
    }
    loc_guards_.push_back(guard);
    return id;
}

EntryId
LocationInterner::internEntry(LocId loc, const ir::Instruction *origin)
{
    ENCORE_ASSERT(loc < locs_.size(), "unknown location id");
    const std::uint64_t key =
        (static_cast<std::uint64_t>(loc) << 32) ^
        (reinterpret_cast<std::uintptr_t>(origin) * 0x9e3779b97f4a7c15ull);
    auto [it, inserted] =
        entry_ids_.try_emplace(key, static_cast<EntryId>(entries_.size()));
    if (!inserted) {
        // Guard against the (astronomically unlikely) key collision:
        // the stored entry must actually match.
        const LocEntry &existing = entries_[it->second];
        ENCORE_ASSERT(existing.origin == origin &&
                          entry_locs_[it->second] == loc,
                      "entry intern key collision");
        return it->second;
    }
    entries_.push_back(LocEntry{locs_[loc], origin});
    entry_locs_.push_back(loc);
    return it->second;
}

bool
IdSet::insert(std::uint32_t id)
{
    auto it = std::lower_bound(sorted_.begin(), sorted_.end(), id);
    if (it != sorted_.end() && *it == id)
        return false;
    sorted_.insert(it, id);
    return true;
}

bool
IdSet::unionWith(const IdSet &other)
{
    if (other.empty())
        return false;
    std::vector<std::uint32_t> merged;
    merged.reserve(sorted_.size() + other.sorted_.size());
    std::set_union(sorted_.begin(), sorted_.end(), other.sorted_.begin(),
                   other.sorted_.end(), std::back_inserter(merged));
    const bool changed = merged.size() != sorted_.size();
    sorted_ = std::move(merged);
    return changed;
}

void
IdSet::intersectWith(const IdSet &other)
{
    if (empty())
        return;
    std::vector<std::uint32_t> kept;
    kept.reserve(std::min(sorted_.size(), other.sorted_.size()));
    std::set_intersection(sorted_.begin(), sorted_.end(),
                          other.sorted_.begin(), other.sorted_.end(),
                          std::back_inserter(kept));
    sorted_ = std::move(kept);
}

bool
IdSet::contains(std::uint32_t id) const
{
    return std::binary_search(sorted_.begin(), sorted_.end(), id);
}

bool
AliasFilter::mayAlias(EntryId a, EntryId b)
{
    std::uint64_t key;
    if (origin_sensitive_) {
        key = (static_cast<std::uint64_t>(a) << 32) | b;
    } else {
        key = (static_cast<std::uint64_t>(interner_.locOfEntry(a)) << 32) |
              interner_.locOfEntry(b);
    }
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    const bool verdict =
        aa_.mayAlias(interner_.entry(a), interner_.entry(b));
    cache_.emplace(key, verdict);
    return verdict;
}

} // namespace encore::analysis
