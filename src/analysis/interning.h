/**
 * @file
 * Interned location sets — the dense-ID backbone of the idempotence
 * dataflow (Equations 1–4).
 *
 * The RS/GA/EA equations manipulate sets of abstract locations over and
 * over for every candidate region and every loop summary. Doing that on
 * `std::set<std::pair<ObjectId, offset>>` and vectors of full MemLoc
 * values makes every union a chain of allocations and deep
 * comparisons. Instead, the analysis interns, once per module pass:
 *
 *   - LocId   — each distinct abstract location (MemLoc),
 *   - GuardId — each distinct *exact* (object, offset) pair (the only
 *               locations a guarded-address set can contain),
 *   - EntryId — each distinct (LocId, origin instruction) pair, the
 *               element type of RS/EA sets.
 *
 * IDs are assigned in a deterministic pre-pass over the module in
 * program order, so later analysis — including parallel analysis — is
 * lookup-only and bit-reproducible at any thread count.
 *
 * `IdSet` is the set representation: a sorted vector of u32 IDs with
 * linear-merge union/intersection, iterated in ascending ID order. No
 * analysis of the workload suite builds a set crowded enough for a
 * bitset to beat the vector.
 *
 * `AliasFilter` memoizes the Equation 4 may-alias queries in a flat
 * pair-keyed cache; for origin-insensitive analyses the key degrades to
 * the location pair, which is what makes the O(|EA|·|RS|) violation
 * check cheap across the many regions that share locations.
 */
#ifndef ENCORE_ANALYSIS_INTERNING_H
#define ENCORE_ANALYSIS_INTERNING_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/alias.h"
#include "analysis/memloc.h"

namespace encore::analysis {

using LocId = std::uint32_t;
using GuardId = std::uint32_t;
using EntryId = std::uint32_t;

inline constexpr std::uint32_t kInvalidInternId = 0xffffffffu;

/**
 * Module-wide intern table for locations, exact pairs and tagged
 * entries. Interning is single-threaded (construction-time); lookups
 * afterwards are const and thread-safe.
 */
class LocationInterner
{
  public:
    LocId internLoc(const MemLoc &loc);
    EntryId internEntry(LocId loc, const ir::Instruction *origin);
    EntryId
    internEntry(const MemLoc &loc, const ir::Instruction *origin)
    {
        return internEntry(internLoc(loc), origin);
    }

    const MemLoc &loc(LocId id) const { return locs_[id]; }
    const LocEntry &entry(EntryId id) const { return entries_[id]; }
    LocId locOfEntry(EntryId id) const { return entry_locs_[id]; }
    /// Guard id of a location (kInvalidInternId unless the location is
    /// exact).
    GuardId guardOfLoc(LocId id) const { return loc_guards_[id]; }
    GuardId
    guardOfEntry(EntryId id) const
    {
        return loc_guards_[entry_locs_[id]];
    }

    std::uint32_t
    numLocs() const
    {
        return static_cast<std::uint32_t>(locs_.size());
    }
    std::uint32_t
    numGuards() const
    {
        return static_cast<std::uint32_t>(num_guards_);
    }
    std::uint32_t
    numEntries() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }

  private:
    struct MemLocKeyHash
    {
        std::size_t operator()(const MemLoc &loc) const;
    };

    std::vector<MemLoc> locs_;
    std::vector<GuardId> loc_guards_; ///< Per LocId; invalid if inexact.
    std::vector<LocEntry> entries_;
    std::vector<LocId> entry_locs_; ///< Per EntryId.
    std::unordered_map<MemLoc, LocId, MemLocKeyHash> loc_ids_;
    std::unordered_map<std::uint64_t, GuardId> guard_ids_;
    std::unordered_map<std::uint64_t, EntryId> entry_ids_;
    std::size_t num_guards_ = 0;
};

/**
 * Sorted-unique set of u32 IDs. All mutators keep ascending order, so
 * forEach/toVector iterate ascending.
 */
class IdSet
{
  public:
    /// Adds `id`; returns true when it was not present.
    bool insert(std::uint32_t id);

    /// this |= other; returns true if anything was added.
    bool unionWith(const IdSet &other);

    /// this &= other.
    void intersectWith(const IdSet &other);

    bool contains(std::uint32_t id) const;

    bool empty() const { return sorted_.empty(); }

    std::size_t size() const { return sorted_.size(); }

    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const std::uint32_t id : sorted_)
            fn(id);
    }

    const std::vector<std::uint32_t> &toVector() const { return sorted_; }

    bool operator==(const IdSet &) const = default;

  private:
    std::vector<std::uint32_t> sorted_;
};

/**
 * Memoized may-alias filter over interned entries (Equation 4's
 * EA x RS check). One instance per analysis pass; not thread-safe.
 */
class AliasFilter
{
  public:
    AliasFilter(const LocationInterner &interner, const AliasAnalysis &aa)
        : interner_(interner),
          aa_(aa),
          origin_sensitive_(aa.originSensitive())
    {
    }

    bool mayAlias(EntryId a, EntryId b);

    /// Calls fn(exposed, store) for every (exposed, store) pair of
    /// ea x rs (ascending ID order) that may alias.
    template <typename Fn>
    void
    forEachAliasingPair(const IdSet &ea, const IdSet &rs, Fn fn)
    {
        ea.forEach([&](EntryId exposed) {
            rs.forEach([&](EntryId store) {
                if (mayAlias(exposed, store))
                    fn(exposed, store);
            });
        });
    }

    std::size_t cacheSize() const { return cache_.size(); }

  private:
    const LocationInterner &interner_;
    const AliasAnalysis &aa_;
    bool origin_sensitive_;
    /// Flat pair-keyed memo: (a << 32 | b) -> verdict. Keys are entry
    /// IDs for origin-sensitive analyses, location IDs otherwise.
    std::unordered_map<std::uint64_t, bool> cache_;
};

} // namespace encore::analysis

#endif // ENCORE_ANALYSIS_INTERNING_H
