/**
 * @file
 * Abstract memory locations and the set algebra behind Equations 1–4.
 *
 * The paper's reachable-store (RS), guarded-address (GA) and exposed-
 * address (EA) sets are sets of *addresses* compared under a static
 * alias analysis. Here an abstract location (MemLoc) is a set of
 * possible base objects plus an optionally-known constant offset:
 *
 *   - may-alias:  base sets intersect (or either is unknown) and the
 *                 offsets are compatible;
 *   - must-alias: both resolve to the same single object at the same
 *                 known offset.
 *
 * GA membership requires must-level knowledge, so GA holds only exact
 * (object, offset) pairs, interned as GuardIds (analysis/interning.h);
 * RS and EA are LocationSets whose entries remember the originating
 * instruction — that is how the analysis reports *which* store needs a
 * checkpoint (the CP set).
 */
#ifndef ENCORE_ANALYSIS_MEMLOC_H
#define ENCORE_ANALYSIS_MEMLOC_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ir/module.h"

namespace encore::analysis {

struct MemLoc
{
    /// May reference any object (failed points-to).
    bool unknown_base = false;
    /// Candidate base objects, sorted; meaningful when !unknown_base.
    std::vector<ir::ObjectId> bases;
    /// True when the word offset is a compile-time constant.
    bool exact_offset = false;
    std::int64_t offset = 0;

    static MemLoc anywhere();
    static MemLoc exact(ir::ObjectId object, std::int64_t offset);
    static MemLoc object(ir::ObjectId object);
    static MemLoc objects(std::vector<ir::ObjectId> bases);

    /// Single known object at a known offset.
    bool
    isExact() const
    {
        return !unknown_base && bases.size() == 1 && exact_offset;
    }

    bool operator==(const MemLoc &other) const;

    std::string toString(const ir::Module *module = nullptr) const;
};

/// Conservative pairwise queries on abstract locations.
bool mayAlias(const MemLoc &a, const MemLoc &b);
bool mustAlias(const MemLoc &a, const MemLoc &b);

/// A location tagged with the instruction that produced it (a store for
/// RS entries, a load for EA entries; calls contribute their summarized
/// accesses with the call instruction as origin).
struct LocEntry
{
    MemLoc loc;
    const ir::Instruction *origin = nullptr;

    bool
    operator==(const LocEntry &other) const
    {
        return origin == other.origin && loc == other.loc;
    }
};

/**
 * Set of LocEntry, deduplicated by (location, origin).
 */
class LocationSet
{
  public:
    void add(LocEntry entry);
    void add(MemLoc loc, const ir::Instruction *origin)
    {
        add(LocEntry{std::move(loc), origin});
    }

    /// this |= other; returns true if anything was added.
    bool unionWith(const LocationSet &other);

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    const std::vector<LocEntry> &entries() const { return entries_; }
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

  private:
    std::vector<LocEntry> entries_;
};

} // namespace encore::analysis

#endif // ENCORE_ANALYSIS_MEMLOC_H
