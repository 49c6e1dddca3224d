#include "analysis/memloc.h"

#include <algorithm>
#include <sstream>

#include "support/diagnostics.h"

namespace encore::analysis {

MemLoc
MemLoc::anywhere()
{
    MemLoc loc;
    loc.unknown_base = true;
    return loc;
}

MemLoc
MemLoc::exact(ir::ObjectId object, std::int64_t offset)
{
    MemLoc loc;
    loc.bases = {object};
    loc.exact_offset = true;
    loc.offset = offset;
    return loc;
}

MemLoc
MemLoc::object(ir::ObjectId object)
{
    MemLoc loc;
    loc.bases = {object};
    return loc;
}

MemLoc
MemLoc::objects(std::vector<ir::ObjectId> bases)
{
    ENCORE_ASSERT(!bases.empty(), "objects() requires at least one base");
    MemLoc loc;
    std::sort(bases.begin(), bases.end());
    bases.erase(std::unique(bases.begin(), bases.end()), bases.end());
    loc.bases = std::move(bases);
    return loc;
}

bool
MemLoc::operator==(const MemLoc &other) const
{
    return unknown_base == other.unknown_base && bases == other.bases &&
           exact_offset == other.exact_offset &&
           (!exact_offset || offset == other.offset);
}

std::string
MemLoc::toString(const ir::Module *module) const
{
    if (unknown_base)
        return "<anywhere>";
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < bases.size(); ++i) {
        if (i)
            os << ",";
        if (module)
            os << module->object(bases[i]).name;
        else
            os << "obj" << bases[i];
    }
    os << "}";
    if (exact_offset)
        os << "+" << offset;
    else
        os << "+?";
    return os.str();
}

bool
mayAlias(const MemLoc &a, const MemLoc &b)
{
    if (a.unknown_base || b.unknown_base)
        return true;
    // Base sets must intersect (both are sorted).
    bool bases_intersect = false;
    std::size_t i = 0, j = 0;
    while (i < a.bases.size() && j < b.bases.size()) {
        if (a.bases[i] == b.bases[j]) {
            bases_intersect = true;
            break;
        }
        if (a.bases[i] < b.bases[j])
            ++i;
        else
            ++j;
    }
    if (!bases_intersect)
        return false;
    // Accesses are one word wide, so two known offsets collide only when
    // equal — regardless of which candidate base object is the real one.
    if (a.exact_offset && b.exact_offset && a.offset != b.offset)
        return false;
    return true;
}

bool
mustAlias(const MemLoc &a, const MemLoc &b)
{
    return a.isExact() && b.isExact() && a.bases[0] == b.bases[0] &&
           a.offset == b.offset;
}

void
LocationSet::add(LocEntry entry)
{
    for (const LocEntry &existing : entries_) {
        if (existing == entry)
            return;
    }
    entries_.push_back(std::move(entry));
}

bool
LocationSet::unionWith(const LocationSet &other)
{
    bool changed = false;
    for (const LocEntry &entry : other.entries_) {
        const std::size_t before = entries_.size();
        add(entry);
        changed |= entries_.size() != before;
    }
    return changed;
}

} // namespace encore::analysis
