#include "interp/profile.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "support/diagnostics.h"

namespace encore::interp {

std::uint64_t
ProfileData::edgeCount(const ir::Function &func, ir::BlockId from,
                       ir::BlockId to) const
{
    auto it = edge_counts_.find(&func);
    if (it == edge_counts_.end())
        return 0;
    auto edge = it->second.find({from, to});
    return edge == it->second.end() ? 0 : edge->second;
}

std::uint64_t
ProfileData::externalEntries(const ir::Function &func,
                             ir::BlockId block) const
{
    auto it = external_entries_.find(&func);
    if (it == external_entries_.end())
        return 0;
    auto entry = it->second.find(block);
    return entry == it->second.end() ? 0 : entry->second;
}

std::uint64_t
ProfileData::blockCount(const ir::Function &func, ir::BlockId block) const
{
    auto it = block_counts_.find(&func);
    if (it == block_counts_.end() || block >= it->second.size())
        return 0;
    return it->second[block];
}

std::uint64_t
ProfileData::functionEntries(const ir::Function &func) const
{
    return blockCount(func, func.entry()->id());
}

double
ProfileData::blockProbability(const ir::Function &func,
                              ir::BlockId block) const
{
    const std::uint64_t entries = functionEntries(func);
    if (entries == 0)
        return 0.0;
    return static_cast<double>(blockCount(func, block)) /
           static_cast<double>(entries);
}

std::uint64_t
ProfileData::totalDynInstrs() const
{
    std::uint64_t total = 0;
    for (const auto &[func, counts] : block_counts_)
        total += functionDynInstrs(*func);
    return total;
}

std::uint64_t
ProfileData::functionDynInstrs(const ir::Function &func) const
{
    auto it = block_counts_.find(&func);
    if (it == block_counts_.end())
        return 0;
    std::uint64_t total = 0;
    for (const auto &bb : func.blocks()) {
        std::size_t real_instrs = 0;
        for (const auto &inst : bb->instructions()) {
            if (!inst.isPseudo())
                ++real_instrs;
        }
        if (bb->id() < it->second.size())
            total += it->second[bb->id()] * real_instrs;
    }
    return total;
}

namespace {

/// Fibonacci hashing: the top 64 - `shift` bits of `key` times 2^64/φ.
std::size_t
spread(std::uint64_t key, unsigned shift)
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

} // namespace

std::size_t
ProfileCollector::PointerIndex::home(const void *key) const
{
    return spread(reinterpret_cast<std::uintptr_t>(key), shift_);
}

void
ProfileCollector::PointerIndex::build(const std::vector<const void *> &keys)
{
    // At least two slots, so the shift in home() stays below 64.
    shift_ = 63;
    std::size_t size = 2;
    while (size < 2 * keys.size()) {
        size <<= 1;
        --shift_;
    }
    keys_.assign(size, nullptr);
    values_.assign(size, 0);
    const std::size_t mask = size - 1;
    for (std::uint32_t value = 0; value < keys.size(); ++value) {
        std::size_t slot = home(keys[value]) & mask;
        while (keys_[slot])
            slot = (slot + 1) & mask;
        keys_[slot] = keys[value];
        values_[slot] = value;
    }
}

std::uint32_t
ProfileCollector::PointerIndex::find(const void *key) const
{
    const std::size_t mask = keys_.size() - 1;
    std::size_t slot = home(key) & mask;
    while (keys_[slot] != key) {
        ENCORE_ASSERT(keys_[slot],
                      "profile event from outside the collector's module");
        slot = (slot + 1) & mask;
    }
    return values_[slot];
}

ProfileCollector::ProfileCollector(const ir::Module &module)
{
    std::vector<const void *> funcs;
    std::vector<const void *> insts;
    funcs_.reserve(module.functions().size());
    for (const auto &func : module.functions()) {
        funcs.push_back(func.get());
        FunctionCounts &counts = funcs_.emplace_back();
        counts.func = func.get();
        const std::size_t blocks = func->numBlocks();
        counts.succ.assign(2 * blocks, kNoBlock);
        counts.taken.assign(2 * blocks, 0);
        counts.external.assign(blocks, 0);
        for (const auto &bb : func->blocks()) {
            const ir::Instruction *term = bb->terminator();
            if (term && term->opcode() == ir::Opcode::Br) {
                counts.succ[2 * bb->id()] = term->succ0()->id();
                counts.succ[2 * bb->id() + 1] = term->succ1()->id();
            } else if (term && term->opcode() == ir::Opcode::Jmp) {
                counts.succ[2 * bb->id()] = term->succ0()->id();
            }
            for (const auto &inst : bb->instructions()) {
                if (inst.opcode() == ir::Opcode::Load ||
                    inst.opcode() == ir::Opcode::Store) {
                    insts.push_back(&inst);
                    slots_.emplace_back().inst = &inst;
                }
            }
        }
    }
    func_index_.build(funcs);
    inst_index_.build(insts);
}

void
ProfileCollector::onBlockEnter(const ir::Function &func,
                               const ir::BasicBlock &block,
                               const ir::BasicBlock *from)
{
    if (!current_ || current_->func != &func)
        current_ = &funcs_[func_index_.find(&func)];
    FunctionCounts &counts = *current_;
    const ir::BlockId to = block.id();
    if (!from) {
        ++counts.external[to];
        return;
    }
    const std::size_t edge = 2 * static_cast<std::size_t>(from->id());
    if (counts.succ[edge] == to) {
        ++counts.taken[edge];
        return;
    }
    ENCORE_ASSERT(counts.succ[edge + 1] == to,
                  "branch to a block that is not a successor");
    ++counts.taken[edge + 1];
}

void
ProfileCollector::onMemoryAccess(const ir::Instruction &inst,
                                 ir::ObjectId object, std::uint32_t offset,
                                 bool is_store, std::uint64_t dyn_index)
{
    (void)is_store;
    (void)dyn_index;
    AddrSlot &slot = slots_[inst_index_.find(&inst)];
    const std::uint64_t addr = (std::uint64_t{object} << 32) | offset;
    if (addr == slot.last)
        return;
    slot.last = addr;
    if (std::find(slot.objects.begin(), slot.objects.end(), object) ==
        slot.objects.end())
        slot.objects.push_back(object);
    if (slot.overflow)
        return;
    constexpr std::size_t kMask = (std::size_t{1} << AddrSlot::kTableBits) - 1;
    if (slot.table.empty())
        slot.table.assign(kMask + 1, kNoAddr);
    std::size_t probe = spread(addr, 64 - AddrSlot::kTableBits);
    while (slot.table[probe] != kNoAddr) {
        if (slot.table[probe] == addr)
            return;
        probe = (probe + 1) & kMask;
    }
    slot.table[probe] = addr;
    if (++slot.addr_count > analysis::AddrObservation::kMaxAddrs) {
        slot.overflow = true;
        slot.table = {};
    }
}

void
ProfileCollector::exportTo(ProfileData &data,
                           analysis::DynamicAddressProfile &profile) const
{
    for (const FunctionCounts &counts : funcs_) {
        const ir::Function &func = *counts.func;
        for (const auto &bb : func.blocks()) {
            const ir::BlockId id = bb->id();
            if (counts.external[id])
                data.countBlock(func, *bb, nullptr, counts.external[id]);
            for (const std::size_t edge : {2 * std::size_t{id},
                                           2 * std::size_t{id} + 1}) {
                if (counts.taken[edge])
                    data.countBlock(func, *func.blockById(counts.succ[edge]),
                                    bb.get(), counts.taken[edge]);
            }
        }
    }
    for (const AddrSlot &slot : slots_) {
        if (slot.objects.empty())
            continue;
        analysis::AddrObservation &obs = profile.observations[slot.inst];
        obs.overflow = slot.overflow;
        obs.objects.insert(slot.objects.begin(), slot.objects.end());
        for (const std::uint64_t addr : slot.table) {
            if (addr != kNoAddr)
                obs.addrs.insert({static_cast<ir::ObjectId>(addr >> 32),
                                  static_cast<std::uint32_t>(addr)});
        }
    }
}

WindowIdempotence
analyzeWindows(const TraceCollector &trace, std::uint64_t length,
               std::uint64_t window, std::uint64_t tolerance)
{
    // Past the cap the trace holds no accesses, so every later window
    // would read as idempotent.
    if (trace.truncated())
        fatalf("analyzeWindows: the trace is truncated: it stopped "
               "recording at its cap of ",
               trace.accesses().size(), " accesses");

    WindowIdempotence result;
    if (window == 0 || length == 0)
        return result;

    const auto &accesses = trace.accesses();
    std::size_t cursor = 0;

    for (std::uint64_t start = 0; start + window <= length;
         start += window) {
        const std::uint64_t end = start + window;

        // First access in each window wins: a location whose first
        // touch is a load exposes the pre-window value; a later store
        // to it is a WAR that breaks re-executability.
        std::unordered_map<std::uint64_t, bool> first_is_load;
        std::set<std::uint64_t> violating_stores;

        while (cursor < accesses.size() &&
               accesses[cursor].dyn_index < start)
            ++cursor;
        std::size_t scan = cursor;
        while (scan < accesses.size() && accesses[scan].dyn_index < end) {
            const TraceAccess &access = accesses[scan];
            const std::uint64_t key =
                (static_cast<std::uint64_t>(access.object) << 32) |
                access.offset;
            auto [it, inserted] =
                first_is_load.try_emplace(key, !access.is_store);
            if (!inserted && access.is_store && it->second)
                violating_stores.insert(key);
            ++scan;
        }

        ++result.windows;
        if (violating_stores.empty())
            ++result.idempotent;
        if (violating_stores.size() <= tolerance)
            ++result.nearly_idempotent;
    }

    return result;
}

} // namespace encore::interp
