/**
 * @file
 * Interpreter memory: one 64-bit word array per MemObject.
 *
 * Globals persist for the whole execution. Function-local objects are
 * (re)allocated zero-initialized per activation with stack discipline —
 * pushFrame saves the previous storage (supporting recursion) and
 * popFrame restores it. This matters for the idempotence analysis's
 * treatment of calls: a callee's stores to its own locals are invisible
 * to the caller and are excluded from call mod/ref summaries.
 *
 * The containers here are pools: reset(), pushFrame(), and popFrame()
 * recycle word storage and frame records instead of freeing them, so a
 * Memory reused across runs (one fault-injection trial after another)
 * reaches a steady state with no heap traffic on the non-recursive
 * path. The `allocated_` flags are bytes, not std::vector<bool> bits —
 * isAllocated() sits on the address-evaluation hot path and the
 * bit-reference proxy costs a shift+mask there.
 *
 * Snapshot support (the prefix-snapshot trial tier): a Memory can run
 * with dirty-page tracking enabled, in which case every mutation marks
 * the containing page of kPageWords words. capture() then emits a
 * MemSnapshot — a per-object page table into a shared PagePool plus
 * the shadow stack's own MemFrame records — re-using the previous
 * snapshot's pool pages for every page left clean since the last kept
 * capture, so consecutive snapshots cost only the delta. restore()
 * rebuilds the full image from any snapshot in O(live memory),
 * independent of how many deltas were recorded after it.
 */
#ifndef ENCORE_INTERP_MEMORY_H
#define ENCORE_INTERP_MEMORY_H

#include <cstdint>
#include <vector>

#include "ir/module.h"

namespace encore::interp {

/// Delta page size in 64-bit words: the unit of dirty tracking and of
/// the PagePool.
constexpr std::uint32_t kPageWords = 64;

/// Process-unique id for a PagePool instance; never reused, so a
/// Memory can prove that page refs it recorded at a past restore still
/// refer to the pool it is being handed now.
std::uint64_t nextPagePoolUid();

/// Shared backing storage for memory snapshots: pages of kPageWords
/// words, appended by Memory::capture and indexed by the page
/// references inside each MemSnapshot. Immutable once recording
/// finishes, so any number of trial threads may restore from it.
struct PagePool
{
    std::vector<std::uint64_t> words; ///< Page i at [i * kPageWords].
    std::uint64_t uid = nextPagePoolUid();

    std::size_t numPages() const { return words.size() / kPageWords; }
};

/// Page table for one MemObject inside a snapshot.
struct MemObjectImage
{
    bool allocated = false;
    std::uint32_t size = 0;      ///< Object size in words.
    std::uint32_t first_ref = 0; ///< Index into MemSnapshot::page_refs.
    std::uint32_t num_pages = 0;
};

/// One local object an activation shadowed at pushFrame (the record
/// that lets locals recurse); popFrame puts it back.
struct SavedLocal
{
    ir::ObjectId id = ir::kInvalidObject;
    /// True when the object was live in an outer activation
    /// (recursion); `contents` then holds the shadowed words.
    bool was_allocated = false;
    std::vector<std::uint64_t> contents;

    bool operator==(const SavedLocal &) const = default;
};

/// The locals one activation shadowed, in pushFrame order. Memory's
/// shadow stack holds these, and snapshots store them as they are.
struct MemFrame
{
    std::vector<SavedLocal> saved;

    bool operator==(const MemFrame &) const = default;
};

/// A set of small indices (memory words, registers) as a flat bit
/// vector; the golden-resync compares use it to skip dead locations.
struct BitMask
{
    std::vector<std::uint64_t> bits;

    void
    resize(std::size_t n)
    {
        bits.assign((n + 63) / 64, 0);
    }

    bool
    test(std::size_t i) const
    {
        return (bits[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(std::size_t i)
    {
        bits[i >> 6] |= 1ULL << (i & 63);
    }
};

/// One snapshot of the full memory image: per-object page tables over
/// a shared PagePool, plus the local-object shadow stack.
struct MemSnapshot
{
    std::vector<MemObjectImage> objects; ///< Indexed by ir::ObjectId.
    std::vector<std::uint32_t> page_refs;
    std::vector<MemFrame> frames; ///< The shadow stack, bottom first.
};

class Memory
{
  public:
    explicit Memory(const ir::Module &module);

    /// Zeroes every global object and deallocates locals. Storage
    /// capacity is retained for reuse by the next run.
    void reset();

    /// Allocates fresh zeroed storage for the function's locals.
    void pushFrame(const ir::Function &func);

    /// Releases the top frame's locals, restoring shadowed storage.
    void popFrame();

    /// Word read/write. Returns false (and leaves `value`/memory
    /// untouched) on out-of-bounds or unallocated access.
    bool read(ir::ObjectId object, std::uint32_t offset,
              std::uint64_t &value) const;
    bool write(ir::ObjectId object, std::uint32_t offset,
               std::uint64_t value);

    /// Unchecked word access for callers that have already validated
    /// (object, offset) against isAllocated()/objectSize() — the
    /// interpreter's address evaluation does exactly that.
    std::uint64_t
    wordAt(ir::ObjectId object, std::uint32_t offset) const
    {
        return storage_[object][offset];
    }

    void
    setWord(ir::ObjectId object, std::uint32_t offset, std::uint64_t value)
    {
        storage_[object][offset] = value;
        if (tracking_)
            dirty_[object][offset / kPageWords] = 1;
    }

    std::uint32_t
    objectSize(ir::ObjectId object) const
    {
        return object < storage_.size()
                   ? static_cast<std::uint32_t>(storage_[object].size())
                   : 0;
    }

    bool
    isAllocated(ir::ObjectId object) const
    {
        return object < allocated_.size() && allocated_[object] != 0;
    }

    /// Position of (object, offset) in a flat numbering of every word
    /// of every module object (objects in id order); indexes the
    /// dead-word BitMask that matches() takes.
    std::size_t
    wordIndex(ir::ObjectId object, std::uint32_t offset) const
    {
        return word_base_[object] + offset;
    }

    /// Size of that numbering: the module's total object words.
    std::size_t totalWords() const { return word_base_.back(); }

    /// Snapshot of all global objects' contents, for golden-output
    /// comparison in the fault-injection campaigns.
    std::vector<std::vector<std::uint64_t>> snapshotGlobals() const;

    /// In-place equality against a snapshotGlobals() result — the
    /// allocation-free form of the golden-output check.
    bool globalsEqual(
        const std::vector<std::vector<std::uint64_t>> &snapshot) const;

    // --- Snapshot tier -------------------------------------------------
    /// Turns on dirty-page tracking (a no-op when it is on already).
    /// All pages start dirty so the first capture is a full image.
    void enableDirtyTracking();
    void disableDirtyTracking();

    /// Captures the current image into `out`, appending only pages
    /// dirtied since the last clearDirty() to `pool` and re-using
    /// `prev`'s page references for clean pages (prev must be the last
    /// snapshot whose capture was followed by clearDirty()). Does NOT
    /// clear the dirty flags — the caller decides whether to keep the
    /// snapshot (clearDirty) or discard it (truncate the pool back).
    void capture(MemSnapshot &out, const MemSnapshot *prev,
                 PagePool &pool) const;

    /// Marks every page clean; call after a capture is kept.
    void clearDirty();

    /// Rebuilds the image (contents, allocation flags, and the
    /// local-object shadow stack) from a snapshot. Word storage is
    /// reused in place. With dirty tracking enabled the restore is
    /// *delta-aware*: the Memory remembers which snapshot it last
    /// restored from, and a page is rewritten only when it was dirtied
    /// since then or the two snapshots disagree on its pool ref — a
    /// worker cycling through nearby snapshots pays O(changed pages),
    /// not O(live memory). The result is bit-identical to a full
    /// rebuild (clean page + shared ref ⇒ contents already right).
    void restore(const MemSnapshot &snap, const PagePool &pool);

    /// Exact equality of the current image against a snapshot:
    /// allocation flags, live contents, and the local-object shadow
    /// stack. This is the memory half of the golden-resync state test;
    /// unallocated objects compare by flag only (their words are dead
    /// capacity on both sides). Uses the same mirror shortcut as
    /// restore(): a page clean since the last restore whose pool ref
    /// matches the candidate's is equal without touching its words.
    /// With `dead`, a word whose wordIndex() bit is set is skipped (a
    /// region-entry anchor's dead words); allocation flags and the
    /// shadow stack still compare exactly.
    bool matches(const MemSnapshot &snap, const PagePool &pool,
                 const BitMask *dead = nullptr) const;

  private:
    /// Sizes dirty_[object] to the object's current page count with
    /// every page marked dirty (used when whole-object state changes:
    /// reset, pushFrame, popFrame).
    void markAllDirty(ir::ObjectId object);

    const ir::Module &module_;
    /// wordIndex() bases: prefix sums of the module's object sizes,
    /// one entry per object plus the total.
    std::vector<std::size_t> word_base_;
    std::vector<std::vector<std::uint64_t>> storage_; // indexed by id
    /// Byte flags (not vector<bool>): isAllocated is hot.
    std::vector<std::uint8_t> allocated_;
    /// Pooled frame records; frames_[0 .. depth_) are live.
    std::vector<MemFrame> frames_;
    std::size_t depth_ = 0;

    /// Dirty-page tracking (golden-run recording, and trial workers
    /// once the snapshot tier is active). Byte flags per page, per
    /// object; `tracking_` gates the setWord fast path.
    bool tracking_ = false;
    std::vector<std::vector<std::uint8_t>> dirty_;

    /// Restore mirror: the snapshot this image was last rebuilt from,
    /// with dirty flags cleared at that instant. Only consulted while
    /// `mirror_pool_uid_` matches the pool being restored from — pool
    /// uids are never reused, so a matching uid proves the pool (and
    /// therefore the immutable store owning `mirror_`) is still alive.
    const MemSnapshot *mirror_ = nullptr;
    std::uint64_t mirror_pool_uid_ = 0;
};

} // namespace encore::interp

#endif // ENCORE_INTERP_MEMORY_H
