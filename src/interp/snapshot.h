/**
 * @file
 * Prefix snapshots of an interpreter execution (the micro-checkpoint
 * tier under the fault-injection trial loop).
 *
 * During the golden run, the interpreter calls SnapshotStore::capture()
 * at stride-K barriers measured in *value-producing* dynamic
 * instructions — the coordinate fault targets are drawn in. Each
 * snapshot is the complete machine state at a loop-top boundary
 * (between instructions): the call-frame stack with register files and
 * each frame's RecoveryState, every execution counter, and the full
 * memory image as a page table over a shared PagePool plus Memory's
 * shadow stack of MemFrame records. The recovery state and the shadow
 * stack are the live state's own records, copied as they are, so a
 * snapshot holds nothing the interpreter or Memory would have to
 * translate. Memory pages (kPageWords words each) are stored as deltas
 * — a page left untouched since the previous kept snapshot re-uses
 * that snapshot's pool page — but every snapshot restores in O(live
 * memory), independent of trace position.
 *
 * A trial whose fault target lies at value index T may start from the
 * latest snapshot with value_count <= T: before the injection point a
 * trial's hooks are pure pass-throughs (no filtering, no detection, no
 * taint), so its execution prefix is bit-identical to the golden run
 * the snapshots were cut from. Restoring therefore produces exactly
 * the state the trial would have reached by re-executing the prefix —
 * outcomes are bit-identical to full re-execution by construction,
 * and a differential test over every workload enforces it.
 *
 * Snapshots also serve as resync anchors on the way *out* of a trial:
 * after a successful rollback the hooks become pure pass-throughs for
 * the remainder of the run, so the moment the trial's full semantic
 * state equals a golden snapshot past the injection point, the rest
 * of the execution is the golden suffix by determinism. The trial
 * stops there and adopts the golden outcome (bit-identical again —
 * see Interpreter::tryGoldenResync and findFirstAfter()).
 *
 * Region-entry anchors shorten the way out further. A rollback
 * re-enters its region through the preheader's `region.enter`, so a
 * recovered trial that lands there in a state the golden run had at
 * that instance's entry can adopt the golden suffix at once instead
 * of replaying the region. After the golden run, recordEntryAnchors()
 * captures the golden state at the entry of every instance live at
 * three or more snapshots, together with the locations that state need
 * not match: anchor-frame registers and memory words whose first
 * access after the entry is a write (see EntryAnchor and
 * Interpreter::armGoldenResync).
 *
 * Budget policy: when a capture would push the store past
 * `byte_budget`, the capture is discarded (the pool is truncated
 * back), the stride doubles, and the accumulated dirty pages roll into
 * the next attempt. If even the *first* capture exceeds the budget the
 * store disables itself and every trial falls back to full
 * re-execution.
 *
 * Thread-safety: capture() is single-threaded (the golden run);
 * after recording, the store is immutable and findAtOrBefore() is
 * safe from any number of campaign workers (hit/miss counters are
 * relaxed atomics).
 */
#ifndef ENCORE_INTERP_SNAPSHOT_H
#define ENCORE_INTERP_SNAPSHOT_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "interp/decoded.h"
#include "interp/memory.h"

namespace encore::interp {

class Interpreter;

/// Barrier sentinel: "no further captures".
constexpr std::uint64_t kNoSnapshotBarrier = ~0ULL;

struct SnapshotConfig
{
    bool enabled = true;
    /// Barrier stride in value-producing dynamic instructions. An
    /// executed trial re-runs about stride/2 value instructions from
    /// its seek snapshot to the fault, and a recovered one that misses
    /// its entry anchor waits up to a stride for the next resync point,
    /// so trial cost scales with it; recording cost scales with the
    /// snapshot count, and the entry-anchor pass with the instances it
    /// anchors (EXPERIMENTS.md "Snapshot stride" has the measurements).
    /// The budget/stride-doubling policy protects outsized workloads.
    std::uint64_t stride = 256;
    /// Resident byte budget for the whole store (pool + snapshots).
    std::uint64_t byte_budget = 64ULL << 20;
};

/// One checkpoint-undo record: `ckpt.mem` saves a memory word and
/// `ckpt.reg` a register; `restore` writes them back newest first.
struct Undo
{
    enum class Kind : std::uint8_t { Mem, Reg };
    Kind kind;
    ir::ObjectId object;
    std::uint32_t offset;
    ir::RegId reg;
    std::uint64_t value;

    bool operator==(const Undo &) const = default;
};

/// One activation's recovery runtime state (§3.2): the region instance
/// its last `region.enter` opened, where a detection redirects to, and
/// that instance's checkpoint buffer.
struct RecoveryState
{
    bool active = false;
    ir::RegionId region = ir::kInvalidRegion;
    /// Unique per dynamic region entry (Interpreter::currentRegionToken).
    std::uint64_t token = 0;
    std::uint32_t recovery_block = kNoDecodedBlock;
    std::vector<Undo> log;
};

/// One saved activation frame. Functions are referenced by their
/// DecodedModule index so a snapshot can be restored into any
/// interpreter running the same decoded cache.
struct SnapFrame
{
    std::uint32_t func_index = 0;
    std::vector<std::uint64_t> regs;
    std::uint32_t block = 0;
    std::uint32_t ip = 0;
    ir::RegId caller_dest = ir::kInvalidReg;
    RecoveryState recovery;
};

/// Everything outside Memory: frames plus execution counters.
struct ExecSnapshot
{
    std::vector<SnapFrame> frames;
    std::uint64_t dyn_count = 0;
    std::uint64_t value_count = 0;
    std::uint64_t overhead_count = 0;
    std::uint64_t rollback_count = 0;
    std::uint64_t next_token = 0;
};

struct Snapshot
{
    ExecSnapshot exec;
    MemSnapshot mem;
};

/// The golden state at the entry of one long region instance: the loop
/// top before its preheader `region.enter` runs, keyed by the token
/// that `region.enter` mints. Its memory is a dirty-page delta over the
/// snapshot the recording replay started from.
///
/// "Dead" is read off the golden run: a location is dead when its first
/// access after the entry is a write, so its value at the entry cannot
/// reach anything the rest of the run computes. Locations the recording
/// pass saw no access to count as live (the output compare reads every
/// global). The pass observes only a stretch after the entry (see
/// recordEntryAnchors), which under-approximates the dead set and so
/// stays sound.
struct EntryAnchor
{
    std::uint64_t token = 0;
    Snapshot state;
    /// Registers of the anchor (top) frame, by register id.
    BitMask dead_regs;
    /// Memory words, by Memory::wordIndex.
    BitMask dead_words;
};

/// Aggregate counters reported per workload (fig8 --json and the
/// campaign tools).
struct SnapshotStats
{
    std::uint64_t count = 0;  ///< Snapshots kept.
    std::uint64_t bytes = 0;  ///< Resident bytes (pool + metadata).
    std::uint64_t stride = 0; ///< Final stride after adaptation.
    std::uint64_t stride_doublings = 0;
    std::uint64_t hits = 0;   ///< Trials restored from a snapshot.
    std::uint64_t misses = 0; ///< Trials that fell back to a full run.
    /// Trials whose suffix was cut short by a golden resync: after a
    /// successful rollback the trial's full semantic state matched a
    /// golden snapshot past the injection point, so the remainder of
    /// the run is the golden suffix by determinism and the trial
    /// adopted the golden outcome immediately.
    std::uint64_t resyncs = 0;
    std::uint64_t anchors = 0; ///< Region-entry anchors recorded.
    /// The resyncs that matched a region-entry anchor (a subset of
    /// `resyncs`): the trial skipped the replay of its region.
    std::uint64_t entry_resyncs = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

class SnapshotStore
{
  public:
    explicit SnapshotStore(const SnapshotConfig &config);

    const SnapshotConfig &config() const { return config_; }

    /// First barrier (in value instructions) for the recording run, or
    /// kNoSnapshotBarrier when the store is disabled.
    std::uint64_t firstBarrier() const;

    /// Records one snapshot of `interp` (which must be paused at a
    /// loop-top boundary with dirty tracking enabled) and returns the
    /// next barrier, applying the budget/stride policy above.
    std::uint64_t capture(Interpreter &interp);

    /// Latest snapshot with value_count <= target, or nullptr (full
    /// re-execution). Thread-safe after recording; counts hits/misses.
    const Snapshot *findAtOrBefore(std::uint64_t target) const;

    /// Earliest snapshot with value_count > target, or nullptr. This
    /// is the golden-resync anchor: after a rollback past value index
    /// `target`, the trial watches for its state to converge onto this
    /// snapshot. Thread-safe after recording; does not touch counters.
    const Snapshot *findFirstAfter(std::uint64_t target) const;

    /// Records the entry anchors after the golden run (prepare() calls
    /// it once, before any trial). The instances anchored are those
    /// live at three or more kept snapshots, i.e. running across at
    /// least two whole strides: a shorter instance saves too little
    /// replay per recovered trial to pay for its recording replay.
    /// Each is replayed, fused, from the latest snapshot before its
    /// entry (from program entry when there is none) under recording
    /// hooks: the state is captured at the loop top before the
    /// instance's `region.enter`, and first accesses are classified
    /// from there until the anchor frame returns, a quiet stretch finds
    /// no new dead location, or the replay reaches the first snapshot
    /// past the instance. `interp` must run the decoded module the
    /// store was recorded from; the pass changes its hooks, instruction
    /// limit and globals capture.
    void recordEntryAnchors(Interpreter &interp, const std::string &entry,
                            const std::vector<std::uint64_t> &args);

    /// The entry anchor of region instance `token`, or nullptr.
    /// Thread-safe after recording.
    const EntryAnchor *findAnchor(std::uint64_t token) const;

    /// Records one golden-resync fast-forward (stats only); `at_entry`
    /// when it matched an entry anchor.
    void
    noteResync(bool at_entry) const
    {
        resyncs_.fetch_add(1, std::memory_order_relaxed);
        if (at_entry)
            entry_resyncs_.fetch_add(1, std::memory_order_relaxed);
    }

    const PagePool &pool() const { return pool_; }
    std::size_t size() const { return snapshots_.size(); }
    std::uint64_t bytesUsed() const { return bytes_; }

    SnapshotStats stats() const;

  private:
    SnapshotConfig config_;
    PagePool pool_;
    std::vector<Snapshot> snapshots_;
    std::vector<EntryAnchor> anchors_; ///< Ascending token order.
    std::uint64_t stride_;
    std::uint64_t stride_doublings_ = 0;
    std::uint64_t bytes_ = 0;
    bool done_ = false;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> resyncs_{0};
    mutable std::atomic<std::uint64_t> entry_resyncs_{0};
};

} // namespace encore::interp

#endif // ENCORE_INTERP_SNAPSHOT_H
