/**
 * @file
 * The IR interpreter plus the Encore recovery runtime.
 *
 * Besides executing programs (for profiling and for ground-truth
 * outputs), the interpreter implements the runtime half of §3.2 of the
 * paper: `region.enter` publishes the recovery block and opens a fresh
 * checkpoint buffer for the region instance, `ckpt.mem`/`ckpt.reg`
 * append undo records, and a detection event either redirects control
 * to the recovery block (whose `restore` unwinds the buffer before
 * jumping back to the region header) or — when no region is active —
 * abandons the run as unrecoverable. Checkpoint state is per activation
 * frame, mirroring the paper's reserved stack area.
 *
 * Execution engine: the interpreter runs pre-decoded flat bytecode
 * (interp/decoded.h), not the IR lists directly. The DecodedModule
 * cache is built once — either privately by the Interpreter(Module)
 * constructor or up front by the caller and shared — and is immutable
 * afterwards. Dispatch over the flat instruction array is a
 * computed-goto table, the default with GCC/Clang, or the portable
 * dense switch (ENCORE_COMPUTED_GOTO=OFF, the fallback for other
 * compilers, which scripts/ci.sh builds and tests). The dispatch loop
 * keeps its counters, cursor and loop-top limits in locals, writes them
 * back before every call-out (hooks, snapshot capture, resync compare,
 * detection handling) and re-reads the limits after it, so a hook may
 * lower the budget, quiesce itself or arm the resync watch mid-run and
 * sees the live counters and cursor through the introspection calls
 * below. Frames, register files, and checkpoint undo logs are pooled
 * across run() calls, so a reused Interpreter executes allocation-free
 * in steady state — the fault injector runs tens of thousands of
 * trials per worker on one instance. The seed list-walking engine
 * survives as ReferenceInterpreter (interp/reference.h) for
 * differential testing.
 *
 * Callbacks: a run has one callback interface, ExecHooks
 * (interp/observer.h), installed with setHooks(). The profilers and
 * the trace collector (interp/profile.h) listen through it; the fault
 * injector also corrupts values and fires detections through it.
 *
 * Thread-safety contract: an Interpreter never mutates the module or
 * the decoded cache it executes — all run state (memory image, frames,
 * counters) lives in the Interpreter/Memory instances themselves.
 * Parallel fault injection relies on this: campaign workers construct
 * their own Interpreters over one shared read-only DecodedModule, so
 * any new caching added here must stay per-instance (or be built
 * immutably before the interpreters are shared).
 */
#ifndef ENCORE_INTERP_INTERPRETER_H
#define ENCORE_INTERP_INTERPRETER_H

#include <memory>
#include <string>
#include <vector>

#include "interp/decoded.h"
#include "interp/memory.h"
#include "interp/observer.h"
#include "interp/snapshot.h"

namespace encore::interp {

struct RunResult
{
    enum class Status
    {
        Ok,                     ///< Ran to completion.
        Error,                  ///< Runtime error (wild access, div 0...).
        DetectedUnrecoverable,  ///< Detection fired outside any region.
        InstructionLimit,       ///< Exceeded the execution budget.
    };

    Status status = Status::Ok;
    std::uint64_t return_value = 0;
    /// Total dynamic instructions executed, including instrumentation.
    std::uint64_t dyn_instrs = 0;
    /// Dynamic executions of Encore pseudo-ops (the runtime overhead).
    std::uint64_t overhead_instrs = 0;
    /// Dynamic value-producing instructions (candidates for a fault).
    std::uint64_t value_instrs = 0;
    std::uint64_t rollbacks = 0;
    /// True when the run was cut short by a golden resync: the live
    /// state matched the armed golden snapshot exactly, so the
    /// remainder of the run is the golden suffix by determinism. The
    /// caller owns adopting the golden outcome (return value, output
    /// equality); the counters here cover only the executed portion.
    bool golden_resync = false;
    /// With golden_resync: the match was against a region-entry anchor
    /// (SnapshotStore::findAnchor) as the rollback landed, so the trial
    /// skipped its whole region replay.
    bool entry_resync = false;
    std::string error;
    /// Final contents of every global object, for output comparison.
    /// Left empty when the interpreter runs with setCaptureGlobals(false)
    /// — campaign trials compare in place via globalsMatch() instead.
    std::vector<std::vector<std::uint64_t>> globals;

    bool ok() const { return status == Status::Ok; }

    /// Output equality: return value and global memory both match.
    bool sameOutput(const RunResult &other) const;
};

class Interpreter
{
  public:
    /// Decodes the module privately. Decode the module once and use the
    /// shared-cache constructor instead when many interpreters run the
    /// same module (campaign workers).
    explicit Interpreter(const ir::Module &module);

    /// Executes from a shared immutable code cache.
    explicit Interpreter(std::shared_ptr<const DecodedModule> decoded);

    /// Installs hooks (not owned); pass nullptr to remove. The rare
    /// call sites (onRuntimeError, onDetectionHandled) are live for the
    /// whole of every later run. The hot ones (filterResult,
    /// shouldTriggerDetection, onBlockEnter, onMemoryAccess, and the
    /// branch/memory filter points) arm in each run at the first loop
    /// top whose value count reaches `arm_value_index`, so the hooks
    /// see exactly the callbacks a run armed from its start would hand
    /// them from that boundary on, and nothing before it. A run that
    /// starts at or past its arm point (every run() armed at 0) arms
    /// before its first block entry, so the hooks also see run()'s
    /// entry into the entry block. Hooks whose
    /// callbacks are pure pass-throughs before some value index pass
    /// that index here, and the prefix runs hook-free. The hook's
    /// filtersBranchesAndMemory() capability is sampled when the hooks
    /// arm: only such hooks get the branch/memory filter calls, from
    /// then until quiesceHooks().
    void
    setHooks(ExecHooks *hooks, std::uint64_t arm_value_index = 0)
    {
        hooks_ = hooks;
        hooks_arm_at_ = arm_value_index;
    }

    /// Drops the installed hooks from the per-instruction hot sites
    /// for the rest of the current run (and cancels a pending arm),
    /// while keeping the rare ones live. The hooks themselves call this
    /// once they become pure pass-throughs — after a rollback dissolves
    /// the taint, every hot callback is an observationally-silent
    /// no-op, yet the post-rollback replay is exactly where most of a
    /// trial's instructions execute. The next run re-arms the hooks.
    void quiesceHooks();

    /// Execution budget; runs exceeding it end with InstructionLimit.
    /// The dispatch loop re-reads it after every hook callback, so a
    /// hook that lowers it mid-run ends the run at the next loop top,
    /// after the instruction in flight finishes.
    void setMaxInstructions(std::uint64_t limit) { max_instrs_ = limit; }

    /// When disabled, run() skips the RunResult::globals snapshot (an
    /// allocation + copy per run); callers compare via globalsMatch().
    void setCaptureGlobals(bool capture) { capture_globals_ = capture; }

    /// Runs `func_name` with the given arguments on fresh memory.
    /// Frames and memory storage pooled by earlier runs are reused.
    RunResult run(const std::string &func_name,
                  const std::vector<std::uint64_t> &args);

    // --- Snapshot tier (prefix snapshots of the golden run) -------------
    /// Installs a snapshot recorder for subsequent run() calls (pass
    /// nullptr to remove). While installed, the dispatch loop calls
    /// store->capture(*this) at every stride barrier; the caller must
    /// also enable dirty tracking on memoryRef() so memory deltas are
    /// observed. Recording and hooks are mutually exclusive in
    /// practice: only the hook-free golden run records.
    void
    setSnapshotRecorder(SnapshotStore *store)
    {
        recorder_ = store;
        snapshot_barrier_ =
            store ? store->firstBarrier() : kNoSnapshotBarrier;
    }

    /// Resumes execution from a prefix snapshot instead of running
    /// from program entry: the memory image, call stack, recovery
    /// state, and every counter are restored exactly as they were at
    /// the snapshot's loop-top boundary, then the dispatch loop
    /// continues. The interpreter must share the DecodedModule the
    /// snapshot was recorded from. Hooks installed via setHooks() see
    /// the suffix exactly as a full run would after the same prefix.
    RunResult resumeRun(const Snapshot &snap, const PagePool &pool);

    // --- Golden resync (fast-forward after a successful rollback) -------
    /// Makes `store`'s golden snapshots available as resync anchors for
    /// subsequent runs, together with the golden run's total dynamic
    /// instruction count (needed to prove the fast-forwarded run would
    /// not have hit the instruction budget). Pass nullptr to clear.
    /// Setting the source does nothing by itself — the watch starts
    /// when armGoldenResync() is called mid-run.
    void
    setResyncSource(const SnapshotStore *store,
                    std::uint64_t golden_total_dyn)
    {
        resync_store_ = store;
        resync_golden_dyn_ = golden_total_dyn;
    }

    /// Arms the golden-resync watch. The caller (the injection hooks)
    /// must guarantee that from this point on it is a pure
    /// pass-through — fault injected, detection handled by a
    /// successful rollback — so that the moment the live state equals
    /// a golden state on everything the rest of the run can read, the
    /// remainder of the run is the golden suffix by determinism. Called
    /// as the rollback starts, while the current frame still holds the
    /// rolled-back instance.
    ///
    /// When that instance has an entry anchor, the watch compares once,
    /// where the recovery jump lands on the preheader's `region.enter`,
    /// masked to the anchor's live locations: lower frames, cursors,
    /// caller wiring, allocation flags and the shadow stack exactly; the
    /// top frame's live registers and the live memory words; not its
    /// recovery state, which `region.enter` overwrites. A miss falls
    /// back to the snapshot watch below.
    ///
    /// The snapshot watch anchors at the earliest snapshot past the
    /// current value count — the replay re-executes the region from its
    /// entry, and the live memory image (which keeps uncheckpointed
    /// later-than-entry values) can only reconverge exactly with the
    /// golden run at-or-after the current position.
    ///
    /// On a match the dispatch loop finishes immediately with
    /// RunResult::golden_resync set.
    void armGoldenResync();

    /// Asks the dispatch loop to finish (status Ok) as soon as the
    /// in-flight detection handling returns. For trials whose
    /// classification is already sealed no matter how the run would
    /// end — e.g. a rollback in a different region instance than the
    /// fault's is Not Recoverable for every possible final status —
    /// executing the rest of the program cannot change the outcome,
    /// only burn time. The flag is consumed right after the current
    /// handleDetection, so it never leaks into a later run.
    void requestTrialStop() { trial_stop_ = true; }

    /// Copies the live execution state (frames + counters) out;
    /// used by SnapshotStore::capture at loop-top boundaries.
    void saveExecState(ExecSnapshot &out) const;

    /// Inverse of saveExecState; rebuilds the frame pool in place.
    void restoreExecState(const ExecSnapshot &snap);

    /// Direct access to the memory image — the snapshot tier uses it
    /// for dirty-page tracking and capture/restore.
    Memory &memoryRef() { return memory_; }

    /// In-place comparison of the current global memory against a
    /// snapshot (as captured by a golden run), without allocating.
    bool
    globalsMatch(const std::vector<std::vector<std::uint64_t>> &snapshot)
        const
    {
        return memory_.globalsEqual(snapshot);
    }

    // --- Recovery-runtime introspection (used by the fault injector) ----
    /// Token of the region instance active in the current frame; 0 when
    /// no region is active. Tokens are unique per dynamic region entry.
    std::uint64_t currentRegionToken() const;
    /// Region id active in the current frame, or ir::kInvalidRegion.
    ir::RegionId currentRegionId() const;
    /// Value-producing instructions executed so far in the current run
    /// (RunResult::value_instrs at its end). Inside filterResult the
    /// instruction being filtered is already counted: its value index
    /// is valueCount() - 1.
    std::uint64_t valueCount() const { return value_count_; }
    /// Depth of the activation stack (1 while the entry function runs).
    std::size_t frameDepth() const { return depth_; }
    /// Source function of the innermost live frame (nullptr outside a
    /// run). The campaign planner's attribution hooks use this to map
    /// fault sites to the function whose instrumentation governs them.
    const ir::Function *
    currentFunction() const
    {
        return depth_ > 0 ? frames_[depth_ - 1].func->src : nullptr;
    }

  private:
    struct Frame
    {
        const DecodedFunction *func = nullptr;
        /// The frame's value window: a view into reg_arena_ at
        /// (depth × widest slot count) holding the register file
        /// followed by the function's materialized immediate pool, so
        /// call/return never allocates, operand fetches are plain
        /// indexed loads, and the windows of a whole stack are
        /// contiguous.
        std::uint64_t *regs = nullptr;
        std::uint32_t block = 0; ///< Current block index.
        std::uint32_t ip = 0;    ///< Index into func->code.
        ir::RegId caller_dest = ir::kInvalidReg;
        RecoveryState recovery;
    };

    /// Resolves a lea/load/store/ckpt.mem address against the frame
    /// value window `regs` and validates it; on a bad address records
    /// the runtime error and returns false. Inlined into every handler.
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((always_inline))
#endif
    inline bool evalAddr(const std::uint64_t *regs, const DecodedInst &inst,
                         ir::ObjectId &object, std::uint32_t &offset);

    /// Cold error paths of the dispatch loop: record a runtime error's
    /// message in exec_error_ — a fixed one, or an access to an
    /// unallocated object or past an object's end (naming the object).
    /// Out of line, so the handlers carry no message-building code.
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((cold, noinline))
#endif
    void execError(const char *message);
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((cold, noinline))
#endif
    void badAccess(ir::ObjectId object, std::int64_t offset);

    /// Claims (or reuses) the frame slot at depth_ and re-initializes it
    /// for an activation of `func`. Does not touch Memory.
    Frame &activateFrame(const DecodedFunction &func);

    /// Moves `frame`'s cursor to the start of `block` and reports the
    /// entry to the hot hooks. For the transfers made outside the
    /// dispatch loop (run()'s entry, a rollback's recovery redirect);
    /// the loop's own branches, calls and returns move its local
    /// cursor instead (ENCORE_ENTER_BLOCK).
    void enterBlock(Frame &frame, std::uint32_t block,
                    const ir::BasicBlock *from);
    /// Handles a detection event; returns true if rolled back (continue
    /// executing) or false if the run must be abandoned.
    bool handleDetection(Frame &frame);

    /// Per-run reset shared by run() and resumeRun() before control
    /// enters any block: disarms the resync watch and re-arms the
    /// installed hooks, at once when the run starts at their arm point.
    void beginRun();

    /// Makes the installed hooks hot (see setHooks).
    void armHooks();

    /// The dispatch loop, shared by run() (from a freshly set-up entry
    /// frame) and resumeRun() (from a restored snapshot). It keeps the
    /// counters, the cursor and the loop-top limits in locals, writes
    /// them back before every call-out and re-reads the limits after
    /// it (see interpreter.cc).
    RunResult execLoop();

    /// Loop-top work at value_barrier_: arms pending hooks and/or
    /// captures a snapshot, then moves the barrier to the next event.
    void crossValueBarrier();

    /// The one resync compare: equality of the live state with the
    /// armed state, cheap-first — depth, the top frame's cursor and
    /// registers, the budget projection, the full-compare cap (snapshot
    /// watch only), then every frame's cursor and state and the memory
    /// image. Counters and region tokens are deliberately
    /// excluded — they are bookkeeping, not semantic state, and a
    /// rolled-back trial's tokens run ahead of the golden run's. An
    /// entry anchor only adds its dead-register and dead-word masks
    /// and skips the top frame's recovery state, which its
    /// `region.enter` overwrites. Returns true when the run may finish
    /// as a golden resync. An entry anchor gets this one compare, and
    /// a miss arms the snapshot watch; the snapshot watch disarms
    /// itself when the projected full run would have hit the
    /// instruction budget or the full-compare cap is exhausted.
    bool tryGoldenResync();

    /// The snapshot half of armGoldenResync.
    void armSnapshotResync();

    /// Cursor and caller wiring of `frame` equal `saved`'s.
    static bool cursorMatches(const Frame &frame, const SnapFrame &saved);

    /// The rest of a frame a resync compares exactly: registers and
    /// recovery state, token excluded.
    static bool frameStateMatches(const Frame &frame,
                                  const SnapFrame &saved);

    void
    disarmGoldenResync()
    {
        resync_target_ = nullptr;
        resync_entry_ = nullptr;
        resync_barrier_ = kNoSnapshotBarrier;
        resync_pc_ = nullptr;
    }

    std::shared_ptr<const DecodedModule> decoded_;
    const ir::Module &module_;
    Memory memory_;
    ExecHooks *hooks_ = nullptr;
    /// Value index at which each run arms hooks_ (setHooks).
    std::uint64_t hooks_arm_at_ = 0;
    /// Same as hooks_ at the per-instruction call sites once armed;
    /// null before the arm point and after quiesceHooks().
    ExecHooks *hot_hooks_ = nullptr;
    /// Cached hooks_->filtersBranchesAndMemory() while armed: gates the
    /// branch/memory filter call sites. Cleared by quiesceHooks().
    bool hooks_filter_ = false;
    std::uint64_t max_instrs_ = 200'000'000;
    bool capture_globals_ = true;

    // Per-run state. `frames_` is a pool that only ever grows (bounded
    // by the call-depth limit); frames_[0 .. depth_) are live.
    std::vector<Frame> frames_;
    /// Backing store for every frame's register file, sized
    /// kMaxCallDepth × (widest num_regs in the module) once in the
    /// constructor; never resized, so Frame::regs pointers stay valid
    /// across pushes.
    std::vector<std::uint64_t> reg_arena_;
    std::uint32_t max_regs_ = 0; ///< Arena stride (widest num_slots).
    std::size_t depth_ = 0;
    std::uint64_t dyn_count_ = 0;
    std::uint64_t value_count_ = 0;
    std::uint64_t overhead_count_ = 0;
    std::uint64_t rollback_count_ = 0;
    std::uint64_t next_token_ = 0;

    /// Value-count events: the recorder's next capture
    /// (`snapshot_barrier_`) and the pending hook arm point
    /// (`arm_barrier_`, kNoSnapshotBarrier once armed or with no
    /// hooks). The loop top checks only their minimum,
    /// `value_barrier_`, so a run with neither pays one never-taken
    /// compare for both.
    SnapshotStore *recorder_ = nullptr;
    std::uint64_t snapshot_barrier_ = kNoSnapshotBarrier;
    std::uint64_t arm_barrier_ = kNoSnapshotBarrier;
    std::uint64_t value_barrier_ = kNoSnapshotBarrier;

    /// Golden resync: `resync_pc_` stays null until armGoldenResync()
    /// picks an anchor, keeping the loop-top check a single never-taken
    /// compare on every other run.
    const SnapshotStore *resync_store_ = nullptr;
    std::uint64_t resync_golden_dyn_ = 0;
    const Snapshot *resync_target_ = nullptr;
    /// The armed entry anchor until its one compare has run; then null
    /// and resync_target_ is a snapshot.
    const EntryAnchor *resync_entry_ = nullptr;
    std::uint64_t resync_barrier_ = kNoSnapshotBarrier;
    /// The anchor's top-frame instruction, so the armed watch rejects
    /// every other code position with one pointer compare before it
    /// looks at the barrier or calls into the tryGoldenResync ladder.
    const DecodedInst *resync_pc_ = nullptr;
    std::uint32_t resync_full_compares_ = 0;

    /// Message of the runtime error the dispatch loop is raising.
    std::string exec_error_;

    /// Outcome-sealed early exit (requestTrialStop): checked only on
    /// the detection-handling paths, so it costs nothing per
    /// instruction.
    bool trial_stop_ = false;
};

} // namespace encore::interp

#endif // ENCORE_INTERP_INTERPRETER_H
