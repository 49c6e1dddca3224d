#include "interp/snapshot.h"

#include <algorithm>
#include <map>

#include "interp/interpreter.h"

namespace encore::interp {

namespace {

/// Resident metadata bytes of one snapshot beyond its fresh pool
/// pages: page-table entries, frame registers, undo logs, and the
/// local-object shadow copies. Approximate (allocator slack ignored)
/// but monotone in the real footprint, which is all the budget needs.
std::uint64_t
snapshotOverheadBytes(const Snapshot &snap)
{
    std::uint64_t bytes = sizeof(Snapshot);
    bytes += snap.mem.objects.size() * sizeof(MemObjectImage);
    bytes += snap.mem.page_refs.size() * sizeof(std::uint32_t);
    for (const MemFrame &frame : snap.mem.frames) {
        bytes += frame.saved.size() * sizeof(SavedLocal);
        for (const SavedLocal &local : frame.saved)
            bytes += local.contents.size() * sizeof(std::uint64_t);
    }
    for (const SnapFrame &frame : snap.exec.frames) {
        bytes += sizeof(SnapFrame);
        bytes += frame.regs.size() * sizeof(std::uint64_t);
        bytes += frame.recovery.log.size() * sizeof(Undo);
    }
    return bytes;
}

/// The recording pass stops once this many instructions in a row have
/// found no new dead location. A loop region's working set is
/// classified in its first passes; a location first touched later
/// stays live, which only costs a resync.
constexpr std::uint64_t kQuietWindow = 1024;

/// The hooks behind recordEntryAnchors. They run armed from the first
/// loop top of a replay from `from` (or from program entry): before
/// `region.enter` minting `anchor.token` they capture the anchor, then
/// classify the first access to every anchor-frame register and memory
/// word until the anchor frame returns or the quiet window passes, and
/// stop the replay.
class AnchorPass : public ExecHooks
{
  public:
    AnchorPass(Interpreter &interp, EntryAnchor &anchor,
               const Snapshot *from, PagePool &pool)
        : interp_(interp),
          anchor_(anchor),
          from_(from),
          pool_(pool),
          next_token_(from ? from->exec.next_token : 0)
    {
    }

    bool captured() const { return phase_ != Phase::Reach; }

    bool
    shouldTriggerDetection(const ir::Instruction &next,
                           std::uint64_t dyn_index) override
    {
        (void)dyn_index;
        const ir::Opcode op = next.opcode();
        if (phase_ == Phase::Reach) {
            if (op == ir::Opcode::RegionEnter &&
                next.regionId() != ir::kInvalidRegion &&
                ++next_token_ == anchor_.token)
                capture();
            return false;
        }
        if (phase_ == Phase::Done)
            return false;
        if (++quiet_ > kQuietWindow) {
            stop();
            return false;
        }
        const std::size_t depth = interp_.frameDepth();
        if (depth == depth_) {
            if (op == ir::Opcode::Ret) {
                stop();
                return false;
            }
            // Reads before the write: `r1 = add r1, 1` reads r1 first.
            // Every operand slot counts, used or not: an unused slot
            // holds no register, and if it did, a spurious read only
            // keeps a register live.
            for (const ir::Operand *o : {&next.a(), &next.b(), &next.c(),
                                         &next.addr().offset}) {
                if (o->isReg())
                    touchReg(o->reg, false);
            }
            if (next.addr().isRegBase())
                touchReg(next.addr().base_reg, false);
            if (op == ir::Opcode::Call) {
                for (const ir::Operand &arg : next.args())
                    if (arg.isReg())
                        touchReg(arg.reg, false);
            }
            // A call's destination is written at its return, but no
            // anchor-frame access can come in between.
            if (next.hasDest())
                touchReg(next.dest(), true);
        }
        // Above the anchor frame, locals are fresh incarnations: their
        // accesses say nothing about the words the entry state holds.
        if (op == ir::Opcode::Call) {
            for (const ir::ObjectId id : next.callee()->localObjects())
                ++shadowed_[id];
        } else if (op == ir::Opcode::Ret) {
            for (const ir::ObjectId id :
                 interp_.currentFunction()->localObjects())
                --shadowed_[id];
        }
        return false;
    }

    void
    onMemoryAccess(const ir::Instruction &inst, ir::ObjectId object,
                   std::uint32_t offset, bool is_store,
                   std::uint64_t dyn_index) override
    {
        (void)inst;
        (void)dyn_index;
        if (phase_ != Phase::Observe || shadowed_[object] != 0)
            return;
        const std::size_t word =
            interp_.memoryRef().wordIndex(object, offset);
        if (word_seen_.test(word))
            return;
        word_seen_.set(word);
        if (is_store) {
            anchor_.dead_words.set(word);
            quiet_ = 0;
        }
    }

  private:
    enum class Phase { Reach, Observe, Done };

    /// The loop top before `region.enter`: the entry state exactly.
    void
    capture()
    {
        interp_.saveExecState(anchor_.state.exec);
        Memory &memory = interp_.memoryRef();
        memory.capture(anchor_.state.mem, from_ ? &from_->mem : nullptr,
                       pool_);
        depth_ = interp_.frameDepth();
        const ir::RegId num_regs = interp_.currentFunction()->numRegs();
        reg_seen_.resize(num_regs);
        anchor_.dead_regs.resize(num_regs);
        word_seen_.resize(memory.totalWords());
        anchor_.dead_words.resize(memory.totalWords());
        shadowed_.assign(anchor_.state.mem.objects.size(), 0);
        phase_ = Phase::Observe;
    }

    /// Ends the replay at its next loop top.
    void
    stop()
    {
        phase_ = Phase::Done;
        interp_.setMaxInstructions(0);
    }

    void
    touchReg(ir::RegId reg, bool is_write)
    {
        if (reg_seen_.test(reg))
            return;
        reg_seen_.set(reg);
        if (is_write) {
            anchor_.dead_regs.set(reg);
            quiet_ = 0;
        }
    }

    Interpreter &interp_;
    EntryAnchor &anchor_;
    const Snapshot *from_;
    PagePool &pool_;
    /// Tokens minted so far; the anchor's preheader mints the next.
    std::uint64_t next_token_;
    Phase phase_ = Phase::Reach;
    std::size_t depth_ = 0;
    /// Instructions since the last new dead location.
    std::uint64_t quiet_ = 0;
    BitMask reg_seen_;
    BitMask word_seen_;
    /// Per object: activations above the anchor frame that hold a
    /// fresh incarnation of it.
    std::vector<std::uint32_t> shadowed_;
};

} // namespace

SnapshotStore::SnapshotStore(const SnapshotConfig &config)
    : config_(config), stride_(config.stride)
{
    if (!config_.enabled || config_.stride == 0)
        done_ = true;
}

std::uint64_t
SnapshotStore::firstBarrier() const
{
    return done_ ? kNoSnapshotBarrier : stride_;
}

std::uint64_t
SnapshotStore::capture(Interpreter &interp)
{
    if (done_)
        return kNoSnapshotBarrier;

    const std::size_t pool_before = pool_.words.size();
    Snapshot snap;
    interp.saveExecState(snap.exec);
    const Snapshot *prev = snapshots_.empty() ? nullptr : &snapshots_.back();
    interp.memoryRef().capture(snap.mem, prev ? &prev->mem : nullptr,
                               pool_);

    const std::uint64_t snap_bytes =
        (pool_.words.size() - pool_before) * sizeof(std::uint64_t) +
        snapshotOverheadBytes(snap);

    if (bytes_ + snap_bytes > config_.byte_budget) {
        // Over budget: discard this capture (truncate the fresh pages
        // back off the pool) and keep the dirty flags accumulating
        // into the next, coarser attempt.
        pool_.words.resize(pool_before);
        if (snapshots_.empty()) {
            // Even one full image does not fit: this workload's state
            // is too large for the budget — disable the tier entirely
            // rather than record nothing forever.
            done_ = true;
            return kNoSnapshotBarrier;
        }
        stride_ *= 2;
        ++stride_doublings_;
        return snap.exec.value_count + stride_;
    }

    interp.memoryRef().clearDirty();
    bytes_ += snap_bytes;
    const std::uint64_t next = snap.exec.value_count + stride_;
    snapshots_.push_back(std::move(snap));
    return next;
}

const Snapshot *
SnapshotStore::findAtOrBefore(std::uint64_t target) const
{
    auto it = std::upper_bound(
        snapshots_.begin(), snapshots_.end(), target,
        [](std::uint64_t t, const Snapshot &s) {
            return t < s.exec.value_count;
        });
    if (it == snapshots_.begin()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return &*(it - 1);
}

const Snapshot *
SnapshotStore::findFirstAfter(std::uint64_t target) const
{
    auto it = std::upper_bound(
        snapshots_.begin(), snapshots_.end(), target,
        [](std::uint64_t t, const Snapshot &s) {
            return t < s.exec.value_count;
        });
    return it == snapshots_.end() ? nullptr : &*it;
}

void
SnapshotStore::recordEntryAnchors(Interpreter &interp,
                                  const std::string &entry,
                                  const std::vector<std::uint64_t> &args)
{
    // The snapshots an instance is live at (it owns an active frame
    // there). An instance is live at a contiguous run of them, since
    // its token is minted once and never reused; one live at three or
    // more spans two whole strides. Anchoring instances live at only
    // two as well quadruples the anchors at stride 256 (each one more
    // hooked replay here) for about 6% more campaign throughput.
    struct Span
    {
        std::size_t first = 0;
        std::size_t last = 0;
    };
    std::map<std::uint64_t, Span> spans;
    for (std::size_t k = 0; k < snapshots_.size(); ++k) {
        for (const SnapFrame &frame : snapshots_[k].exec.frames) {
            if (!frame.recovery.active)
                continue;
            auto [it, fresh] =
                spans.try_emplace(frame.recovery.token, Span{k, k});
            if (!fresh)
                it->second.last = k;
        }
    }

    interp.memoryRef().enableDirtyTracking();
    interp.setCaptureGlobals(false);
    for (const auto &[token, span] : spans) {
        if (span.last - span.first < 2)
            continue;
        // Tokens are minted in order, so the instance entered after the
        // last snapshot that had not minted it yet.
        auto from_it = std::partition_point(
            snapshots_.begin(), snapshots_.end(),
            [&](const Snapshot &s) { return s.exec.next_token < token; });
        const Snapshot *from =
            from_it == snapshots_.begin() ? nullptr : &*(from_it - 1);
        // Stop at the first snapshot past the instance, if any.
        interp.setMaxInstructions(
            span.last + 1 < snapshots_.size()
                ? snapshots_[span.last + 1].exec.dyn_count
                : kNoSnapshotBarrier);

        const std::size_t pool_before = pool_.words.size();
        EntryAnchor anchor;
        anchor.token = token;
        AnchorPass pass(interp, anchor, from, pool_);
        interp.setHooks(&pass);
        if (from)
            interp.resumeRun(*from, pool_);
        else
            interp.run(entry, args);
        interp.setHooks(nullptr);

        const std::uint64_t anchor_bytes =
            (pool_.words.size() - pool_before) * sizeof(std::uint64_t) +
            snapshotOverheadBytes(anchor.state) +
            (anchor.dead_regs.bits.size() +
             anchor.dead_words.bits.size()) *
                sizeof(std::uint64_t);
        if (!pass.captured() ||
            bytes_ + anchor_bytes > config_.byte_budget) {
            pool_.words.resize(pool_before);
            continue;
        }
        bytes_ += anchor_bytes;
        anchors_.push_back(std::move(anchor));
    }
    interp.memoryRef().disableDirtyTracking();
}

const EntryAnchor *
SnapshotStore::findAnchor(std::uint64_t token) const
{
    auto it = std::lower_bound(
        anchors_.begin(), anchors_.end(), token,
        [](const EntryAnchor &a, std::uint64_t t) { return a.token < t; });
    return it != anchors_.end() && it->token == token ? &*it : nullptr;
}

SnapshotStats
SnapshotStore::stats() const
{
    SnapshotStats stats;
    stats.count = snapshots_.size();
    stats.bytes = bytes_;
    stats.stride = stride_;
    stats.stride_doublings = stride_doublings_;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.resyncs = resyncs_.load(std::memory_order_relaxed);
    stats.anchors = anchors_.size();
    stats.entry_resyncs = entry_resyncs_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace encore::interp
