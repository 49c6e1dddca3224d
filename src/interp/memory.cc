#include "interp/memory.h"

#include <algorithm>
#include <atomic>

#include "support/diagnostics.h"

namespace encore::interp {

std::uint64_t
nextPagePoolUid()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

Memory::Memory(const ir::Module &module)
    : module_(module),
      word_base_(1, 0),
      storage_(module.objects().size()),
      allocated_(module.objects().size(), 0)
{
    for (const ir::MemObject &obj : module_.objects())
        word_base_.push_back(word_base_.back() + obj.size);
    reset();
}

void
Memory::reset()
{
    depth_ = 0;
    for (const ir::MemObject &obj : module_.objects()) {
        if (obj.is_global) {
            storage_[obj.id].assign(obj.size, 0);
            allocated_[obj.id] = 1;
        } else {
            // Keep the words in place (capacity and size) — the object
            // is logically gone while its flag is down, and the next
            // pushFrame re-zeroes it without reallocating.
            allocated_[obj.id] = 0;
        }
        if (tracking_)
            markAllDirty(obj.id);
    }
}

void
Memory::pushFrame(const ir::Function &func)
{
    if (depth_ == frames_.size())
        frames_.emplace_back();
    MemFrame &record = frames_[depth_++];
    record.saved.clear();
    for (const ir::ObjectId id : func.localObjects()) {
        SavedLocal saved;
        saved.id = id;
        saved.was_allocated = allocated_[id] != 0;
        if (saved.was_allocated)
            saved.contents = std::move(storage_[id]);
        record.saved.push_back(std::move(saved));
        storage_[id].assign(module_.object(id).size, 0);
        allocated_[id] = 1;
        if (tracking_)
            markAllDirty(id);
    }
}

void
Memory::popFrame()
{
    ENCORE_ASSERT(depth_ > 0, "popFrame with no active frame");
    MemFrame &record = frames_[--depth_];
    for (auto it = record.saved.rbegin(); it != record.saved.rend(); ++it) {
        if (it->was_allocated) {
            storage_[it->id] = std::move(it->contents);
            allocated_[it->id] = storage_[it->id].empty() ? 0 : 1;
        } else {
            // Deallocate by flag only; the words stay as capacity for
            // the next activation.
            allocated_[it->id] = 0;
        }
        if (tracking_)
            markAllDirty(it->id);
    }
    record.saved.clear();
}

bool
Memory::read(ir::ObjectId object, std::uint32_t offset,
             std::uint64_t &value) const
{
    if (object >= storage_.size() || !allocated_[object] ||
        offset >= storage_[object].size())
        return false;
    value = storage_[object][offset];
    return true;
}

bool
Memory::write(ir::ObjectId object, std::uint32_t offset,
              std::uint64_t value)
{
    if (object >= storage_.size() || !allocated_[object] ||
        offset >= storage_[object].size())
        return false;
    storage_[object][offset] = value;
    if (tracking_)
        dirty_[object][offset / kPageWords] = 1;
    return true;
}

std::vector<std::vector<std::uint64_t>>
Memory::snapshotGlobals() const
{
    std::vector<std::vector<std::uint64_t>> snapshot;
    for (const ir::MemObject &obj : module_.objects()) {
        if (obj.is_global)
            snapshot.push_back(storage_[obj.id]);
    }
    return snapshot;
}

bool
Memory::globalsEqual(
    const std::vector<std::vector<std::uint64_t>> &snapshot) const
{
    std::size_t i = 0;
    for (const ir::MemObject &obj : module_.objects()) {
        if (!obj.is_global)
            continue;
        if (i >= snapshot.size() || storage_[obj.id] != snapshot[i])
            return false;
        ++i;
    }
    return i == snapshot.size();
}

void
Memory::markAllDirty(ir::ObjectId object)
{
    dirty_[object].assign(
        (storage_[object].size() + kPageWords - 1) / kPageWords, 1);
}

void
Memory::enableDirtyTracking()
{
    // Idempotent on the trial path: FaultInjector::runTrial
    // re-asserts tracking per trial, and re-marking every page would
    // throw away the mirror's whole benefit.
    if (tracking_)
        return;
    tracking_ = true;
    mirror_ = nullptr;
    dirty_.resize(storage_.size());
    for (ir::ObjectId id = 0; id < storage_.size(); ++id)
        markAllDirty(id);
}

void
Memory::disableDirtyTracking()
{
    if (!tracking_)
        return;
    tracking_ = false;
    mirror_ = nullptr;
    dirty_.clear();
    dirty_.shrink_to_fit();
}

void
Memory::clearDirty()
{
    for (auto &pages : dirty_)
        pages.assign(pages.size(), 0);
}

void
Memory::capture(MemSnapshot &out, const MemSnapshot *prev,
                PagePool &pool) const
{
    ENCORE_ASSERT(tracking_, "capture without dirty tracking enabled");
    out.objects.clear();
    out.page_refs.clear();
    out.objects.reserve(storage_.size());

    for (ir::ObjectId id = 0; id < storage_.size(); ++id) {
        MemObjectImage img;
        img.allocated = allocated_[id] != 0;
        if (img.allocated) {
            const std::vector<std::uint64_t> &words = storage_[id];
            img.size = static_cast<std::uint32_t>(words.size());
            img.num_pages = (img.size + kPageWords - 1) / kPageWords;
            img.first_ref =
                static_cast<std::uint32_t>(out.page_refs.size());
            const MemObjectImage *prev_img =
                prev && id < prev->objects.size() ? &prev->objects[id]
                                                  : nullptr;
            // Clean-page reuse is only valid when the previous snapshot
            // held this object at the same size: any size change went
            // through pushFrame/popFrame, which mark the object fully
            // dirty, so the guard is belt-and-braces.
            const bool prev_ok = prev_img && prev_img->allocated &&
                                 prev_img->size == img.size;
            const std::vector<std::uint8_t> &dirty = dirty_[id];
            for (std::uint32_t p = 0; p < img.num_pages; ++p) {
                const bool is_dirty = p >= dirty.size() || dirty[p] != 0;
                if (prev_ok && !is_dirty) {
                    out.page_refs.push_back(
                        prev->page_refs[prev_img->first_ref + p]);
                    continue;
                }
                const std::uint32_t ref =
                    static_cast<std::uint32_t>(pool.numPages());
                pool.words.resize(pool.words.size() + kPageWords, 0);
                const std::uint32_t base = p * kPageWords;
                std::copy(words.begin() + base,
                          words.begin() + std::min(base + kPageWords, img.size),
                          pool.words.begin() + std::size_t(ref) * kPageWords);
                out.page_refs.push_back(ref);
            }
        }
        out.objects.push_back(img);
    }

    out.frames.assign(frames_.begin(), frames_.begin() + depth_);
}

void
Memory::restore(const MemSnapshot &snap, const PagePool &pool)
{
    ENCORE_ASSERT(snap.objects.size() == storage_.size(),
                  "snapshot object count mismatch");
    // Delta mode: everything mutated since the last restore carries a
    // dirty flag (write/setWord page marks; reset/pushFrame/popFrame
    // mark whole objects), so a clean page still holds the mirror
    // snapshot's contents — and when the mirror and the target agree
    // on its pool ref, those contents are already the target's.
    const bool delta = tracking_ && mirror_ != nullptr &&
                       mirror_pool_uid_ == pool.uid;
    for (ir::ObjectId id = 0; id < storage_.size(); ++id) {
        const MemObjectImage &img = snap.objects[id];
        if (!img.allocated) {
            // Deallocate by flag only, matching popFrame: the words
            // stay as capacity for the next activation.
            allocated_[id] = 0;
            continue;
        }
        std::vector<std::uint64_t> &words = storage_[id];
        const MemObjectImage *mi = delta ? &mirror_->objects[id] : nullptr;
        const bool use_mirror = mi && mi->allocated &&
                                mi->size == img.size &&
                                words.size() == img.size;
        if (!use_mirror) {
            words.resize(img.size);
            // A local no activation has pushed yet has no pages to
            // flag; setWord needs them once the restore allocates it.
            if (tracking_)
                dirty_[id].resize(img.num_pages);
        }
        for (std::uint32_t p = 0; p < img.num_pages; ++p) {
            const std::uint32_t ref = snap.page_refs[img.first_ref + p];
            if (use_mirror && p < dirty_[id].size() && dirty_[id][p] == 0 &&
                mirror_->page_refs[mi->first_ref + p] == ref)
                continue;
            const std::uint32_t base = p * kPageWords;
            const auto src = pool.words.begin() + std::size_t(ref) * kPageWords;
            std::copy(src, src + std::min(kPageWords, img.size - base),
                      words.begin() + base);
        }
        allocated_[id] = 1;
    }

    depth_ = snap.frames.size();
    if (frames_.size() < depth_)
        frames_.resize(depth_);
    std::copy(snap.frames.begin(), snap.frames.end(), frames_.begin());

    if (tracking_) {
        mirror_ = &snap;
        mirror_pool_uid_ = pool.uid;
        clearDirty();
    } else {
        mirror_ = nullptr;
    }
}

bool
Memory::matches(const MemSnapshot &snap, const PagePool &pool,
                const BitMask *dead) const
{
    if (snap.objects.size() != storage_.size())
        return false;
    const bool delta = tracking_ && mirror_ != nullptr &&
                       mirror_pool_uid_ == pool.uid;
    for (ir::ObjectId id = 0; id < storage_.size(); ++id) {
        const MemObjectImage &img = snap.objects[id];
        if (img.allocated != (allocated_[id] != 0))
            return false;
        if (!img.allocated)
            continue;
        const std::vector<std::uint64_t> &words = storage_[id];
        if (words.size() != img.size)
            return false;
        const MemObjectImage *mi = delta ? &mirror_->objects[id] : nullptr;
        const bool use_mirror =
            mi && mi->allocated && mi->size == img.size;
        for (std::uint32_t p = 0; p < img.num_pages; ++p) {
            const std::uint32_t ref = snap.page_refs[img.first_ref + p];
            // A page untouched since the last restore still holds the
            // mirror snapshot's contents; a shared pool ref then makes
            // it equal to the candidate's page with no word compare.
            if (use_mirror && p < dirty_[id].size() &&
                dirty_[id][p] == 0 &&
                mirror_->page_refs[mi->first_ref + p] == ref)
                continue;
            const std::uint64_t *src =
                pool.words.data() + std::size_t(ref) * kPageWords;
            const std::uint32_t base = p * kPageWords;
            const std::uint32_t count =
                std::min(kPageWords, img.size - base);
            for (std::uint32_t i = 0; i < count; ++i)
                if (words[base + i] != src[i] &&
                    !(dead && dead->test(wordIndex(id, base + i))))
                    return false;
        }
    }
    return depth_ == snap.frames.size() &&
           std::equal(snap.frames.begin(), snap.frames.end(),
                      frames_.begin());
}

} // namespace encore::interp
