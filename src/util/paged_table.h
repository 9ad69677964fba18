#pragma once

// Copy-on-write paged table storage: the weight/counter arrays of the
// sketches (CountSketch, CountMinSketch, WM/AWM tables, the feature-hashing
// bucket array) live in a BasicPagedTable instead of a bare std::vector, so
// snapshot publication, cloning, and read-model capture cost O(dirtied
// pages) instead of O(budget).
//
// Layout contract (what keeps the hot paths bit-identical and fast):
//
//   * The LIVE data is one contiguous arena. Every kernel — the
//     absolute-offset plan passes (simd::PlanMargin, simd::PlanScatter), the
//     whole-table sweeps, row-major Row(j) access — operates on `data()` as
//     it would on a flat vector. Pages never fragment the writer's view.
//   * Pages are power-of-two slices of that arena (page size a power of two,
//     so with power-of-two row widths a page never straddles a row boundary:
//     pages subdivide rows evenly or contain whole rows). A published page is
//     an immutable, refcounted copy of its slice.
//   * Copy-on-write with a deferred physical copy: the writer's first touch
//     of a page after a publish tags the page with the current epoch (one
//     plain store — no bitmap to clear, publication just advances the
//     epoch). The page's published identity diverges at that moment; the
//     physical copy is deferred to the NEXT publish, which copies exactly
//     the epoch-tagged (dirty) pages and re-shares the rest by bumping
//     refcounts. Readers only ever see immutable copied-out pages, so there
//     is no reader-visible mutation and nothing for them to synchronize on.
//
// Delta windows (the distributed sync tier, src/dist/) work at cell, not
// page, granularity: between BeginDeltaWindow() calls every MarkDirty* call
// also sets one bit per cell it names, and one summary bit per 64-cell word
// of those, so a delta ships exactly the cells written since the window
// opened and finds them without reading the words no write touched.
// Windows never touch the page epochs.
//
// Publication cost: O(#pages) refcount bumps + O(dirty pages) copies —
// proportional to what changed, which is what a high-cadence (small
// ServeEvery) serving tier needs. Cloning a table copies the arena but
// SHARES all clean published pages, so a clone's next publication also
// copies only what the clone itself dirtied.
//
// Threading contract: all mutation (writes + dirty marking) and SharePages()
// belong to the single writer thread that owns the containing model — the
// same contract the serving layer already imposes. Published PageSets are
// immutable and may be read (and destroyed) from any thread; page lifetime
// is managed by atomic shared_ptr refcounts.
//
// The contract is machine-checked under ThreadSanitizer: every dirty-mark
// and every publish does a plain store to one `writer_fence_` byte, so two
// threads that mutate or publish the same table without a happens-before
// edge between them race on that byte and get a deterministic TSan report —
// even when their actual writes land on disjoint pages or cells, which TSan
// alone would never flag. Legitimate writer handoffs (a worker thread joins,
// the owner thread takes over; a merge barrier parks the workers first)
// carry the required edge and stay silent. There is deliberately no mutex
// and no clang thread-safety capability here: a lock would put an
// acquire/release on the hottest write paths to protect state that is never
// legally shared, and a static writer-role capability would cascade
// annotations through the whole virtual classifier SPI. The annotated-mutex
// layers live where real locks exist (engine/serving.h, sharded_learner.cc).

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/memory_cost.h"

#if defined(__SANITIZE_THREAD__)
#define WMS_PAGED_TABLE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WMS_PAGED_TABLE_TSAN 1
#endif
#endif

namespace wmsketch {

/// Cumulative publication counters of one paged table (monotone; benches
/// difference them around a window to report per-publish cost).
struct TablePublishStats {
  /// SharePages() calls so far.
  uint64_t publishes = 0;
  /// Pages physically copied out of the arena across all publishes.
  uint64_t copied_pages = 0;
  /// Bytes those copies moved (copied_pages · page bytes).
  uint64_t copied_bytes = 0;
  /// Pages re-shared by refcount bump instead of copied.
  uint64_t shared_pages = 0;
};

/// Picks the page size (in cells) for a table of `cells` cells: a power of
/// two targeting a few thousand pages, floored so a page copy clearly
/// outweighs the per-page refcount bump the publish sweep pays even for
/// clean pages, and capped to bound the copy cost of a single dirty page.
/// Small tables get the floor (few pages): their full copy was never the
/// problem, and tiny pages would make metadata rival the data.
size_t PickPageCells(size_t cells);

/// The POD view read kernels use to address a published page set: cell at
/// logical offset `off` (the same j·width+bucket offsets the flat kernels
/// use) lives at pages[off >> shift][off & mask]. Reads of distinct
/// snapshots sharing pages resolve to the same physical memory.
template <typename T>
struct PagedView {
  const T* const* pages = nullptr;
  uint32_t shift = 0;
  uint32_t mask = 0;

  T At(size_t off) const { return pages[off >> shift][off & mask]; }
};

/// One published, immutable set of table pages: what a frozen ReadModel
/// holds instead of a table copy. Copying a PageSet (or
/// holding several from different publishes) shares page storage; pages are
/// freed when the last PageSet referencing them dies.
template <typename T>
class PageSet {
 public:
  PageSet() = default;

  PagedView<T> view() const {
    return PagedView<T>{raw_.data(), shift_, mask_};
  }

  /// Logical cell count (the table size the offsets address).
  size_t cells() const { return cells_; }
  size_t num_pages() const { return refs_.size(); }
  size_t page_cells() const { return static_cast<size_t>(mask_) + 1; }

  /// Resident bytes this snapshot keeps alive: page data plus per-page
  /// metadata. NOTE: pages shared with other snapshots (or with the live
  /// table's clean mirrors) are counted in full here — this is "bytes this
  /// snapshot pins", not "bytes uniquely attributable to it".
  size_t ResidentBytes() const {
    return refs_.size() * (page_cells() * sizeof(T) + kBytesPerPageMeta);
  }

 private:
  template <typename U>
  friend class BasicPagedTable;

  std::vector<std::shared_ptr<const T[]>> refs_;  // keep-alive, one per page
  std::vector<const T*> raw_;                     // kernel-friendly mirror of refs_
  uint32_t shift_ = 0;
  uint32_t mask_ = 0;
  size_t cells_ = 0;
};

/// The copy-on-write paged storage described in the file comment: a
/// contiguous live arena (the writer's view, used by every existing kernel
/// unchanged) plus per-page epoch tags and refcounted published mirrors.
template <typename T>
class BasicPagedTable {
 public:
  BasicPagedTable() = default;

  explicit BasicPagedTable(size_t cells) : cells_(cells) {
    const size_t pc = PickPageCells(cells);
    shift_ = 0;
    while ((size_t{1} << shift_) < pc) ++shift_;
    mask_ = static_cast<uint32_t>(pc - 1);
    const size_t pages = (cells + pc - 1) / pc;
    arena_.assign(pages * pc, T{});  // padded tail cells stay zero forever
    mirror_.resize(pages);
    page_epoch_.assign(pages, 0);
  }

  // Copyable: a clone copies the arena and epoch tags but SHARES the
  // published mirrors, so clean pages are re-shared (not re-copied) by the
  // clone's next publish. Default member-wise semantics do exactly that.
  BasicPagedTable(const BasicPagedTable&) = default;
  BasicPagedTable& operator=(const BasicPagedTable&) = default;
  BasicPagedTable(BasicPagedTable&&) noexcept = default;
  BasicPagedTable& operator=(BasicPagedTable&&) noexcept = default;

  /// The live contiguous arena — the writer's (and live read paths') view.
  /// Mutating through it requires the matching MarkDirty* call; the sketches
  /// route every mutation through helpers that do.
  T* data() { return arena_.data(); }
  const T* data() const { return arena_.data(); }

  /// Logical cell count (excludes the page-rounding pad).
  size_t size() const { return cells_; }
  bool empty() const { return cells_ == 0; }
  size_t page_cells() const { return static_cast<size_t>(mask_) + 1; }
  size_t num_pages() const { return mirror_.size(); }

  /// Marks the page holding logical offset `off` dirty (a plain store;
  /// idempotent within one publish interval) and, inside a delta window,
  /// records the cell itself. The page tag is a no-op until the first
  /// publish: before anything is shared there is nothing to diverge from.
  void MarkDirtyOffset(size_t off) {
    TouchWriterFence();
    if (tracking_) page_epoch_[off >> shift_] = epoch_;
    if (recording_) RecordCell(off);
  }

  /// Marks every page a hash plan's entries touch — the batched write
  /// barrier of the plan-driven scatter paths (offsets are the plan's
  /// absolute table offsets) — and records those cells inside a window.
  void MarkPlanDirty(const uint32_t* offsets, size_t n) {
    TouchWriterFence();
    if (tracking_) {
      const uint64_t e = epoch_;
      for (size_t i = 0; i < n; ++i) page_epoch_[offsets[i] >> shift_] = e;
    }
    if (recording_) {
      for (size_t i = 0; i < n; ++i) RecordCell(offsets[i]);
    }
  }

  /// Marks everything dirty (table-wide sweeps: merge, scale, clear, load).
  /// Inside a delta window it records every logical cell, never the pad.
  void MarkAllDirty() {
    TouchWriterFence();
    if (tracking_) std::fill(page_epoch_.begin(), page_epoch_.end(), epoch_);
    if (recording_) {
      FillBits(written_, cells_);
      FillBits(written_words_, written_.size());
    }
  }

  /// Fills the whole table with `value` (Clear support).
  void Fill(T value) {
    std::fill(arena_.begin(), arena_.end(), value);
    MarkAllDirty();
  }

  /// Publishes the current contents as an immutable PageSet: pages dirtied
  /// since their mirror was made are copied out (O(dirty)); the rest are
  /// re-shared by refcount bump (O(#pages), cheap). Logically const — the
  /// table's values are untouched; the mirror cache, epoch counter, and
  /// stats are memoization. Writer-thread only (see file comment).
  PageSet<T> SharePages() const {
    TouchWriterFence();
    PageSet<T> out;
    out.shift_ = shift_;
    out.mask_ = mask_;
    out.cells_ = cells_;
    const size_t pages = mirror_.size();
    out.refs_.reserve(pages);
    out.raw_.reserve(pages);
    const size_t pc = page_cells();
    for (size_t p = 0; p < pages; ++p) {
      const bool dirty = mirror_[p] == nullptr || page_epoch_[p] == epoch_;
      if (dirty) {
        std::shared_ptr<T[]> fresh = std::make_shared<T[]>(pc);
        std::memcpy(fresh.get(), arena_.data() + p * pc, pc * sizeof(T));
        mirror_[p] = std::move(fresh);
        ++stats_.copied_pages;
        stats_.copied_bytes += pc * sizeof(T);
      } else {
        ++stats_.shared_pages;
      }
      out.refs_.push_back(mirror_[p]);
      out.raw_.push_back(mirror_[p].get());
    }
    // Advance the epoch: every page is now clean relative to its mirror, and
    // any later write's tag (== the new epoch) re-dirties exactly its page.
    // No per-page state is cleared.
    ++epoch_;
    tracking_ = true;
    ++stats_.publishes;
    return out;
  }

  /// Opens a new delta window: clears the written-cell record and turns
  /// recording on, so from this call on every MarkDirty* call records the
  /// cells it names and ForEachWrittenWord visits exactly the cells written
  /// since. The record costs one bit per cell plus one summary bit per 64
  /// cells, allocated by the first call; later calls clear only the words
  /// the summary marks. Windows leave page epochs alone; those serve
  /// publication only. Writer-thread only, like all mutation.
  void BeginDeltaWindow() {
    TouchWriterFence();
    if (!recording_) {
      written_.assign((cells_ + 63) / 64, 0);
      written_words_.assign((written_.size() + 63) / 64, 0);
      recording_ = true;
      return;
    }
    ForEachWrittenWord([this](size_t w, uint64_t) { written_[w] = 0; });
    std::fill(written_words_.begin(), written_words_.end(), uint64_t{0});
  }

  /// True once BeginDeltaWindow has been called.
  bool recording() const { return recording_; }

  /// Visits the record of the cells written since the last BeginDeltaWindow
  /// a 64-cell word at a time, as fn(w, bits) for each word w holding a
  /// written cell, in ascending order: bit i of `bits` stands for cell
  /// 64·w + i. Only the words the summary marks are read, so the walk costs
  /// what the window wrote, not the table's size, and a caller can do its
  /// per-step bookkeeping once a word rather than once a cell.
  template <typename Fn>
  void ForEachWrittenWord(Fn&& fn) const {
    for (size_t s = 0; s < written_words_.size(); ++s) {
      for (uint64_t words = written_words_[s]; words != 0; words &= words - 1) {
        const size_t w = s * 64 + static_cast<size_t>(std::countr_zero(words));
        fn(w, written_[w]);
      }
    }
  }

  /// The number of pages holding a cell written since the last
  /// BeginDeltaWindow, read off the record's summary.
  size_t WrittenPages() const {
    // A page holds page_cells() / 64 whole record words (PickPageCells'
    // floor is 64 cells), so it was written when one of its run of summary
    // bits is set: OR each run into its first bit and count those.
    const size_t words_per_page = page_cells() / 64;
    const uint64_t first_bits =
        words_per_page == 64 ? 1 : ~uint64_t{0} / ((uint64_t{1} << words_per_page) - 1);
    size_t pages = 0;
    for (uint64_t bits : written_words_) {
      for (size_t k = 1; k < words_per_page; k <<= 1) bits |= bits >> k;
      pages += static_cast<size_t>(std::popcount(bits & first_bits));
    }
    return pages;
  }

  /// Cumulative publication counters (see TablePublishStats).
  const TablePublishStats& publish_stats() const { return stats_; }

  /// Bytes of paged-storage bookkeeping beyond the raw cells: per-page
  /// mirror + epoch metadata (kBytesPerPageMeta each), plus the written-cell
  /// record once a delta window has been opened: one bit per cell and one
  /// summary bit per 64-bit word of those. Left out: mirror *data*, since
  /// clean mirrors duplicate arena slices transiently and are owned by
  /// whichever snapshots pin them (PageSet::ResidentBytes).
  size_t MetadataBytes() const {
    return mirror_.size() * kBytesPerPageMeta +
           (written_.size() + written_words_.size()) * sizeof(uint64_t);
  }

 private:
  std::vector<T> arena_;  // live data, padded to a whole number of pages
  size_t cells_ = 0;
  uint32_t shift_ = 0;
  uint32_t mask_ = 0;
  // Publication cache (mutable: memoization, not model state). mirror_[p] is
  // a refcounted immutable copy whose contents match arena page p unless the
  // page's epoch tag says it was written since the mirror was made.
  mutable std::vector<std::shared_ptr<const T[]>> mirror_;
  std::vector<uint64_t> page_epoch_;  // last epoch each page was written in
  // Pages tagged with the current epoch are dirty relative to their mirror;
  // each publish advances it.
  mutable uint64_t epoch_ = 1;
  mutable bool tracking_ = false;  // true after the first publish
  mutable TablePublishStats stats_;
  // Delta-window record: bit `off` of written_ is set when cell `off` was
  // written since the last BeginDeltaWindow, and bit `w` of written_words_
  // when word `w` of written_ is nonzero. Empty until the first window.
  std::vector<uint64_t> written_;
  std::vector<uint64_t> written_words_;
  bool recording_ = false;

  void RecordCell(size_t off) {
    const size_t w = off / 64;
    written_[w] |= uint64_t{1} << (off % 64);
    written_words_[w / 64] |= uint64_t{1} << (w % 64);
  }

  // Sets bits [0, n) of `bits`, which holds exactly (n + 63) / 64 words.
  static void FillBits(std::vector<uint64_t>& bits, size_t n) {
    std::fill(bits.begin(), bits.end(), ~uint64_t{0});
    if (const size_t tail = n % 64; tail != 0) bits.back() = (uint64_t{1} << tail) - 1;
  }

#if defined(WMS_PAGED_TABLE_TSAN)
  // Single-writer tripwire (see file comment): plain unsynchronized stores,
  // so TSan reports any two mutation/publish calls lacking a happens-before
  // edge. `volatile` keeps the dead store from being optimized away.
  mutable volatile unsigned char writer_fence_ = 0;
  void TouchWriterFence() const {
    writer_fence_ = static_cast<unsigned char>(writer_fence_ + 1);
  }
#else
  void TouchWriterFence() const {}
#endif
};

using PagedTable = BasicPagedTable<float>;

}  // namespace wmsketch
