// Unit tests for the copy-on-write paged table storage (util/paged_table.h):
// page sizing, dirty tracking via epoch tags, publish-time sharing vs
// copying, clone page sharing, snapshot immutability, and the delta
// window's written-cell record.

#include "util/paged_table.h"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hash/tabulation.h"
#include "sketch/read_path.h"
#include "stream/sparse_vector.h"
#include "util/random.h"
#include "util/simd.h"

namespace wmsketch {
namespace {

bool IsPow2(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

TEST(PagedTableTest, PageSizingIsPowerOfTwoWithinBounds) {
  for (const size_t cells : {size_t{1}, size_t{64}, size_t{768}, size_t{4096},
                             size_t{196608}, size_t{1} << 22}) {
    const size_t pc = PickPageCells(cells);
    EXPECT_TRUE(IsPow2(pc)) << cells;
    EXPECT_GE(pc, 64u) << cells;
    EXPECT_LE(pc, 4096u) << cells;
  }
  // Power-of-two pages subdivide power-of-two rows evenly (or hold whole
  // rows): a page never straddles a row boundary.
  const size_t pc = PickPageCells(196608);  // width 65536 x depth 3
  EXPECT_TRUE(65536 % pc == 0 || pc % 65536 == 0);
}

TEST(PagedTableTest, ViewMatchesArenaByteForByte) {
  PagedTable t(1000);  // not a multiple of the page size: padded tail
  for (size_t i = 0; i < t.size(); ++i) t.data()[i] = static_cast<float>(i) * 0.5f;
  const PageSet<float> pages = t.SharePages();
  ASSERT_EQ(pages.cells(), 1000u);
  for (size_t i = 0; i < t.size(); ++i) {
    const float a = t.data()[i];
    const float b = pages.view().At(i);
    EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(float))) << i;
  }
}

TEST(PagedTableTest, FirstPublishCopiesAllLaterPublishesCopyDirtyOnly) {
  PagedTable t(4096);
  const size_t pages = t.num_pages();
  ASSERT_GE(pages, 2u);

  const PageSet<float> s1 = t.SharePages();
  EXPECT_EQ(t.publish_stats().publishes, 1u);
  EXPECT_EQ(t.publish_stats().copied_pages, pages);  // nothing shared yet

  // No writes: the second publish shares everything.
  const PageSet<float> s2 = t.SharePages();
  EXPECT_EQ(t.publish_stats().copied_pages, pages);
  EXPECT_EQ(t.publish_stats().shared_pages, pages);

  // Dirty exactly one page: the third publish copies exactly one.
  t.MarkDirtyOffset(0);
  t.data()[0] = 42.0f;
  const PageSet<float> s3 = t.SharePages();
  EXPECT_EQ(t.publish_stats().copied_pages, pages + 1);
  EXPECT_EQ(t.publish_stats().shared_pages, 2 * pages - 1);

  // Clean pages are physically shared: same page base pointers.
  EXPECT_EQ(s2.view().pages[1], s3.view().pages[1]);
  // The dirtied page diverged.
  EXPECT_NE(s2.view().pages[0], s3.view().pages[0]);
}

TEST(PagedTableTest, SnapshotsAreImmutableUnderLaterWrites) {
  PagedTable t(512);
  t.MarkDirtyOffset(7);
  t.data()[7] = 1.0f;
  const PageSet<float> snap = t.SharePages();
  t.MarkDirtyOffset(7);
  t.data()[7] = 2.0f;
  EXPECT_EQ(snap.view().At(7), 1.0f);
  EXPECT_EQ(t.data()[7], 2.0f);
  const PageSet<float> snap2 = t.SharePages();
  EXPECT_EQ(snap.view().At(7), 1.0f);  // still pinned at its version
  EXPECT_EQ(snap2.view().At(7), 2.0f);
}

TEST(PagedTableTest, MarkPlanDirtyCoversExactlyTheTouchedPages) {
  PagedTable t(4096);
  const size_t pages = t.num_pages();
  (void)t.SharePages();  // enable tracking; everything now clean
  const uint32_t pc = static_cast<uint32_t>(t.page_cells());
  // Touch two distinct pages through a fake plan.
  const uint32_t offsets[3] = {0, 1, pc};  // page 0 twice, page 1 once
  t.MarkPlanDirty(offsets, 3);
  const uint64_t copied_before = t.publish_stats().copied_pages;
  (void)t.SharePages();
  EXPECT_EQ(t.publish_stats().copied_pages - copied_before, 2u);
  EXPECT_EQ(t.publish_stats().shared_pages, pages - 2);
}

TEST(PagedTableTest, MarkingBeforeFirstPublishIsFreeAndHarmless) {
  PagedTable t(4096);
  // No publish yet: marks are no-ops (nothing is shared to diverge from).
  t.MarkDirtyOffset(0);
  t.MarkAllDirty();
  EXPECT_EQ(t.publish_stats().publishes, 0u);
  (void)t.SharePages();
  EXPECT_EQ(t.publish_stats().copied_pages, t.num_pages());
}

TEST(PagedTableTest, CloneSharesCleanPagesWithTheOriginal) {
  PagedTable a(4096);
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<float>(i);
  const PageSet<float> sa = a.SharePages();

  PagedTable b = a;  // clone
  // The clone's first publish re-shares the original's clean mirrors: zero
  // new copies, identical page pointers.
  const uint64_t copied_before = b.publish_stats().copied_pages;
  const PageSet<float> sb = b.SharePages();
  EXPECT_EQ(b.publish_stats().copied_pages, copied_before);
  for (size_t p = 0; p < a.num_pages(); ++p) {
    EXPECT_EQ(sa.view().pages[p], sb.view().pages[p]) << p;
  }

  // Divergence after cloning COWs only the clone's dirtied page, and the
  // original never sees it.
  b.MarkDirtyOffset(0);
  b.data()[0] = -1.0f;
  const PageSet<float> sb2 = b.SharePages();
  EXPECT_EQ(sb2.view().At(0), -1.0f);
  EXPECT_EQ(sa.view().At(0), 0.0f);
  EXPECT_EQ(a.data()[0], 0.0f);
  EXPECT_NE(sb2.view().pages[0], sa.view().pages[0]);
  EXPECT_EQ(sb2.view().pages[1], sa.view().pages[1]);
}

TEST(PagedTableTest, FillMarksEverythingDirty) {
  PagedTable t(1024);
  (void)t.SharePages();
  t.Fill(3.5f);
  const uint64_t copied_before = t.publish_stats().copied_pages;
  const PageSet<float> s = t.SharePages();
  EXPECT_EQ(t.publish_stats().copied_pages - copied_before, t.num_pages());
  EXPECT_EQ(s.view().At(1023), 3.5f);
}

// The cells a table's delta window recorded, in walk order. The walk must
// name only nonzero words, in ascending order.
std::vector<size_t> WrittenCells(const PagedTable& t) {
  std::vector<size_t> cells;
  size_t next_word = 0;
  t.ForEachWrittenWord([&](size_t w, uint64_t bits) {
    EXPECT_GE(w, next_word);
    EXPECT_NE(bits, 0u) << "word " << w;
    next_word = w + 1;
    for (; bits != 0; bits &= bits - 1) cells.push_back(w * 64 + std::countr_zero(bits));
  });
  return cells;
}

TEST(PagedTableTest, DeltaWindowRecordsExactlyTheNamedCells) {
  PagedTable t(1000);  // padded tail: the last page holds pad cells
  EXPECT_FALSE(t.recording());
  t.MarkDirtyOffset(5);  // before any window: nothing is recorded
  t.BeginDeltaWindow();
  EXPECT_TRUE(t.recording());
  EXPECT_TRUE(WrittenCells(t).empty());

  const uint32_t plan[4] = {999, 64, 3, 64};
  t.MarkPlanDirty(plan, 4);
  t.MarkDirtyOffset(700);
  EXPECT_EQ(WrittenCells(t), (std::vector<size_t>{3, 64, 700, 999}));

  // A reopened window forgets the old record.
  t.BeginDeltaWindow();
  t.MarkDirtyOffset(128);
  EXPECT_EQ(WrittenCells(t), (std::vector<size_t>{128}));

  // A sweep records every logical cell once and never a pad cell.
  t.MarkAllDirty();
  const std::vector<size_t> all = WrittenCells(t);
  ASSERT_EQ(all.size(), t.size());
  for (size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

// The record's summary (one bit per 64-cell word) must follow every marking
// path, on tables whose word count is not a multiple of 64 and whose pages
// span one or several words: the walk and WrittenPages() agree with a
// reference set after random writes, after MarkAllDirty inside an open
// window, and after a reopened window, which clears only the words the
// summary marks.
TEST(PagedTableTest, WrittenWordSummaryFollowsEveryMarkingPath) {
  Rng rng(41);
  // 131 words (a partial last summary word, a 7-cell last word); 4,688
  // words at two words a page; 17,188 words at eight.
  for (const size_t cells : {size_t{64 * 130 + 7}, size_t{300000}, size_t{1100000}}) {
    PagedTable t(cells);
    SCOPED_TRACE(::testing::Message() << cells << " cells, " << t.page_cells() << " a page");
    auto pages_of = [&t](const std::vector<size_t>& written) {
      std::vector<size_t> pages;
      for (const size_t off : written) {
        if (pages.empty() || pages.back() != off / t.page_cells()) {
          pages.push_back(off / t.page_cells());
        }
      }
      return pages.size();
    };
    t.BeginDeltaWindow();
    for (int round = 0; round < 3; ++round) {
      std::vector<bool> want(cells, false);
      const size_t writes = round == 0 ? 40 : 2000;
      for (size_t i = 0; i < writes; ++i) {
        const uint32_t off = static_cast<uint32_t>(rng.Bounded(cells));
        if (i % 2 == 0) {
          t.MarkDirtyOffset(off);
        } else {
          t.MarkPlanDirty(&off, 1);
        }
        want[off] = true;
      }
      std::vector<size_t> expected;
      for (size_t off = 0; off < cells; ++off) {
        if (want[off]) expected.push_back(off);
      }
      const std::vector<size_t> got = WrittenCells(t);
      ASSERT_EQ(got, expected) << "round " << round;
      EXPECT_EQ(t.WrittenPages(), pages_of(expected)) << "round " << round;

      t.MarkAllDirty();  // inside the open window: every logical cell
      const std::vector<size_t> all = WrittenCells(t);
      ASSERT_EQ(all.size(), cells) << "round " << round;
      EXPECT_EQ(all.back(), cells - 1);
      EXPECT_EQ(t.WrittenPages(), t.num_pages()) << "round " << round;

      t.BeginDeltaWindow();
      ASSERT_TRUE(WrittenCells(t).empty()) << "round " << round;
      EXPECT_EQ(t.WrittenPages(), 0u);
    }
  }
}

TEST(PagedTableTest, DeltaWindowsLeavePublicationAlone) {
  // Windows touch only the cell record: a publish after a window still
  // copies exactly the pages written since the previous publish.
  PagedTable t(4096);
  (void)t.SharePages();
  t.BeginDeltaWindow();
  t.MarkDirtyOffset(0);
  t.BeginDeltaWindow();
  const uint64_t copied_before = t.publish_stats().copied_pages;
  (void)t.SharePages();
  EXPECT_EQ(t.publish_stats().copied_pages - copied_before, 1u);
  (void)t.SharePages();
  EXPECT_EQ(t.publish_stats().copied_pages - copied_before, 1u);
  EXPECT_EQ(WrittenCells(t), (std::vector<size_t>{}));
}

TEST(PagedTableTest, DoubleTableWorksTheSameWay) {
  BasicPagedTable<double> t(300);
  t.data()[299] = 2.25;
  const PageSet<double> s = t.SharePages();
  EXPECT_EQ(s.view().At(299), 2.25);
  t.MarkDirtyOffset(299);
  t.data()[299] = 4.5;
  EXPECT_EQ(s.view().At(299), 2.25);
}

// Randomized read equivalence: the batched paged reads a frozen model serves
// from (readpath::MarginBatchPaged / EstimateBatchPaged) must answer exactly
// what the batched flat reads (PlanMarginBatch / GatherMedianBatch) answer
// on the same cells, bit for bit. Three in four keys hash, in some row, to
// one of the two cells on either side of a page boundary — the offsets where
// the page walk (pages[off >> shift] + (off & mask)) is easiest to get wrong
// by one. ±0 cells make the median networks' min/max choice on signed-zero
// ties visible. Depths 1–7 take the sorting networks, depth 9 the
// simd::MedianLarge path. Width 32 puts two rows on a page and leaves the
// last page partly padded; width 256 splits each row over four pages. Runs
// on both the scalar and (where the CPU has them) AVX2 paths.
TEST(PagedTableTest, RandomizedPagedReadsMatchFlatAcrossPageBoundaries) {
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng]() {
    rng += 0x9E3779B97F4A7C15ull;
    uint64_t z = rng;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  struct Shape {
    uint32_t width;
    uint32_t depth;
  };
  const bool had_simd = simd::Enabled();
  for (const Shape shape : {Shape{256, 1}, Shape{256, 3}, Shape{256, 5}, Shape{256, 7},
                            Shape{256, 9}, Shape{32, 3}, Shape{32, 9}}) {
    SplitMix64 seeds(shape.width * 16 + shape.depth);
    std::vector<SignedBucketHash> rows;
    for (uint32_t j = 0; j < shape.depth; ++j) rows.emplace_back(seeds.Next(), shape.width);
    PagedTable t(static_cast<size_t>(shape.width) * shape.depth);
    for (size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = (i % 67 == 0)
                        ? ((i % 134 == 0) ? 0.0f : -0.0f)
                        : (static_cast<float>(next() % 2048) - 1024.0f) * 0.03125f;
    }
    const PageSet<float> snap = t.SharePages();
    const PagedView<float> view = snap.view();
    ASSERT_GE(t.num_pages(), 2u);

    const auto near_boundary = [&](uint32_t key) {
      for (uint32_t j = 0; j < shape.depth; ++j) {
        uint32_t bucket;
        float sign;
        rows[j].BucketAndSign(key, &bucket, &sign);
        const uint32_t off = j * shape.width + bucket;
        const uint32_t in_page = off & view.mask;
        if (in_page + 2 > view.mask || (in_page < 2 && off >= 2)) return true;
      }
      return false;
    };
    std::vector<uint32_t> keys;
    while (keys.size() < 257) {
      const uint32_t key = static_cast<uint32_t>(next() % (1u << 20));
      if (keys.size() % 4 == 0 || near_boundary(key)) keys.push_back(key);
    }
    std::vector<Example> batch;
    for (size_t k = 0; k < keys.size();) {
      const size_t nnz = 1 + next() % 12;
      std::vector<std::pair<uint32_t, float>> pairs;
      for (; pairs.size() < nnz && k < keys.size(); ++k) {
        pairs.emplace_back(keys[k], (static_cast<float>(next() % 512) - 256.0f) * 0.0625f);
      }
      batch.push_back(Example{std::move(SparseVector::FromUnsorted(pairs)).value(), 1});
    }

    const double factor = 1.0 / 3.0;
    for (const bool simd_on : {false, true}) {
      simd::SetEnabled(simd_on);
      if (simd_on && !simd::Enabled()) continue;  // no AVX2 on this machine
      SCOPED_TRACE(::testing::Message() << "width=" << shape.width << " depth="
                                        << shape.depth << " simd=" << simd_on);
      std::vector<float> est_flat(keys.size()), est_paged(keys.size());
      readpath::GatherMedianBatch(t.data(), rows, keys, factor, est_flat.data());
      readpath::EstimateBatchPaged(view, rows, keys, factor, est_paged.data());
      ASSERT_EQ(0, std::memcmp(est_flat.data(), est_paged.data(),
                               keys.size() * sizeof(float)));
      std::vector<double> m_flat(batch.size()), m_paged(batch.size());
      readpath::PlanMarginBatch(t.data(), rows, batch, factor, m_flat.data());
      readpath::MarginBatchPaged(view, rows, batch, factor, m_paged.data());
      ASSERT_EQ(0, std::memcmp(m_flat.data(), m_paged.data(), batch.size() * sizeof(double)));
    }
  }
  simd::SetEnabled(had_simd);
}

TEST(PagedTableTest, ResidentAccounting) {
  PagedTable t(4096);
  const PageSet<float> s = t.SharePages();
  EXPECT_EQ(s.ResidentBytes(),
            t.num_pages() * (t.page_cells() * sizeof(float) + kBytesPerPageMeta));
  EXPECT_EQ(t.MetadataBytes(), t.num_pages() * kBytesPerPageMeta);
  // The written-cell record from the first window on: one bit per cell,
  // and a summary of 8 bytes per 64 record words, rounded up (64 words here).
  t.BeginDeltaWindow();
  EXPECT_EQ(t.MetadataBytes(), t.num_pages() * kBytesPerPageMeta + t.size() / 8 + 8);
  EXPECT_EQ(PagedTableBytes(t.size(), t.num_pages()),
            t.size() * 4 + t.num_pages() * kBytesPerPageMeta);
}

}  // namespace
}  // namespace wmsketch
