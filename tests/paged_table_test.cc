// Unit tests for the copy-on-write paged table storage (util/paged_table.h):
// page sizing, dirty tracking via epoch tags, publish-time sharing vs
// copying, clone page sharing, snapshot immutability, and the delta
// window's written-cell record.

#include "util/paged_table.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "util/math.h"
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

// The cells a table's delta window recorded, in walk order.
std::vector<size_t> WrittenCells(const PagedTable& t) {
  std::vector<size_t> cells;
  t.ForEachWrittenCell([&](size_t off, const float* cell) {
    EXPECT_EQ(cell, t.data() + off);
    cells.push_back(off);
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

// Randomized read equivalence: every paged read kernel must see exactly the
// cells a flat copy of the table holds, bit for bit, for plans that straddle
// page boundaries — the offsets where the page-pointer walk (pages[off >>
// shift] + (off & mask)) is easiest to get wrong by one. Runs on both the
// scalar and (where the CPU has them) AVX2 paths.
TEST(PagedTableTest, RandomizedPagedReadsMatchFlatAcrossPageBoundaries) {
  constexpr size_t kCells = 5000;  // padded tail: last page partly out of range
  PagedTable t(kCells);
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng]() {
    rng += 0x9E3779B97F4A7C15ull;
    uint64_t z = rng;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (size_t i = 0; i < t.size(); ++i) {
    // Mixed magnitudes plus ±0 cells: the fused median's compare+blend swaps
    // must treat signed-zero ties exactly as std::min/std::max do.
    t.data()[i] = (i % 67 == 0) ? ((i % 134 == 0) ? 0.0f : -0.0f)
                                : (static_cast<float>(next() % 2048) - 1024.0f) * 0.03125f;
  }
  const PageSet<float> snap = t.SharePages();
  const PagedView<float> view = snap.view();
  const uint32_t pc = static_cast<uint32_t>(t.page_cells());
  ASSERT_GE(t.num_pages(), 2u);

  const bool had_simd = simd::Enabled();
  for (const bool simd_on : {false, true}) {
    simd::SetEnabled(simd_on);
    if (simd_on && !simd::Enabled()) continue;  // no AVX2 on this machine
    for (const uint32_t depth : {1u, 3u, 5u, 7u}) {
      for (const size_t keys : {size_t{1}, size_t{9}, size_t{64}, size_t{257}}) {
        const size_t entries = keys * depth;
        std::vector<uint32_t> offsets(entries);
        std::vector<float> signs(entries);
        for (size_t e = 0; e < entries; ++e) {
          // Three in four entries hug a page boundary (pc-2 .. pc+1 within
          // some page); the rest land anywhere in the table.
          if (e % 4 != 0) {
            const uint32_t page = static_cast<uint32_t>(next() % (t.num_pages() - 1));
            const uint32_t near = static_cast<uint32_t>(next() % 4);
            offsets[e] = std::min<uint32_t>(page * pc + (pc - 2) + near,
                                            static_cast<uint32_t>(kCells - 1));
          } else {
            offsets[e] = static_cast<uint32_t>(next() % kCells);
          }
          signs[e] = (next() & 1) ? 1.0f : -1.0f;
        }

        // GatherSignedPaged vs GatherSigned over the flat backing array.
        std::vector<float> flat(entries), paged(entries);
        simd::GatherSigned(t.data(), offsets.data(), signs.data(), entries, flat.data());
        simd::GatherSignedPaged(view.pages, view.shift, view.mask, offsets.data(),
                                signs.data(), entries, paged.data());
        ASSERT_EQ(0, std::memcmp(flat.data(), paged.data(), entries * sizeof(float)))
            << "simd=" << simd_on << " depth=" << depth << " keys=" << keys;

        // Fused paged median vs flat fused median vs first principles.
        const double factor = 1.0 / 3.0;
        std::vector<float> med_flat(keys), med_paged(keys);
        simd::GatherMedianFused(t.data(), offsets.data(), signs.data(), keys, depth,
                                factor, med_flat.data());
        simd::GatherMedianFusedPaged(view.pages, view.shift, view.mask, offsets.data(),
                                     signs.data(), keys, depth, factor, med_paged.data());
        ASSERT_EQ(0, std::memcmp(med_flat.data(), med_paged.data(), keys * sizeof(float)))
            << "simd=" << simd_on << " depth=" << depth << " keys=" << keys;
        for (size_t k = 0; k < keys; ++k) {
          float lanes[7];
          for (uint32_t j = 0; j < depth; ++j) lanes[j] = paged[k * depth + j];
          const float want =
              static_cast<float>(factor * static_cast<double>(MedianInPlace(lanes, depth)));
          ASSERT_EQ(0, std::memcmp(&want, &med_paged[k], sizeof(float)))
              << "simd=" << simd_on << " depth=" << depth << " key=" << k;
        }

        // PlanMarginPaged vs PlanMargin over the flat backing array.
        std::vector<float> values(keys), scratch(entries);
        for (size_t k = 0; k < keys; ++k) {
          values[k] = (static_cast<float>(next() % 512) - 256.0f) * 0.0625f;
        }
        simd::PlanView plan{offsets.data(), signs.data(), keys, depth};
        const double m_flat =
            simd::PlanMargin(t.data(), plan, values.data(), scratch.data());
        const double m_paged = simd::PlanMarginPaged(
            view.pages, view.shift, view.mask, plan, values.data(), scratch.data());
        ASSERT_EQ(0, std::memcmp(&m_flat, &m_paged, sizeof(double)))
            << "simd=" << simd_on << " depth=" << depth << " keys=" << keys;
      }
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
  // The written-cell record: one bit per cell from the first window on.
  t.BeginDeltaWindow();
  EXPECT_EQ(t.MetadataBytes(), t.num_pages() * kBytesPerPageMeta + t.size() / 8);
  EXPECT_EQ(PagedTableBytes(t.size(), t.num_pages()),
            t.size() * 4 + t.num_pages() * kBytesPerPageMeta);
}

}  // namespace
}  // namespace wmsketch
