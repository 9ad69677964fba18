// Tests for the stream substrate: sparse vectors, LIBSVM parsing with
// failure injection, reservoir sampling, and the sliding pair window.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "stream/libsvm_io.h"
#include "stream/reservoir.h"
#include "stream/sparse_vector.h"
#include "stream/window.h"
#include "util/random.h"

#include "mutation_fuzz.h"

namespace wmsketch {
namespace {

// ------------------------------------------------------------ SparseVector

TEST(SparseVectorTest, OneHot) {
  const SparseVector v = SparseVector::OneHot(7, 2.0f);
  EXPECT_EQ(v.nnz(), 1u);
  EXPECT_EQ(v.index(0), 7u);
  EXPECT_EQ(v.value(0), 2.0f);
  EXPECT_TRUE(v.Validate().ok());
}

TEST(SparseVectorTest, FromUnsortedSortsAndMerges) {
  auto r = SparseVector::FromUnsorted({{5, 1.0f}, {2, 2.0f}, {5, 3.0f}, {1, -1.0f}});
  ASSERT_TRUE(r.ok());
  const SparseVector& v = r.value();
  ASSERT_EQ(v.nnz(), 3u);
  EXPECT_EQ(v.index(0), 1u);
  EXPECT_EQ(v.index(1), 2u);
  EXPECT_EQ(v.index(2), 5u);
  EXPECT_EQ(v.value(2), 4.0f);  // merged duplicates
  EXPECT_TRUE(v.Validate().ok());
}

TEST(SparseVectorTest, FromUnsortedDropsCancellations) {
  auto r = SparseVector::FromUnsorted({{3, 1.5f}, {3, -1.5f}, {4, 1.0f}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().nnz(), 1u);
  EXPECT_EQ(r.value().index(0), 4u);
}

TEST(SparseVectorTest, FromUnsortedRejectsNonFinite) {
  EXPECT_FALSE(SparseVector::FromUnsorted({{1, std::nanf("")}}).ok());
  EXPECT_FALSE(SparseVector::FromUnsorted({{1, INFINITY}}).ok());
}

TEST(SparseVectorTest, ValidateRejectsUnsortedAndZeros) {
  EXPECT_FALSE(SparseVector({3, 1}, {1.0f, 1.0f}).Validate().ok());
  EXPECT_FALSE(SparseVector({1, 1}, {1.0f, 1.0f}).Validate().ok());
  EXPECT_FALSE(SparseVector({1, 2}, {1.0f, 0.0f}).Validate().ok());
  EXPECT_TRUE(SparseVector({}, {}).Validate().ok());  // empty is valid
}

TEST(SparseVectorTest, DotAgainstDense) {
  const SparseVector v({0, 2}, {2.0f, 3.0f});
  const std::vector<float> dense = {1.0f, 10.0f, -1.0f};
  EXPECT_DOUBLE_EQ(v.Dot(dense), 2.0 - 3.0);
}

TEST(ExampleTest, ValidateLabelDomain) {
  Example good{SparseVector::OneHot(1), 1};
  EXPECT_TRUE(good.Validate().ok());
  Example bad{SparseVector::OneHot(1), 0};
  EXPECT_FALSE(bad.Validate().ok());
}

// ----------------------------------------------------------------- LIBSVM

TEST(LibsvmTest, ParsesWellFormedLine) {
  auto r = ParseLibsvmLine("+1 1:0.5 7:2 12:-3.5");
  ASSERT_TRUE(r.ok());
  const Example& ex = r.value();
  EXPECT_EQ(ex.y, 1);
  ASSERT_EQ(ex.x.nnz(), 3u);
  EXPECT_EQ(ex.x.index(0), 0u);  // shifted to 0-based
  EXPECT_EQ(ex.x.value(2), -3.5f);
}

TEST(LibsvmTest, LabelConventions) {
  EXPECT_EQ(ParseLibsvmLine("1 1:1").value().y, 1);
  EXPECT_EQ(ParseLibsvmLine("-1 1:1").value().y, -1);
  EXPECT_EQ(ParseLibsvmLine("0 1:1").value().y, -1);  // 0/1 convention
}

TEST(LibsvmTest, CommentsAndWhitespaceTolerated) {
  auto r = ParseLibsvmLine("  +1   3:1.5   # trailing comment\r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().x.nnz(), 1u);
}

TEST(LibsvmTest, FailureInjection) {
  EXPECT_FALSE(ParseLibsvmLine("").ok());                 // empty
  EXPECT_FALSE(ParseLibsvmLine("2 1:1").ok());            // bad label
  EXPECT_FALSE(ParseLibsvmLine("+1 x:1").ok());           // bad index
  EXPECT_FALSE(ParseLibsvmLine("+1 1:abc").ok());         // bad value
  EXPECT_FALSE(ParseLibsvmLine("+1 1:nan").ok());         // non-finite
  EXPECT_FALSE(ParseLibsvmLine("+1 0:1").ok());           // 0 in 1-based
  EXPECT_FALSE(ParseLibsvmLine("+1 :5").ok());            // empty index
  EXPECT_FALSE(ParseLibsvmLine("+1 5:").ok());            // empty value
  EXPECT_FALSE(ParseLibsvmLine("+1 4294967297:1").ok());  // > 32-bit
}

TEST(LibsvmTest, RejectsNonMonotoneIndices) {
  // Duplicate and out-of-order indices are reported, not silently repaired:
  // the strict contract names the offending token.
  auto dup = ParseLibsvmLine("+1 3:1.0 3:2.0");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos)
      << dup.status().ToString();
  EXPECT_NE(dup.status().message().find("3:2.0"), std::string::npos)
      << dup.status().ToString();
  auto ooo = ParseLibsvmLine("+1 7:1.0 2:2.0");
  ASSERT_FALSE(ooo.ok());
  EXPECT_NE(ooo.status().message().find("out-of-order"), std::string::npos)
      << ooo.status().ToString();
  EXPECT_NE(ooo.status().message().find("2:2.0"), std::string::npos)
      << ooo.status().ToString();
}

TEST(LibsvmTest, RejectsTrailingJunk) {
  EXPECT_FALSE(ParseLibsvmLine("+1 1:1.0 junk").ok());     // bare token
  EXPECT_FALSE(ParseLibsvmLine("+1 1:1.0 2:3.5xy").ok());  // junk glued to value
  EXPECT_FALSE(ParseLibsvmLine("+1 1:1.0 2q:3.5").ok());   // junk glued to index
  EXPECT_FALSE(ParseLibsvmLine("+1 1:1.0 -1").ok());       // stray second label
}

TEST(LibsvmTest, ExplicitZerosValidatedThenDropped) {
  // A zero value still participates in the monotonicity check but is not
  // stored (sparse learners only see nonzeros).
  auto r = ParseLibsvmLine("+1 1:1.0 2:0 5:2.0");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().x.nnz(), 2u);
  EXPECT_EQ(r.value().x.index(1), 4u);
  EXPECT_FALSE(ParseLibsvmLine("+1 2:0 2:1.0").ok());  // dup behind a zero
}

TEST(LibsvmTest, GzipPassthroughReadsCompressedFiles) {
  const std::string plain = std::filesystem::temp_directory_path() / "wms_libsvm_gz_test.txt";
  const std::string gz = plain + ".gz";
  {
    std::ofstream out(plain);
    out << "+1 1:0.5 3:-2\n-1 2:1.25\n";
  }
  if (std::system(("gzip -f " + plain).c_str()) != 0) {
    GTEST_SKIP() << "gzip tool unavailable";
  }
  auto r = ReadLibsvmFile(gz);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].x, SparseVector({0, 2}, {0.5f, -2.0f}));
  EXPECT_EQ(r.value()[1].y, -1);
  std::remove(gz.c_str());
  // A missing .gz surfaces gzip's failure as an error, not an empty dataset.
  EXPECT_FALSE(ReadLibsvmFile("/nonexistent/path/xyz.gz").ok());
}

TEST(LibsvmTest, TruncatedGzipSurfacesDecompressorFailure) {
  // A torn .gz must fail loudly with the decompressor's exit status — EOF on
  // the pipe alone would silently accept a partial dataset as complete.
  const std::string plain =
      std::filesystem::temp_directory_path() / "wms_libsvm_gz_trunc.txt";
  const std::string gz = plain + ".gz";
  {
    std::ofstream out(plain);
    for (int i = 0; i < 64; ++i) out << "+1 1:0.5 3:-2\n";
  }
  if (std::system(("gzip -f " + plain).c_str()) != 0) {
    GTEST_SKIP() << "gzip tool unavailable";
  }
  // Keep only the member header: gzip decodes nothing and exits nonzero.
  std::string head(10, '\0');
  {
    std::ifstream in(gz, std::ios::binary);
    ASSERT_TRUE(in.read(head.data(), static_cast<std::streamsize>(head.size())).good());
  }
  {
    std::ofstream out(gz, std::ios::binary | std::ios::trunc);
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
  }
  auto r = ReadLibsvmFile(gz);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("truncated or corrupt"), std::string::npos)
      << r.status().ToString();
  std::remove(gz.c_str());
}

TEST(LibsvmTest, ZeroBasedMode) {
  auto r = ParseLibsvmLine("+1 0:1.0 5:2.0", /*one_based=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().x.index(0), 0u);
  EXPECT_EQ(r.value().x.index(1), 5u);
}

TEST(LibsvmTest, RoundTripFile) {
  const std::string path = std::filesystem::temp_directory_path() / "wms_libsvm_test.txt";
  std::vector<Example> examples;
  examples.push_back(Example{SparseVector({0, 4}, {1.0f, -2.0f}), 1});
  examples.push_back(Example{SparseVector({2}, {0.5f}), -1});
  ASSERT_TRUE(WriteLibsvmFile(path, examples).ok());
  auto r = ReadLibsvmFile(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].x, examples[0].x);
  EXPECT_EQ(r.value()[1].y, -1);
  std::remove(path.c_str());
}

TEST(LibsvmTest, FormatterWritesValuesAndIndicesThatReadBack) {
  // At the stream's default 6 digits 1234567.8 printed as 1.23457e+06, and
  // index 2^32 - 1 wrapped to 0 when made one-based.
  const Example ex{SparseVector({8, 4294967295u}, {1234567.8f, -3.25e-7f}), 1};
  EXPECT_EQ(FormatLibsvmLine(ex), "+1 9:1234567.75 4294967296:-3.25000002e-07");
  Result<Example> back = ParseLibsvmLine(FormatLibsvmLine(ex));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().x, ex.x);
}

// Seeded mutation fuzz (tests/mutation_fuzz.h) of ParseLibsvmLine over lines
// FormatLibsvmLine wrote. A mutated line may parse; if it does, the example
// is valid and the formatter's line for it parses back to the same example.
TEST(LibsvmTest, ParserSurvivesSeededMutationAndAcceptedLinesRoundTrip) {
  constexpr int kMutationsPerLine = 1000;
  const std::vector<Example> seeds = {
      Example{SparseVector({8}, {1234567.8f}), 1},
      Example{SparseVector({0, 4, 77}, {0.1f, -3.25e-7f, 1e30f}), -1},
      Example{SparseVector({12, 4294967295u}, {-0.333333343f, 2.5f}), 1},
  };
  std::mt19937_64 rng(20261019);
  int accepted = 0;
  for (const Example& ex : seeds) {
    const std::string line = FormatLibsvmLine(ex);
    Result<Example> parsed = ParseLibsvmLine(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_EQ(parsed.value().x, ex.x) << line;
    // Offset 3 is the first digit of the first feature index.
    const fuzz::FuzzTarget t{line, line, {{3, 1}}, nullptr};
    for (int i = 0; i < kMutationsPerLine; ++i) {
      const std::string mutated = fuzz::Mutate(t, rng);
      const Result<Example> got = ParseLibsvmLine(mutated);
      if (!got.ok()) continue;
      ++accepted;
      ASSERT_TRUE(got.value().Validate().ok()) << mutated;
      const std::string again_line = FormatLibsvmLine(got.value());
      const Result<Example> again = ParseLibsvmLine(again_line);
      ASSERT_TRUE(again.ok()) << mutated << " -> " << again_line;
      ASSERT_EQ(again.value().x, got.value().x) << mutated << " -> " << again_line;
      ASSERT_EQ(again.value().y, got.value().y) << mutated;
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(LibsvmTest, FileErrorsSurfaceLineNumbers) {
  const std::string path = std::filesystem::temp_directory_path() / "wms_libsvm_bad.txt";
  {
    std::ofstream out(path);
    out << "+1 1:1\n# comment\n\n+1 bogus\n";
  }
  auto r = ReadLibsvmFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(":4:"), std::string::npos) << r.status().ToString();
  std::remove(path.c_str());
  EXPECT_FALSE(ReadLibsvmFile("/nonexistent/path/xyz").ok());
}

// -------------------------------------------------------------- Reservoir

TEST(ReservoirTest, FillsToCapacityThenSamples) {
  ReservoirSample<uint32_t> res(4, 1);
  EXPECT_TRUE(res.empty());
  for (uint32_t i = 0; i < 4; ++i) res.Add(i);
  EXPECT_EQ(res.size(), 4u);
  for (uint32_t i = 4; i < 100; ++i) res.Add(i);
  EXPECT_EQ(res.size(), 4u);
  EXPECT_EQ(res.count(), 100u);
}

TEST(ReservoirTest, UniformInclusionProbability) {
  // Each of 100 stream items should land in a 10-slot reservoir w.p. 0.1.
  const int trials = 3000;
  std::vector<int> inclusion(100, 0);
  for (int t = 0; t < trials; ++t) {
    ReservoirSample<uint32_t> res(10, static_cast<uint64_t>(t) + 1);
    for (uint32_t i = 0; i < 100; ++i) res.Add(i);
    for (const uint32_t item : res.items()) ++inclusion[item];
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(static_cast<double>(inclusion[i]) / trials, 0.1, 0.035) << "item " << i;
  }
}

TEST(ReservoirTest, SampleDrawsFromContents) {
  ReservoirSample<uint32_t> res(3, 5);
  res.Add(11);
  res.Add(22);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const uint32_t s = res.Sample(rng);
    EXPECT_TRUE(s == 11 || s == 22);
  }
}

// ----------------------------------------------------------------- Window

TEST(WindowTest, PairsWithinSpanOnly) {
  SlidingWindowPairs window(3);  // pairs with the 2 preceding tokens
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const auto cb = [&](uint32_t u, uint32_t v) { pairs.emplace_back(u, v); };
  window.Push(1, cb);
  window.Push(2, cb);
  window.Push(3, cb);
  window.Push(4, cb);
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}};
  EXPECT_EQ(pairs, expected);
}

TEST(WindowTest, ResetStopsCrossBoundaryPairs) {
  SlidingWindowPairs window(4);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const auto cb = [&](uint32_t u, uint32_t v) { pairs.emplace_back(u, v); };
  window.Push(1, cb);
  window.Reset();
  window.Push(2, cb);
  ASSERT_EQ(pairs.size(), 0u);
  window.Push(3, cb);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (std::pair<uint32_t, uint32_t>{2, 3}));
}

TEST(WindowTest, PaperWindowSixYieldsFivePredecessors) {
  SlidingWindowPairs window(6);
  int count = 0;
  const auto cb = [&](uint32_t, uint32_t) { ++count; };
  for (uint32_t i = 0; i < 20; ++i) window.Push(i, cb);
  // After warmup, each token pairs with 5 predecessors: 0+1+2+3+4+5*15.
  EXPECT_EQ(count, 0 + 1 + 2 + 3 + 4 + 5 * 15);
}

}  // namespace
}  // namespace wmsketch
