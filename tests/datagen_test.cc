// Tests for the synthetic workload generators: determinism, statistical
// shape (sparsity, skew, label balance), and planted ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datagen/classification_gen.h"
#include "datagen/corpus_gen.h"
#include "datagen/fec_gen.h"
#include "datagen/packet_gen.h"
#include "datagen/sparsity_profile.h"
#include "metrics/relative_risk.h"
#include "stream/libsvm_io.h"

#include "mutation_fuzz.h"

namespace wmsketch {
namespace {

// ------------------------------------------------- SyntheticClassification

TEST(ClassificationGenTest, DeterministicGivenSeed) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  SyntheticClassificationGen a(profile, 7), b(profile, 7);
  for (int i = 0; i < 200; ++i) {
    const Example ea = a.Next();
    const Example eb = b.Next();
    EXPECT_EQ(ea.x, eb.x);
    EXPECT_EQ(ea.y, eb.y);
  }
}

TEST(ClassificationGenTest, ExamplesAreValidAndBinary) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 9);
  for (int i = 0; i < 500; ++i) {
    const Example ex = gen.Next();
    ASSERT_TRUE(ex.Validate().ok());
    for (const float v : ex.x.values()) EXPECT_EQ(std::fabs(v), 1.0f);  // binary values
    EXPECT_GE(ex.x.nnz(), 5u);
    EXPECT_LE(ex.x.nnz(), 25u);
  }
}

TEST(ClassificationGenTest, FeatureFrequenciesAreSkewed) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 11);
  std::unordered_map<uint32_t, int> counts;
  for (int i = 0; i < 3000; ++i) {
    const Example ex = gen.Next();
    for (size_t j = 0; j < ex.x.nnz(); ++j) ++counts[ex.x.index(j)];
  }
  // Rank 0 must dominate a mid-rank feature by a large factor.
  EXPECT_GT(counts[0], 50 * (counts[1000] + 1));
}

TEST(ClassificationGenTest, LabelsCorrelateWithTeacher) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 13);
  int teacher_agrees = 0;
  int strong = 0;
  for (int i = 0; i < 5000; ++i) {
    const Example ex = gen.Next();
    std::vector<uint32_t> features(ex.x.indices());
    const double logit = gen.TeacherLogit(features);
    if (std::fabs(logit) > 2.0) {
      ++strong;
      teacher_agrees += ((logit > 0) == (ex.y > 0));
    }
  }
  ASSERT_GT(strong, 100);  // the teacher fires often enough to matter
  EXPECT_GT(static_cast<double>(teacher_agrees) / strong, 0.8);
}

TEST(ClassificationGenTest, LabelsRoughlyBalanced) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 15);
  int pos = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) pos += (gen.Next().y > 0);
  EXPECT_GT(pos, n / 4);
  EXPECT_LT(pos, 3 * n / 4);
}

TEST(ClassificationGenTest, ProfilesMatchPaperShapes) {
  const ClassificationProfile rcv1 = ClassificationProfile::Rcv1Like();
  EXPECT_EQ(rcv1.dimension, 47236u);
  const ClassificationProfile url = ClassificationProfile::UrlLike();
  EXPECT_GT(url.dimension, 1u << 21);
  // URL teacher avoids the most frequent features entirely.
  EXPECT_GE(url.teacher_rank_lo, 1u << 10);
  const ClassificationProfile kdda = ClassificationProfile::KddaLike();
  EXPECT_GT(kdda.dimension, 1u << 20);
}

TEST(ClassificationGenTest, UrlTeacherAvoidsFrequentRanks) {
  SyntheticClassificationGen gen(ClassificationProfile::UrlLike(), 17);
  for (const auto& [feature, weight] : gen.teacher()) {
    EXPECT_GE(feature, 1u << 10);
    EXPECT_LT(feature, 1u << 18);
    EXPECT_NE(weight, 0.0f);
  }
}

// ------------------------------------------------------------- FEC tabular

TEST(FecGenTest, DeterministicAndWellFormed) {
  FecLikeGenerator a(3), b(3);
  for (int i = 0; i < 200; ++i) {
    const FecRow ra = a.Next();
    const FecRow rb = b.Next();
    EXPECT_EQ(ra.attributes, rb.attributes);
    EXPECT_EQ(ra.outlier, rb.outlier);
    ASSERT_EQ(ra.attributes.size(), a.columns().size());
    for (size_t c = 0; c < ra.attributes.size(); ++c) {
      EXPECT_LT(ra.attributes[c], a.FeatureDimension());
    }
    EXPECT_GT(ra.amount, 0.0);
  }
}

TEST(FecGenTest, OutlierRateNearTwentyPercent) {
  FecLikeGenerator gen(5);
  int outliers = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) outliers += gen.Next().outlier;
  EXPECT_NEAR(static_cast<double>(outliers) / n, 0.20, 0.03);
}

TEST(FecGenTest, PlantedAttributesCarryRisk) {
  FecLikeGenerator gen(7);
  RelativeRiskTracker tracker;
  for (int i = 0; i < 60000; ++i) {
    const FecRow row = gen.Next();
    for (const uint32_t f : row.attributes) tracker.Observe(f, row.outlier);
  }
  // Planted high-risk attributes that actually occurred must show risk > 1;
  // aggregate medians keep the test robust to rare planted values.
  double high_risk_sum = 0.0;
  int high_seen = 0;
  for (const uint32_t f : gen.high_risk_features()) {
    if (tracker.Occurrences(f) < 50) continue;
    high_risk_sum += tracker.RelativeRisk(f);
    ++high_seen;
  }
  ASSERT_GT(high_seen, 3);
  EXPECT_GT(high_risk_sum / high_seen, 1.8);

  double low_risk_sum = 0.0;
  int low_seen = 0;
  for (const uint32_t f : gen.low_risk_features()) {
    if (tracker.Occurrences(f) < 50) continue;
    low_risk_sum += tracker.RelativeRisk(f);
    ++low_seen;
  }
  ASSERT_GT(low_seen, 3);
  EXPECT_LT(low_risk_sum / low_seen, 0.7);
}

// ------------------------------------------------------------ Packet trace

TEST(PacketGenTest, DeterministicEvents) {
  PacketTraceGenerator a(1024, 32, 9), b(1024, 32, 9);
  for (int i = 0; i < 500; ++i) {
    const PacketEvent ea = a.Next();
    const PacketEvent eb = b.Next();
    EXPECT_EQ(ea.ip, eb.ip);
    EXPECT_EQ(ea.outbound, eb.outbound);
  }
}

TEST(PacketGenTest, DirectionsBalanced) {
  PacketTraceGenerator gen(1024, 32, 11);
  int outbound = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) outbound += gen.Next().outbound;
  EXPECT_NEAR(static_cast<double>(outbound) / n, 0.5, 0.02);
}

TEST(PacketGenTest, PlantedDeltoidsShowInCounts) {
  PacketTraceGenerator gen(2048, 16, 13);
  std::vector<uint64_t> out_counts(2048, 0), in_counts(2048, 0);
  for (int i = 0; i < 400000; ++i) {
    const PacketEvent e = gen.Next();
    ++(e.outbound ? out_counts : in_counts)[e.ip];
  }
  int checked = 0;
  for (const auto& [ip, log_ratio] : gen.planted_log_ratios()) {
    if (out_counts[ip] + in_counts[ip] < 200) continue;
    const double empirical =
        std::log((out_counts[ip] + 0.5) / (in_counts[ip] + 0.5));
    EXPECT_NEAR(empirical, gen.TrueLogRatio(ip), 2.5) << "ip " << ip;
    // Sign must agree with the plant for well-observed deltoids.
    EXPECT_GT(empirical * log_ratio, 0.0) << "ip " << ip;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST(PacketGenTest, NonDeltoidsNearZeroRatio) {
  PacketTraceGenerator gen(2048, 16, 15);
  std::vector<uint64_t> out_counts(2048, 0), in_counts(2048, 0);
  for (int i = 0; i < 400000; ++i) {
    const PacketEvent e = gen.Next();
    ++(e.outbound ? out_counts : in_counts)[e.ip];
  }
  const auto& planted = gen.planted_log_ratios();
  for (uint32_t ip = 0; ip < 16; ++ip) {  // most popular, best estimated
    if (planted.count(ip) != 0) continue;
    const double empirical =
        std::log((out_counts[ip] + 0.5) / (in_counts[ip] + 0.5));
    EXPECT_NEAR(empirical, 0.0, 0.35) << "ip " << ip;
  }
}

// ----------------------------------------------------------------- Corpus

TEST(CorpusGenTest, DeterministicTokens) {
  CorpusGenerator a(4096, 16, 17), b(4096, 16, 17);
  for (int i = 0; i < 1000; ++i) {
    bool ba = false, bb = false;
    EXPECT_EQ(a.Next(&ba), b.Next(&bb));
    EXPECT_EQ(ba, bb);
  }
}

TEST(CorpusGenTest, UnigramsFollowZipf) {
  CorpusGenerator gen(4096, 0, 19);  // no collocations: pure Zipf
  std::unordered_map<uint32_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[gen.Next()];
  for (const uint32_t r : {0u, 1u, 5u, 20u}) {
    const double expected = gen.UnigramProb(r) * n;
    EXPECT_NEAR(counts[r], expected, 6.0 * std::sqrt(expected) + 10.0) << "rank " << r;
  }
}

TEST(CorpusGenTest, CollocationsFollowHeads) {
  CorpusGenerator gen(4096, 8, 21);
  ASSERT_EQ(gen.collocations().size(), 8u);
  std::unordered_map<uint32_t, std::pair<int, int>> head_follow;  // head -> (seen, followed)
  uint32_t prev = 0xffffffffu;
  for (int i = 0; i < 500000; ++i) {
    const uint32_t tok = gen.Next();
    for (const Collocation& c : gen.collocations()) {
      if (prev == c.u) {
        ++head_follow[c.u].first;
        if (tok == c.v) ++head_follow[c.u].second;
      }
    }
    prev = tok;
  }
  for (const Collocation& c : gen.collocations()) {
    const auto [seen, followed] = head_follow[c.u];
    if (seen < 100) continue;
    const double tolerance =
        4.0 * std::sqrt(c.follow_prob * (1.0 - c.follow_prob) / seen) + 0.02;
    EXPECT_NEAR(static_cast<double>(followed) / seen, c.follow_prob, tolerance)
        << "pair (" << c.u << "," << c.v << ") seen " << seen;
  }
}

// --------------------------------------------------------- SparsityProfile

SparsityProfile TinyProfile() {
  SparsityProfile p;
  p.name = "tiny";
  p.dimension = 1024;
  p.positive_fraction = 0.25;
  p.binary_values = true;
  p.nnz_histogram = {{2, 4, 0.5}, {5, 16, 0.5}};
  // The head band is wide relative to max nnz so within-example duplicate
  // rejection barely perturbs the band masses.
  p.rank_bands = {{0, 64, 0.6}, {64, 256, 0.3}, {256, 1024, 0.1}};
  return p;
}

TEST(SparsityProfileTest, JsonRoundTripsExactly) {
  const SparsityProfile p = TinyProfile();
  ASSERT_TRUE(p.Validate().ok());
  auto r = ParseSparsityProfileJson(FormatSparsityProfileJson(p));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, p.name);
  EXPECT_EQ(r.value().dimension, p.dimension);
  EXPECT_EQ(r.value().positive_fraction, p.positive_fraction);
  EXPECT_EQ(r.value().binary_values, p.binary_values);
  EXPECT_EQ(r.value().nnz_histogram, p.nnz_histogram);
  EXPECT_EQ(r.value().rank_bands, p.rank_bands);
}

TEST(SparsityProfileTest, NameWithQuotesAndBackslashesRoundTrips) {
  SparsityProfile p = TinyProfile();
  p.name = "a \"quoted\" \\ name";
  auto r = ParseSparsityProfileJson(FormatSparsityProfileJson(p));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, p.name);
}

TEST(SparsityProfileTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseSparsityProfileJson("").ok());
  EXPECT_FALSE(ParseSparsityProfileJson("{}").ok());  // missing dimension
  EXPECT_FALSE(ParseSparsityProfileJson("{\"dimension\": 4, \"bogus\": 1}").ok());
  EXPECT_FALSE(ParseSparsityProfileJson("{\"dimension\": 4} extra").ok());
  // Structural invariants: overlapping bands, masses not summing to 1.
  SparsityProfile p = TinyProfile();
  p.rank_bands[1].rank_lo = 4;
  EXPECT_FALSE(p.Validate().ok());
  p = TinyProfile();
  p.nnz_histogram[0].mass = 0.25;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(SparsityProfileTest, ReplayIsDeterministicAndMatchesShape) {
  const SparsityProfile p = TinyProfile();
  SparsityReplayGen a(p, 11), b(p, 11);
  int positives = 0;
  uint64_t head_occurrences = 0, occurrences = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Example ea = a.Next();
    const Example eb = b.Next();
    ASSERT_EQ(ea.x, eb.x);
    ASSERT_EQ(ea.y, eb.y);
    ASSERT_TRUE(ea.Validate().ok());
    ASSERT_GE(ea.x.nnz(), 2u);
    ASSERT_LE(ea.x.nnz(), 16u);
    positives += ea.y > 0;
    for (size_t j = 0; j < ea.x.nnz(); ++j) {
      ASSERT_LT(ea.x.index(j), p.dimension);
      ASSERT_EQ(ea.x.value(j), 1.0f);  // binary profile
      occurrences += 1;
      head_occurrences += ea.x.index(j) < 64;
    }
  }
  EXPECT_NEAR(static_cast<double>(positives) / n, 0.25, 0.03);
  // The head band holds 0.6 of the occurrence mass, minus what rejection
  // sampling redistributes when a head feature repeats within an example.
  EXPECT_NEAR(static_cast<double>(head_occurrences) / occurrences, 0.6, 0.08);
}

TEST(SparsityProfileTest, MeasureRoundTripsThroughReplay) {
  // Measure a profile from generated examples, replay it, re-measure: the
  // coarse shape (dimension bound, mean nnz) should survive.
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 5);
  std::vector<Example> examples;
  for (int i = 0; i < 2000; ++i) examples.push_back(gen.Next());
  auto measured = MeasureSparsityProfile(examples, "measured");
  ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  ASSERT_TRUE(measured.value().Validate().ok());
  EXPECT_TRUE(measured.value().binary_values);

  SparsityReplayGen replay(measured.value(), 6);
  double mean_src = 0.0, mean_replay = 0.0;
  for (const Example& ex : examples) mean_src += static_cast<double>(ex.x.nnz());
  std::vector<Example> replayed;
  for (int i = 0; i < 2000; ++i) {
    replayed.push_back(replay.Next());
    mean_replay += static_cast<double>(replayed.back().x.nnz());
  }
  mean_src /= static_cast<double>(examples.size());
  mean_replay /= static_cast<double>(replayed.size());
  EXPECT_NEAR(mean_replay, mean_src, 0.25 * mean_src);
  auto remeasured = MeasureSparsityProfile(replayed, "remeasured");
  ASSERT_TRUE(remeasured.ok());
  EXPECT_LE(remeasured.value().dimension, measured.value().dimension);
}

TEST(SparsityProfileTest, CommittedRcv1ProfileLoadsAndValidates) {
  // WMS_SOURCE_DIR (set by CMakeLists.txt) makes the path independent of
  // the directory ctest runs in.
  auto r = LoadSparsityProfile(std::string(WMS_SOURCE_DIR) +
                               "/bench/profiles/rcv1_sparsity.json");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().dimension, 47236u);
  ASSERT_TRUE(r.value().Validate().ok());
  SparsityReplayGen replay(r.value(), 3);
  double mean = 0.0;
  for (int i = 0; i < 500; ++i) mean += static_cast<double>(replay.Next().x.nnz());
  mean /= 500.0;
  EXPECT_NEAR(mean, 74.0, 12.0);  // the committed histogram's mean is ~74
}

void ExpectSameProfile(const SparsityProfile& a, const SparsityProfile& b,
                       const std::string& context) {
  EXPECT_EQ(a.name, b.name) << context;
  EXPECT_EQ(a.dimension, b.dimension) << context;
  EXPECT_EQ(a.positive_fraction, b.positive_fraction) << context;
  EXPECT_EQ(a.binary_values, b.binary_values) << context;
  EXPECT_EQ(a.nnz_histogram, b.nnz_histogram) << context;
  EXPECT_EQ(a.rank_bands, b.rank_bands) << context;
}

// Seeded mutation fuzz (tests/mutation_fuzz.h) of ParseSparsityProfileJson
// over the committed profile. A mutated file may parse; if it does, the
// profile is valid and the formatter's JSON for it parses back to the same
// profile.
TEST(SparsityProfileTest, ParserSurvivesSeededMutationAndAcceptedProfilesRoundTrip) {
  constexpr int kMutations = 3000;
  std::ifstream in(std::string(WMS_SOURCE_DIR) + "/bench/profiles/rcv1_sparsity.json");
  std::ostringstream file;
  file << in.rdbuf();
  const std::string json = file.str();
  ASSERT_TRUE(ParseSparsityProfileJson(json).ok());
  // Numeric tokens: the dimension, and the first histogram bucket's bounds.
  const size_t dimension_at = json.find("47236");
  const size_t bucket_at = json.find("[4, 8,");
  ASSERT_NE(dimension_at, std::string::npos);
  ASSERT_NE(bucket_at, std::string::npos);
  const fuzz::FuzzTarget t{
      "rcv1 profile", json, {{dimension_at, 1}, {bucket_at + 1, 1}, {bucket_at + 4, 1}}, nullptr};
  std::mt19937_64 rng(20261019);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string mutated = fuzz::Mutate(t, rng);
    const Result<SparsityProfile> got = ParseSparsityProfileJson(mutated);
    if (!got.ok()) continue;
    ++accepted;
    ASSERT_TRUE(got.value().Validate().ok()) << mutated;
    const std::string again_json = FormatSparsityProfileJson(got.value());
    const Result<SparsityProfile> again = ParseSparsityProfileJson(again_json);
    ASSERT_TRUE(again.ok()) << mutated << "\n->\n" << again_json;
    ExpectSameProfile(again.value(), got.value(), "mutation " + std::to_string(i));
  }
  EXPECT_GT(accepted, 0);
}

TEST(CorpusGenTest, DocumentBoundariesOccur) {
  CorpusGenerator gen(4096, 4, 23, 1.05, /*mean_doc_length=*/50.0);
  int boundaries = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    bool boundary = false;
    gen.Next(&boundary);
    boundaries += boundary;
  }
  // Expected ~ n/50 boundaries.
  EXPECT_NEAR(boundaries, n / 50, n / 200);
}

}  // namespace
}  // namespace wmsketch
