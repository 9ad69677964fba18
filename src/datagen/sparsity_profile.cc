#include "datagen/sparsity_profile.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>

namespace wmsketch {

namespace {

// ------------------------------------------------------ JSON subset parser
//
// A strict recursive-descent parser for exactly the JSON subset
// FormatSparsityProfileJson emits: one object of string keys mapping to
// numbers, strings, booleans, or arrays of fixed-width number triples. No
// escapes beyond \" and \\, no nested objects, no null. Small enough to
// audit, and with no dependency to vendor.

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : s_(s) {}

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }

  // Consumes `c` (after whitespace) or fails.
  Status Expect(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return Status::InvalidArgument(std::string("expected '") + c + "' at byte " +
                                     std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  // Peeks the next non-whitespace character (0 at end).
  char Peek() {
    SkipWs();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  // Consumes `c` if it is next; returns whether it did.
  bool Accept(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ParseString() {
    WMS_RETURN_NOT_OK(Expect('"'));
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size() || (s_[pos_] != '"' && s_[pos_] != '\\')) {
          return Status::InvalidArgument("unsupported string escape at byte " +
                                         std::to_string(pos_));
        }
        c = s_[pos_++];
      }
      out += c;
    }
    if (pos_ >= s_.size()) return Status::InvalidArgument("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Result<double> ParseNumber() {
    SkipWs();
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    double v = 0.0;
    const auto [p, err] = std::from_chars(s_.data() + start, s_.data() + pos_, v);
    if (err != std::errc() || p != s_.data() + pos_ || start == pos_) {
      return Status::InvalidArgument("bad number at byte " + std::to_string(start));
    }
    return v;
  }

  Result<bool> ParseBool() {
    SkipWs();
    if (s_.substr(pos_).starts_with("true")) {
      pos_ += 4;
      return true;
    }
    if (s_.substr(pos_).starts_with("false")) {
      pos_ += 5;
      return false;
    }
    return Status::InvalidArgument("expected boolean at byte " + std::to_string(pos_));
  }

  // Parses an array of `width`-element number arrays, e.g. [[1,2,0.5],...].
  Result<std::vector<std::array<double, 3>>> ParseTripleArray() {
    std::vector<std::array<double, 3>> out;
    WMS_RETURN_NOT_OK(Expect('['));
    if (Accept(']')) return out;
    do {
      WMS_RETURN_NOT_OK(Expect('['));
      std::array<double, 3> triple{};
      for (int i = 0; i < 3; ++i) {
        if (i > 0) WMS_RETURN_NOT_OK(Expect(','));
        WMS_ASSIGN_OR_RETURN(triple[i], ParseNumber());
      }
      WMS_RETURN_NOT_OK(Expect(']'));
      out.push_back(triple);
    } while (Accept(','));
    WMS_RETURN_NOT_OK(Expect(']'));
    return out;
  }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

Result<uint32_t> AsU32(double v, const char* what) {
  if (v < 0 || v > 4294967295.0 || v != std::floor(v)) {
    return Status::InvalidArgument(std::string("expected 32-bit integer for ") + what);
  }
  return static_cast<uint32_t>(v);
}

// Shared format for the two triple-list fields.
void AppendTriples(std::ostringstream& os, const char* key,
                   const std::vector<std::array<double, 3>>& triples) {
  os << "  \"" << key << "\": [";
  for (size_t i = 0; i < triples.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    os << '[' << static_cast<uint64_t>(triples[i][0]) << ", "
       << static_cast<uint64_t>(triples[i][1]) << ", " << triples[i][2] << ']';
  }
  os << "\n  ]";
}

double MassSum(const std::vector<NnzBucket>& b) {
  double s = 0.0;
  for (const auto& x : b) s += x.mass;
  return s;
}

double MassSum(const std::vector<RankBand>& b) {
  double s = 0.0;
  for (const auto& x : b) s += x.mass;
  return s;
}

}  // namespace

Status SparsityProfile::Validate() const {
  if (dimension == 0) return Status::InvalidArgument("profile dimension must be > 0");
  if (!(positive_fraction >= 0.0 && positive_fraction <= 1.0)) {
    return Status::InvalidArgument("positive_fraction must be in [0, 1]");
  }
  if (nnz_histogram.empty()) return Status::InvalidArgument("empty nnz_histogram");
  if (rank_bands.empty()) return Status::InvalidArgument("empty rank_bands");
  for (const NnzBucket& b : nnz_histogram) {
    if (b.lo == 0 || b.hi < b.lo) {
      return Status::InvalidArgument("nnz bucket range must satisfy 1 <= lo <= hi");
    }
    if (!(b.mass >= 0.0 && b.mass <= 1.0)) {
      return Status::InvalidArgument("nnz bucket mass must be in [0, 1]");
    }
  }
  uint32_t prev_hi = 0;
  for (const RankBand& b : rank_bands) {
    if (b.rank_hi <= b.rank_lo || b.rank_lo < prev_hi) {
      return Status::InvalidArgument("rank bands must be nonempty, ordered, disjoint");
    }
    if (b.rank_hi > dimension) {
      return Status::InvalidArgument("rank band exceeds the profile dimension");
    }
    if (!(b.mass >= 0.0 && b.mass <= 1.0)) {
      return Status::InvalidArgument("rank band mass must be in [0, 1]");
    }
    prev_hi = b.rank_hi;
  }
  if (std::fabs(MassSum(nnz_histogram) - 1.0) > 1e-6) {
    return Status::InvalidArgument("nnz_histogram masses must sum to 1");
  }
  if (std::fabs(MassSum(rank_bands) - 1.0) > 1e-6) {
    return Status::InvalidArgument("rank_bands masses must sum to 1");
  }
  return Status::OK();
}

Result<SparsityProfile> ParseSparsityProfileJson(std::string_view json) {
  JsonCursor c(json);
  SparsityProfile p;
  bool saw_dimension = false;
  WMS_RETURN_NOT_OK(c.Expect('{'));
  if (!c.Accept('}')) {
    do {
      WMS_ASSIGN_OR_RETURN(const std::string key, c.ParseString());
      WMS_RETURN_NOT_OK(c.Expect(':'));
      if (key == "name") {
        WMS_ASSIGN_OR_RETURN(p.name, c.ParseString());
      } else if (key == "dimension") {
        WMS_ASSIGN_OR_RETURN(const double v, c.ParseNumber());
        WMS_ASSIGN_OR_RETURN(p.dimension, AsU32(v, "dimension"));
        saw_dimension = true;
      } else if (key == "positive_fraction") {
        WMS_ASSIGN_OR_RETURN(p.positive_fraction, c.ParseNumber());
      } else if (key == "binary_values") {
        WMS_ASSIGN_OR_RETURN(p.binary_values, c.ParseBool());
      } else if (key == "nnz_histogram") {
        WMS_ASSIGN_OR_RETURN(const auto triples, c.ParseTripleArray());
        for (const auto& t : triples) {
          NnzBucket b;
          WMS_ASSIGN_OR_RETURN(b.lo, AsU32(t[0], "nnz bucket lo"));
          WMS_ASSIGN_OR_RETURN(b.hi, AsU32(t[1], "nnz bucket hi"));
          b.mass = t[2];
          p.nnz_histogram.push_back(b);
        }
      } else if (key == "rank_bands") {
        WMS_ASSIGN_OR_RETURN(const auto triples, c.ParseTripleArray());
        for (const auto& t : triples) {
          RankBand b;
          WMS_ASSIGN_OR_RETURN(b.rank_lo, AsU32(t[0], "rank band lo"));
          WMS_ASSIGN_OR_RETURN(b.rank_hi, AsU32(t[1], "rank band hi"));
          b.mass = t[2];
          p.rank_bands.push_back(b);
        }
      } else {
        return Status::InvalidArgument("unknown profile key '" + key + "'");
      }
    } while (c.Accept(','));
    WMS_RETURN_NOT_OK(c.Expect('}'));
  }
  if (!c.AtEnd()) return Status::InvalidArgument("trailing content after profile object");
  if (!saw_dimension) return Status::InvalidArgument("profile missing 'dimension'");
  WMS_RETURN_NOT_OK(p.Validate());
  return p;
}

Result<SparsityProfile> LoadSparsityProfile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open profile '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<SparsityProfile> r = ParseSparsityProfileJson(buf.str());
  if (!r.ok()) {
    return Status(r.status().code(), path + ": " + r.status().message());
  }
  return r;
}

std::string FormatSparsityProfileJson(const SparsityProfile& p) {
  std::ostringstream os;
  os.precision(17);  // double round-trip
  os << "{\n";
  os << "  \"name\": \"";
  for (const char c : p.name) {
    if (c == '"' || c == '\\') os << '\\';  // the two escapes the parser reads
    os << c;
  }
  os << "\",\n";
  os << "  \"dimension\": " << p.dimension << ",\n";
  os << "  \"positive_fraction\": " << p.positive_fraction << ",\n";
  os << "  \"binary_values\": " << (p.binary_values ? "true" : "false") << ",\n";
  std::vector<std::array<double, 3>> triples;
  for (const NnzBucket& b : p.nnz_histogram) {
    triples.push_back({static_cast<double>(b.lo), static_cast<double>(b.hi), b.mass});
  }
  AppendTriples(os, "nnz_histogram", triples);
  os << ",\n";
  triples.clear();
  for (const RankBand& b : p.rank_bands) {
    triples.push_back({static_cast<double>(b.rank_lo), static_cast<double>(b.rank_hi), b.mass});
  }
  AppendTriples(os, "rank_bands", triples);
  os << "\n}\n";
  return os.str();
}

Result<SparsityProfile> MeasureSparsityProfile(const std::vector<Example>& examples,
                                               std::string name) {
  SparsityProfile p;
  p.name = std::move(name);

  std::unordered_map<uint32_t, uint64_t> freq;
  uint64_t occurrences = 0;
  uint64_t positives = 0;
  uint32_t max_index = 0;
  uint32_t max_nnz = 0;
  bool binary = true;
  for (const Example& ex : examples) {
    if (ex.y > 0) ++positives;
    max_nnz = std::max(max_nnz, static_cast<uint32_t>(ex.x.nnz()));
    for (size_t i = 0; i < ex.x.nnz(); ++i) {
      ++freq[ex.x.index(i)];
      ++occurrences;
      max_index = std::max(max_index, ex.x.index(i));
      binary = binary && ex.x.value(i) == 1.0f;
    }
  }
  if (occurrences == 0) {
    return Status::InvalidArgument("cannot measure a profile from an all-empty dataset");
  }
  p.dimension = max_index + 1;
  p.positive_fraction = static_cast<double>(positives) / static_cast<double>(examples.size());
  p.binary_values = binary;

  // Geometric nnz buckets [1,1], [2,2], [3,4], [5,8], ... — fine where most
  // of the mass is, coarse in the tail.
  for (uint32_t lo = 1, hi = 1; lo <= max_nnz; lo = hi + 1, hi = 2 * hi) {
    uint64_t count = 0;
    for (const Example& ex : examples) {
      const uint32_t n = static_cast<uint32_t>(ex.x.nnz());
      if (n >= lo && n <= hi) ++count;
    }
    if (count > 0) {
      p.nnz_histogram.push_back(
          {lo, std::min(hi, max_nnz),
           static_cast<double>(count) / static_cast<double>(examples.size())});
    }
  }
  // Empty examples (nnz = 0) carry no occurrences; fold their mass into the
  // smallest bucket so the histogram still sums to 1.
  if (!p.nnz_histogram.empty()) {
    const double sum = MassSum(p.nnz_histogram);
    if (sum < 1.0) p.nnz_histogram.front().mass += 1.0 - sum;
  }

  // Frequency ranks: sort features by descending count, then carve
  // power-of-two bands [0,1), [1,2), [2,4), ...
  std::vector<uint64_t> counts;
  counts.reserve(freq.size());
  for (const auto& [feature, count] : freq) counts.push_back(count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  for (uint32_t lo = 0, hi = 1; lo < counts.size(); lo = hi, hi = 2 * hi) {
    const uint32_t end = std::min<uint32_t>(hi, static_cast<uint32_t>(counts.size()));
    uint64_t band = 0;
    for (uint32_t r = lo; r < end; ++r) band += counts[r];
    p.rank_bands.push_back(
        {lo, end, static_cast<double>(band) / static_cast<double>(occurrences)});
  }

  WMS_RETURN_NOT_OK(p.Validate());
  return p;
}

SparsityReplayGen::SparsityReplayGen(const SparsityProfile& profile, uint64_t seed)
    : profile_(profile), rng_(seed) {
  double acc = 0.0;
  for (const NnzBucket& b : profile_.nnz_histogram) nnz_cdf_.push_back(acc += b.mass);
  const double nnz_total = acc;
  for (double& c : nnz_cdf_) c /= nnz_total;
  acc = 0.0;
  for (const RankBand& b : profile_.rank_bands) band_cdf_.push_back(acc += b.mass);
  const double band_total = acc;
  for (double& c : band_cdf_) c /= band_total;
}

uint32_t SparsityReplayGen::DrawNnz() {
  const double u = rng_.NextDouble();
  size_t i = std::lower_bound(nnz_cdf_.begin(), nnz_cdf_.end(), u) - nnz_cdf_.begin();
  if (i >= nnz_cdf_.size()) i = nnz_cdf_.size() - 1;
  const NnzBucket& b = profile_.nnz_histogram[i];
  const uint32_t hi = std::min(b.hi, profile_.dimension);
  const uint32_t lo = std::min(b.lo, hi);
  return lo + static_cast<uint32_t>(rng_.Bounded(hi - lo + 1));
}

uint32_t SparsityReplayGen::DrawFeature() {
  const double u = rng_.NextDouble();
  size_t i = std::lower_bound(band_cdf_.begin(), band_cdf_.end(), u) - band_cdf_.begin();
  if (i >= band_cdf_.size()) i = band_cdf_.size() - 1;
  const RankBand& b = profile_.rank_bands[i];
  // Rank → feature id is the identity: replayed id r is the r-th most
  // frequent feature. Uniform within a band — the bands carry the skew.
  return b.rank_lo + static_cast<uint32_t>(rng_.Bounded(b.rank_hi - b.rank_lo));
}

Example SparsityReplayGen::Next() {
  const uint32_t nnz = DrawNnz();
  scratch_features_.clear();
  // Rejection-sample distinct features; nnz <= dimension by DrawNnz's clamp,
  // and real profiles have nnz ≪ dimension so collisions are rare.
  while (scratch_features_.size() < nnz) {
    const uint32_t f = DrawFeature();
    if (std::find(scratch_features_.begin(), scratch_features_.end(), f) ==
        scratch_features_.end()) {
      scratch_features_.push_back(f);
    }
  }
  std::sort(scratch_features_.begin(), scratch_features_.end());
  std::vector<float> values(scratch_features_.size());
  for (float& v : values) {
    if (profile_.binary_values) {
      v = 1.0f;
    } else {
      float m = static_cast<float>(std::fabs(rng_.NextGaussian()));
      if (m == 0.0f) m = 1.0f;  // keep the vector's nnz exact
      v = m;
    }
  }
  const int8_t y = rng_.Bernoulli(profile_.positive_fraction) ? 1 : -1;
  return Example{SparseVector(std::vector<uint32_t>(scratch_features_), std::move(values)), y};
}

}  // namespace wmsketch
