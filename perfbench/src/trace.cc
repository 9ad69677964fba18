#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

std::unordered_map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    const int64_t lo = std::max(s.start_ns, parent->second->start_ns);
    const int64_t hi = std::min(s.end_ns, parent->second->end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::unordered_map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = iv.front().first;
      int64_t cur_hi = iv.front().second;
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first <= cur_hi) {
          cur_hi = std::max(cur_hi, iv[i].second);
        } else {
          covered += cur_hi - cur_lo;
          cur_lo = iv[i].first;
          cur_hi = iv[i].second;
        }
      }
      covered += cur_hi - cur_lo;
    }
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(buffers_.size() + 1));
  return buffers_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans().begin(), b->spans().end());
  return all;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"trace\": %llu, \"items\": %llu}}",
                 i == 0 ? "" : ",", s.name, static_cast<unsigned long long>(s.id >> 40),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.items));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

SpanTotals TotalsFor(const std::vector<Span>& spans,
                     const std::unordered_map<uint64_t, int64_t>& self, const char* name) {
  SpanTotals t;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    ++t.count;
    const auto it = self.find(s.id);
    t.self_ns += it == self.end() ? s.duration_ns() : it->second;
    t.items += s.items;
    t.durations_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
  }
  return t;
}

}  // namespace perfbench
