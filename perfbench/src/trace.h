#pragma once

// Spans the harness records around its own calls into each layer (core,
// engine, net, dist). Spans live in per-thread buffers, so recording takes
// no lock; they are collected after the threads join and written out when
// the run ends. With tracing off the harness passes a null buffer and a
// ScopedSpan does nothing.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  /// The span that caused this one (0: a root).
  uint64_t parent = 0;
  /// Spans of one request share this identifier (0: not a request).
  uint64_t trace = 0;
  /// Layer-qualified name, e.g. "engine.SyncNow"; a string literal.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Work the span covered (examples, requests), for per-item rates.
  uint64_t items = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover (children clipped to the parent; overlapping children
/// counted once). Keyed by span id.
std::unordered_map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

class Tracer {
 public:
  /// One thread's span buffer. Ids are unique across buffers.
  class Buffer {
   public:
    explicit Buffer(uint64_t thread_index) : next_id_(thread_index << 40) {}
    uint64_t NextId() { return ++next_id_; }
    void Add(const Span& span) { spans_.push_back(span); }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    uint64_t next_id_;
    std::vector<Span> spans_;
  };

  /// A new buffer for the calling thread (call once per thread).
  Buffer* NewBuffer();

  /// Every span recorded so far; call after the recording threads joined.
  std::vector<Span> Collect() const;

  /// Writes the spans as Chrome trace-event JSON. False on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records one span from construction to destruction into `buffer` (no-op
/// when null).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, const char* name, uint64_t parent = 0, uint64_t items = 0)
      : buffer_(buffer) {
    if (buffer_ == nullptr) return;
    span_.id = buffer_->NextId();
    span_.parent = parent;
    span_.name = name;
    span_.items = items;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    span_.end_ns = NowNs();
    buffer_->Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer::Buffer* buffer_;
  Span span_;
};

/// Per-layer figures derived from a span set, by span name.
struct SpanTotals {
  size_t count = 0;
  int64_t self_ns = 0;
  uint64_t items = 0;
  /// Each span's duration in microseconds.
  std::vector<double> durations_us;
};
SpanTotals TotalsFor(const std::vector<Span>& spans,
                     const std::unordered_map<uint64_t, int64_t>& self, const char* name);

}  // namespace perfbench
