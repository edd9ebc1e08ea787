// Benchmark-side tracing: spans recorded around each public call the
// benchmark makes into a layer. Nothing inside src/ is instrumented.
//
// A span has a name, start, end, parent and request id. Spans are kept in
// per-thread in-memory buffers and written out once, at exit. A span and
// its parent are always recorded on the same thread (each request runs on
// one thread), so a parent is an index into that thread's buffer. A layer's
// self time is its span's duration minus the part of that interval its
// child spans cover. A disabled tracer records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread. `name` must be a string literal.
  /// Returns kNoSpan when disabled.
  std::uint32_t open(const char* name, std::uint64_t request,
                     std::uint32_t parent = kNoSpan,
                     std::int64_t start_ns = now_ns());
  void close(std::uint32_t span, std::int64_t end_ns = now_ns());

  /// Durations and self times in microseconds, per span name. Call once
  /// every recording thread has finished.
  struct NameStats {
    std::vector<double> dur_us;
    std::vector<double> self_us;
  };
  std::map<std::string, NameStats> summarize() const;

  /// Writes every span as TSV: request, name, parent, start_ns, end_ns,
  /// self_ns. Returns the number of spans written.
  std::size_t write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
  };
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local();
  /// Self time of every span of one buffer, in ns.
  static std::vector<std::int64_t> self_times(const Buffer& buffer);

  const bool enabled_;
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span for a call that begins and ends in one scope. A null tracer
/// (an untraced request) records nothing.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, std::uint64_t request,
         std::uint32_t parent = Tracer::kNoSpan)
      : tracer_(tracer),
        span_(tracer != nullptr && tracer->enabled()
                  ? tracer->open(name, request, parent)
                  : Tracer::kNoSpan) {}
  ~Scoped() {
    if (span_ != Tracer::kNoSpan) tracer_->close(span_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint32_t id() const { return span_; }

 private:
  Tracer* const tracer_;
  const std::uint32_t span_;
};

}  // namespace perfbench
