#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {
std::atomic<std::uint64_t> g_next_tracer_id{1};

/// The calling thread's buffer for the tracer with id `owner`.
struct LocalSlot {
  std::uint64_t owner{0};
  void* buffer{nullptr};
};
thread_local LocalSlot tl_slot;
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  if (tl_slot.owner != id_) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1 << 16);  // keep reallocation off the timed path
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
    tl_slot = LocalSlot{id_, buffers_.back().get()};
  }
  return *static_cast<Buffer*>(tl_slot.buffer);
}

std::uint32_t Tracer::open(const char* name, std::uint64_t request,
                           std::uint32_t parent, std::int64_t start_ns) {
  if (!enabled_) return kNoSpan;
  Buffer& buffer = local();
  buffer.spans.push_back(Span{name, request, start_ns, start_ns, parent});
  return static_cast<std::uint32_t>(buffer.spans.size() - 1);
}

void Tracer::close(std::uint32_t span, std::int64_t end_ns) {
  if (span == kNoSpan) return;
  local().spans[span].end_ns = end_ns;
}

std::vector<std::int64_t> Tracer::self_times(const Buffer& buffer) {
  const auto& spans = buffer.spans;
  // Child intervals grouped by parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_parent;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoSpan) by_parent.emplace_back(spans[i].parent, i);
  }
  std::sort(by_parent.begin(), by_parent.end(), [&](auto a, auto b) {
    return a.first != b.first ? a.first < b.first
                              : spans[a.second].start_ns < spans[b.second].start_ns;
  });
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (std::size_t i = 0; i < by_parent.size();) {
    const std::uint32_t p = by_parent[i].first;
    const Span& parent = spans[p];
    std::int64_t covered = 0;
    std::int64_t cursor = parent.start_ns;
    for (; i < by_parent.size() && by_parent[i].first == p; ++i) {
      const Span& child = spans[by_parent[i].second];
      const std::int64_t lo = std::max(child.start_ns, cursor);
      const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[p] -= covered;
  }
  return self;
}

std::map<std::string, Tracer::NameStats> Tracer::summarize() const {
  std::map<std::string, NameStats> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    const auto self = self_times(*buffer);
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      NameStats& stats = out[s.name];
      stats.dur_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      stats.self_us.push_back(static_cast<double>(self[i]) / 1e3);
    }
  }
  return out;
}

std::size_t Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "request\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
  std::size_t written = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    const auto self = self_times(*buffer);
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      std::fprintf(f, "%llu\t%s\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.request), s.name,
                   s.parent == kNoSpan ? "-" : buffer->spans[s.parent].name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

}  // namespace perfbench
