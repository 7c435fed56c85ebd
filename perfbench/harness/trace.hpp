// Outside-in spans for the traced run.
//
// The program under test is not instrumented: spans wrap the benchmark's
// own calls into each layer's public functions (XbarClient::call through
// the router or directly to a backend, parse_request, render_ok,
// ResultCache get/put, HashRing::plan, the core solvers, the simulator).
// Spans of one client call share its request id; a span names the span
// that caused it by index.  Spans live in preallocated per-thread buffers
// and are written out once, when the run ends, as a Chrome trace-event
// JSON array (loadable in Perfetto or chrome://tracing).

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";       ///< static string: "<layer>.<call>"
  std::uint64_t request = 0;   ///< shared by the spans of one client call
  std::int64_t parent = -1;    ///< index of the causing span in its buffer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans.  Recording never allocates; past capacity spans are
/// counted as dropped.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  /// Append a span; returns its index (or -1 when dropped).
  std::int64_t add(const char* name, std::uint64_t request,
                   std::int64_t parent, Clock::time_point start,
                   Clock::time_point end) noexcept {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, request, parent, to_ns(start), to_ns(end)});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Every buffer of a traced run, written out at exit.
class TraceLog {
 public:
  /// A new buffer for one thread (stable address for the log's lifetime).
  SpanBuffer& buffer(std::size_t capacity);

  [[nodiscard]] std::size_t span_count() const noexcept;
  [[nodiscard]] std::size_t dropped() const noexcept;

  /// Mean duration of the spans named `name`, in milliseconds (0 if none).
  [[nodiscard]] double mean_ms(const char* name) const;

  /// Write a Chrome trace-event array to `path` (directories created).
  /// Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench
