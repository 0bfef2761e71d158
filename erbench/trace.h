// Span recorder of the benchmark's traced run. Spans are recorded from
// the benchmark's own code around its calls into each erlb layer (the
// library itself is not instrumented), kept in memory, and written once
// at the end as Chrome trace-event JSON, which chrome://tracing and
// https://ui.perfetto.dev open directly.
#ifndef ERLB_ERBENCH_TRACE_H_
#define ERLB_ERBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace erbench {

/// Nanoseconds on the monotonic clock every span and latency uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small dense index of the calling thread (the trace viewer's row).
uint32_t ThreadIndex();

/// One finished span. `run` groups the spans of one job or one request;
/// `parent` is the id of the span that caused it (0 = root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t run = 0;
  uint32_t tid = 0;
  /// Counts recorded at the same boundary (emitted as trace args).
  std::vector<std::pair<std::string, double>> counts;
};

/// Thread-safe span store. A disabled tracer records nothing, so the
/// end-to-end runs pay only a branch per layer call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id (also usable as a run id).
  uint64_t NextId();

  /// Stores a finished span; assigns an id if it has none. Returns the id.
  uint64_t Add(Span span);

  size_t size() const;

  /// Writes every span as a complete ("X") trace event; `metadata_json`
  /// (a JSON object) goes under "otherData".
  [[nodiscard]] erlb::Status WriteChromeJson(
      const std::string& path, const std::string& metadata_json) const;

 private:
  const bool enabled_;
  mutable erlb::Mutex mu_;
  uint64_t next_id_ ERLB_GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ ERLB_GUARDED_BY(mu_);
};

/// RAII span around one layer call: starts on construction, stores on
/// destruction (or at End()). Does nothing when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t parent,
             uint64_t run);
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void Count(std::string name, double value);
  void End();

 private:
  Tracer* tracer_;
  Span span_;
  bool open_ = false;
};

}  // namespace erbench

#endif  // ERLB_ERBENCH_TRACE_H_
