#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.h"

namespace riptide::trace {

// Knobs carried by ExperimentConfig (and anything else that owns a traced
// run). Like every hardening/observability knob in this repo, tracing is
// OFF by default and the off state is bit-identical to a build without the
// feature — the golden-determinism suite pins that.
struct TraceConfig {
  bool enabled = false;
  // Ring capacity in events. On overflow the OLDEST events are dropped
  // (the end of a run explains the end of a run; a debugging session that
  // needs the start raises the capacity). Dropped counts are reported so
  // truncation is never silent.
  std::size_t ring_capacity = 1 << 16;
  // When non-empty, the owner writes the JSONL export here after the run.
  // runner::ParallelRunner expands "{label}" and "{index}" so sweeps get
  // per-run files from one config.
  std::string export_path;
};

// Ring-buffered event sink. Single-threaded by design, mirroring
// perf::Counters: a simulation and everything it emits is confined to one
// thread (ParallelRunner workers included), so emit() is a few stores with
// no atomics. Ownership stays with whoever created the sink (usually
// cdn::Experiment); installation into the thread-local slot is scoped and
// never transfers ownership.
class TraceSink {
 public:
  explicit TraceSink(const TraceConfig& config = {});

  // Stamps `event.seq` and stores the event, overwriting the oldest entry
  // when the ring is full.
  void emit(TraceEvent event);

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const {
    return emitted_ - static_cast<std::uint64_t>(size());
  }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }

  // Retained events, oldest first — (at_ns, seq) ascending by
  // construction, since emission order within the owning thread is the
  // simulator's deterministic dispatch order.
  std::vector<TraceEvent> events() const;

  // Exports. JSONL carries a leading meta line
  // {"kind":"trace-meta","emitted":N,"dropped":N} so consumers can tell a
  // complete trace from a truncated one.
  std::string to_jsonl() const;
  // Returns false (and leaves no partial file contract — best effort) when
  // the path cannot be opened.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t count_ = 0;
  std::uint64_t emitted_ = 0;
};

namespace detail {
inline thread_local TraceSink* tls_sink = nullptr;
}

// The sink installed on this thread, or nullptr when tracing is off. Every
// emit site is `if (auto* t = trace::active()) { ... }`: when off, the
// whole feature costs one thread-local load and a branch — no event is
// built, nothing allocates, and (unlike perf counters, which are always
// on) not even a counter is touched.
inline TraceSink* active() { return detail::tls_sink; }

// Installs `sink` (may be nullptr) on this thread; returns the previous
// occupant so callers can restore it.
inline TraceSink* install(TraceSink* sink) {
  TraceSink* previous = detail::tls_sink;
  detail::tls_sink = sink;
  return previous;
}

// RAII installation around a run. Experiment::run uses this so the sink is
// active exactly while the simulation executes on the current (possibly
// worker) thread and never leaks into the next run scheduled there.
class ScopedSink {
 public:
  explicit ScopedSink(TraceSink* sink) : previous_(install(sink)) {}
  ~ScopedSink() { install(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  TraceSink* previous_;
};

}  // namespace riptide::trace
