#pragma once

// Spans for the benchmark's traced pass, and the delegating timers that
// record them on the agent's public seams (route_programmer_factory,
// socket_stats_factory, the post-poll hook). The timers only observe: they
// forward every call unchanged, draw no random numbers, and read
// std::chrono::steady_clock. The one extra call, RoutingTable::find_route
// before a program, is a read that decides whether the program was useful.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "cdn/experiment.h"
#include "core/agent.h"
#include "core/route_programmer.h"
#include "core/socket_stats_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Layer names, after the src/ modules whose calls the spans wrap.
inline constexpr std::string_view kPollSpan = "core.poll";
inline constexpr std::string_view kSnapshotSpan = "host.ss_snapshot";
inline constexpr std::string_view kProgramSpan = "core.program";

// One timed interval at a layer boundary. `value` is a per-span count: the
// rows a snapshot returned, or 1 for a program that changed the table.
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same run's spans; -1: top level
  std::int32_t run = 0;
  std::uint64_t value = 0;
};

// The spans of one experiment run, kept in memory. A span opened while
// another is open becomes its child. One run is confined to one thread, so
// there is no locking.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::int32_t run) : run_(run) {}

  std::size_t open(std::string_view name) {
    const std::int32_t parent =
        open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    spans_.push_back(Span{name, now_ns(), 0, parent, run_, 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  // Closes span `id` and every span opened inside it that is still open.
  void close(std::size_t id, std::uint64_t value = 0) {
    const std::int64_t end = now_ns();
    while (!open_.empty() && open_.back() >= id) {
      spans_[open_.back()].end_ns = end;
      open_.pop_back();
    }
    spans_[id].value = value;
  }

  // Closes the innermost open span named `name`, if any.
  void close_named(std::string_view name) {
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (spans_[*it].name == name) {
        close(*it);
        return;
      }
    }
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  std::int32_t run_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Closes a span when the wrapped call returns or throws.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& spans, std::string_view name)
      : spans_(spans), id_(spans.open(name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { spans_.close(id_, value); }

  std::uint64_t value = 0;

 private:
  SpanRecorder& spans_;
  std::size_t id_;
};

// Self time of each span: its duration minus the part of its interval its
// direct children cover, overlapping children counted once. `spans` are
// one run's, parents indexing into the same vector.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union counted so far
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, reach);
      const std::int64_t to = std::min(hi, s.end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

// The agent's `ss` surface, timed. The poll span starts at the snapshot
// call and is closed by the post-poll hook (see hook_agents).
class TimedSocketStats final : public riptide::core::SocketStatsSource {
 public:
  TimedSocketStats(riptide::host::Host& host, SpanRecorder& spans)
      : inner_(host), spans_(spans) {}

  std::vector<riptide::host::SocketInfo> poll() override {
    spans_.open(kPollSpan);
    ScopedSpan span(spans_, kSnapshotSpan);
    std::vector<riptide::host::SocketInfo> rows = inner_.poll();
    span.value = rows.size();
    return rows;
  }

 private:
  riptide::core::HostSocketStatsSource inner_;
  SpanRecorder& spans_;
};

// The agent's actuator, timed. A program counts as useful when it changes
// what the table holds for exactly that prefix.
class TimedRouteProgrammer final : public riptide::core::RouteProgrammer {
 public:
  TimedRouteProgrammer(riptide::host::Host& host, SpanRecorder& spans)
      : host_(host), inner_(host), spans_(spans) {}

  void set_initial_windows(
      const riptide::net::Prefix& dst, std::uint32_t initcwnd_segments,
      std::uint32_t initrwnd_segments,
      riptide::tcp::RouteCc cc = riptide::tcp::RouteCc::kUnset) override {
    const riptide::host::RouteEntry* live =
        host_.routing_table().find_route(dst);
    const riptide::host::RouteMetrics wanted{initcwnd_segments,
                                             initrwnd_segments, cc};
    ScopedSpan span(spans_, kProgramSpan);
    span.value = (live == nullptr || !(live->metrics == wanted)) ? 1 : 0;
    inner_.set_initial_windows(dst, initcwnd_segments, initrwnd_segments, cc);
  }

  void clear(const riptide::net::Prefix& dst) override {
    const bool present = host_.routing_table().find_route(dst) != nullptr;
    ScopedSpan span(spans_, kProgramSpan);
    span.value = present ? 1 : 0;
    inner_.clear(dst);
  }

 private:
  riptide::host::Host& host_;
  riptide::core::HostRouteProgrammer inner_;
  SpanRecorder& spans_;
};

// Installs the timers through the config's factory seams. `spans` must
// outlive the experiment built from `config`.
inline void instrument(riptide::cdn::ExperimentConfig& config,
                       SpanRecorder& spans) {
  config.route_programmer_factory =
      [&spans](riptide::cdn::Experiment&, riptide::host::Host& host)
      -> std::unique_ptr<riptide::core::RouteProgrammer> {
    return std::make_unique<TimedRouteProgrammer>(host, spans);
  };
  config.socket_stats_factory =
      [&spans](riptide::cdn::Experiment&, riptide::host::Host& host)
      -> std::unique_ptr<riptide::core::SocketStatsSource> {
    return std::make_unique<TimedSocketStats>(host, spans);
  };
}

// Ends each poll span in the agent's post-poll hook. A poll that exits
// before its snapshot opened no span and closes none.
inline void hook_agents(riptide::cdn::Experiment& experiment,
                        SpanRecorder& spans) {
  for (const auto& agent : experiment.agents()) {
    agent->set_post_poll_hook(
        [&spans](riptide::core::RiptideAgent&,
                 const riptide::core::PollOutcome&) {
          spans.close_named(kPollSpan);
        });
  }
}

}  // namespace perfbench
