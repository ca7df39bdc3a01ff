// Self-tests of the benchmark itself (perfbench --selftest): self-time
// arithmetic on synthetic spans, span nesting through the recorder, metric
// names, and on a small world that tracing does not perturb the run.

#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what);
}

void self_time_arithmetic() {
  // root [0,100] has children a [10,30], b [20,50] (overlapping a) and
  // d [90,120] (running past root's end); c [12,15] is a's child.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0, 0}, {"a", 10, 30, 0, 0, 0},
      {"b", 20, 50, 0, 0, 0},     {"c", 12, 15, 1, 0, 0},
      {"d", 90, 120, 0, 0, 0},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10, "root self = 100 - union(a,b) - clipped d");
  expect(self[1] == 20 - 3, "a self excludes its child c");
  expect(self[2] == 30, "b self is its duration");
  expect(self[3] == 3, "leaf self is its duration");
  expect(self[4] == 30, "d self is its own duration");
}

void recorder_nesting() {
  SpanRecorder recorder(3);
  recorder.open(kPollSpan);
  const std::size_t snapshot = recorder.open(kSnapshotSpan);
  recorder.close(snapshot, 7);
  recorder.open(kProgramSpan);
  recorder.close_named(kPollSpan);  // closes the program span too
  const std::size_t later = recorder.open(kProgramSpan);
  recorder.close(later);
  const std::vector<Span>& spans = recorder.spans();
  expect(spans.size() == 4, "four spans recorded");
  expect(spans[1].parent == 0 && spans[2].parent == 0,
         "snapshot and program nest in the poll");
  expect(spans[3].parent == -1, "a span after the poll is top level");
  expect(spans[1].value == 7 && spans[0].run == 3, "value and run id kept");
  bool closed = true;
  for (const Span& s : spans) closed = closed && s.end_ns >= s.start_ns;
  expect(closed, "every span closed");
}

void metric_names() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  bool names_ok = true, units_ok = true, unique = true;
  const auto check = [&](const MetricDef& def) {
    names_ok = names_ok && std::regex_match(def.name, name_re);
    units_ok = units_ok && std::regex_match(def.unit, unit_re);
    unique = seen.insert(def.name).second && unique;
  };
  for (const MetricDef& def : kEndToEndMetrics) check(def);
  for (const MetricDef& def : kPerLayerMetrics) check(def);
  expect(names_ok, "metric names match [A-Za-z0-9_.-]+");
  expect(units_ok, "metric units are well formed");
  expect(unique, "metric names are unique");
}

void tracing_does_not_perturb() {
  riptide::cdn::ExperimentConfig config = golden_config(7);
  config.duration = riptide::sim::Time::seconds(20);
  const RunStats plain = run_config(config, RunMode{.probe_routes = true});
  const RunStats traced = run_config(config, RunMode{.traced = true});
  expect(plain.failed_checks.empty() && traced.failed_checks.empty(),
         "small world passes its output checks");
  expect(plain.fingerprint == traced.fingerprint,
         "traced fingerprint equals untraced");
  expect(plain.counts.events == traced.counts.events,
         "tracing adds no simulator events");
  std::size_t polls = 0;
  bool nested = true;
  for (const Span& s : traced.spans.front()) {
    if (s.name == kPollSpan) ++polls;
    if (s.name == kSnapshotSpan) {
      nested = nested && s.parent >= 0 &&
               traced.spans.front()[s.parent].name == kPollSpan;
    }
  }
  expect(polls > 0, "traced run recorded polls");
  expect(nested, "every snapshot nests in a poll");
  expect(plain.routes.mean_routes > 1.0 && plain.routes.lookup_ns > 0.0,
         "route probe saw learned routes");

  config.riptide_enabled = false;
  const RunStats control = run_config(config, RunMode{.traced = true});
  expect(control.spans.front().empty(), "agents off: no core spans");
}

}  // namespace

int run_selftest() {
  self_time_arithmetic();
  recorder_nesting();
  metric_names();
  expect(median({4, 1, 3, 2}) == 2.5, "median interpolates");
  tracing_does_not_perturb();
  expect(golden_fingerprint_ok(), "golden world keeps its fingerprint");
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
