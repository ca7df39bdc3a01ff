// Decision-audit tracing tests (src/trace). Four contracts:
//
//   1. off means OFF: the golden-determinism fingerprint is untouched
//      (shared capture with determinism_test), and turning tracing *on*
//      still leaves the metrics fingerprint untouched — the sink observes
//      the simulation, it never feeds back into it;
//   2. traces are deterministic: byte-identical JSONL across repeat runs
//      and across ParallelRunner thread counts;
//   3. the ring drops the OLDEST events on overflow and reports the drop
//      count honestly;
//   4. the agent's audit trail is coherent: every programmed route has a
//      same-poll decision record whose pipeline values round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cdn/experiment.h"
#include "cdn/golden.h"
#include "persist/crc32.h"
#include "runner/parallel_runner.h"
#include "trace/sink.h"

namespace riptide::cdn {
namespace {

using sim::Time;

// The golden CRC of determinism_test.cc (golden_config() and
// serialize_metrics() live in cdn/golden.h). Duplicated deliberately: each
// suite must fail on its own if the contract breaks.
constexpr std::uint32_t kGoldenCrc = 0x1B61F592;

ExperimentConfig traced_config(std::uint64_t seed = 42) {
  ExperimentConfig config = golden_config(seed);
  config.trace.enabled = true;
  return config;
}

TEST(TraceTest, OffByDefaultAndGoldenUnchanged) {
  ExperimentConfig config = golden_config();
  ASSERT_FALSE(config.trace.enabled);
  Experiment exp(config);
  exp.run();
  EXPECT_EQ(exp.trace_sink(), nullptr);
  EXPECT_EQ(persist::crc32(serialize_metrics(exp)), kGoldenCrc);
}

TEST(TraceTest, TracingOnDoesNotPerturbMetrics) {
  // The sink observes; it must never feed back. Same golden CRC with the
  // full event stream being recorded.
  Experiment exp(traced_config());
  exp.run();
  ASSERT_NE(exp.trace_sink(), nullptr);
  EXPECT_GT(exp.trace_sink()->emitted(), 0u);
  EXPECT_EQ(persist::crc32(serialize_metrics(exp)), kGoldenCrc);
}

TEST(TraceTest, RepeatRunsProduceIdenticalTraces) {
  Experiment first(traced_config());
  first.run();
  Experiment second(traced_config());
  second.run();
  ASSERT_NE(first.trace_sink(), nullptr);
  ASSERT_NE(second.trace_sink(), nullptr);
  EXPECT_EQ(first.trace_sink()->to_jsonl(), second.trace_sink()->to_jsonl());
}

TEST(TraceTest, ThreadCountInvariantTraces) {
  // The per-run event stream must be identical no matter which worker
  // thread the run landed on: the sink is installed thread-locally around
  // run(), so trace order is the simulator's dispatch order, not the
  // pool's interleaving.
  std::vector<std::string> per_thread_jsonl[2];
  for (int t = 0; t < 2; ++t) {
    runner::ParallelRunner runner(t == 0 ? 1u : 2u);
    std::vector<runner::RunSpec> specs;
    specs.push_back({"a", traced_config(42), nullptr});
    specs.push_back({"b", traced_config(43), nullptr});
    auto results = runner.run(std::move(specs));
    ASSERT_EQ(results.size(), 2u);
    for (const auto& r : results) {
      ASSERT_NE(r.experiment->trace_sink(), nullptr);
      per_thread_jsonl[t].push_back(r.experiment->trace_sink()->to_jsonl());
    }
  }
  EXPECT_EQ(per_thread_jsonl[0][0], per_thread_jsonl[1][0]);
  EXPECT_EQ(per_thread_jsonl[0][1], per_thread_jsonl[1][1]);
  // Sanity: different seeds trace differently.
  EXPECT_NE(per_thread_jsonl[0][0], per_thread_jsonl[0][1]);
}

TEST(TraceTest, RingOverflowDropsOldest) {
  trace::TraceConfig config;
  config.enabled = true;
  config.ring_capacity = 4;
  trace::TraceSink sink(config);
  for (int i = 0; i < 10; ++i) {
    trace::TraceEvent ev;
    ev.at_ns = i;
    ev.kind = trace::EventKind::kTcpRto;
    ev.tcp_rto = {{1, 2, 3, 4}, i, static_cast<std::uint32_t>(i)};
    sink.emit(ev);
  }
  EXPECT_EQ(sink.emitted(), 10u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest-first, and the survivors are the NEWEST four (seq 6..9).
    EXPECT_EQ(events[i].seq, 6u + i);
    EXPECT_EQ(events[i].at_ns, static_cast<std::int64_t>(6 + i));
  }
  // The meta line confesses the truncation.
  const std::string jsonl = sink.to_jsonl();
  EXPECT_NE(jsonl.find("\"emitted\":10,\"dropped\":6"), std::string::npos);
}

TEST(TraceTest, DecisionAuditRoundTrip) {
  Experiment exp(traced_config());
  exp.run();
  ASSERT_NE(exp.trace_sink(), nullptr);
  const auto events = exp.trace_sink()->events();

  // Every `programmed` verdict must be explainable: a decision record for
  // the same (host, route) in the same poll (same timestamp), whose final
  // window round-trips into the programmed initcwnd.
  std::size_t programmed = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::TraceEvent& ev = events[i];
    if (ev.kind != trace::EventKind::kAgentProgram ||
        ev.program.verdict != trace::ProgramVerdict::kProgrammed) {
      continue;
    }
    ++programmed;
    bool found = false;
    for (std::size_t j = i; j-- > 0;) {
      const trace::TraceEvent& prev = events[j];
      if (prev.at_ns != ev.at_ns) break;  // left this dispatch instant
      if (prev.kind != trace::EventKind::kAgentDecision) continue;
      if (prev.decision.host != ev.program.host ||
          prev.decision.route_addr != ev.program.route_addr ||
          prev.decision.route_len != ev.program.route_len) {
        continue;
      }
      found = true;
      // The decision's final window is what the programmer asked for
      // (modulo the governor's scale, which this knobs-off run pins at 1).
      EXPECT_DOUBLE_EQ(ev.program.scale, 1.0);
      EXPECT_EQ(ev.program.initcwnd,
                std::max<std::uint32_t>(
                    1, static_cast<std::uint32_t>(
                           std::lround(prev.decision.final_window))));
      EXPECT_GE(prev.decision.final_window, 1.0);
      EXPECT_LE(prev.decision.final_window, 100.0);  // c_max
      break;
    }
    EXPECT_TRUE(found) << "agent-program at " << ev.at_ns
                       << " ns has no same-poll agent-decision";
  }
  EXPECT_GT(programmed, 0u);

  // The jump-start moment is visible: connections created after the first
  // poll carry initcwnd-seeded cwnd events.
  bool seeded = false;
  for (const trace::TraceEvent& ev : events) {
    if (ev.kind == trace::EventKind::kTcpCwnd &&
        ev.tcp_cwnd.cause == trace::CwndCause::kInitcwndSeeded) {
      seeded = true;
      break;
    }
  }
  EXPECT_TRUE(seeded);
}

TEST(TraceTest, EventsAreTotallyOrdered) {
  Experiment exp(traced_config());
  exp.run();
  const auto events = exp.trace_sink()->events();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    // (at_ns, seq) strictly increasing — seq alone increases by
    // construction, and time never goes backwards.
    EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_LE(events[i - 1].at_ns, events[i].at_ns);
  }
}

TEST(TraceTest, JsonlExportShape) {
  Experiment exp(traced_config());
  exp.run();
  const std::string jsonl = exp.trace_sink()->to_jsonl();
  // Meta header first, then one line per retained event.
  ASSERT_EQ(jsonl.rfind("{\"kind\":\"trace-meta\"", 0), 0u);
  std::size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, exp.trace_sink()->size() + 1);
}

}  // namespace
}  // namespace riptide::cdn
