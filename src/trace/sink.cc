#include "trace/sink.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace riptide::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kTcpState: return "tcp-state";
    case EventKind::kTcpCwnd: return "tcp-cwnd";
    case EventKind::kTcpRto: return "tcp-rto";
    case EventKind::kAgentDecision: return "agent-decision";
    case EventKind::kAgentProgram: return "agent-program";
    case EventKind::kAgentRoute: return "agent-route";
    case EventKind::kAgentRestore: return "agent-restore";
    case EventKind::kAgentRollback: return "agent-rollback";
    case EventKind::kGovernorState: return "governor-state";
    case EventKind::kFault: return "fault";
    case EventKind::kLink: return "link";
  }
  return "?";
}

const char* to_string(CwndCause cause) {
  switch (cause) {
    case CwndCause::kInitcwndSeeded: return "initcwnd-seeded";
    case CwndCause::kSlowStart: return "slowstart";
    case CwndCause::kCongestionAvoidance: return "ca";
    case CwndCause::kFastRetransmit: return "fast-retransmit";
    case CwndCause::kRecoveryExit: return "recovery-exit";
    case CwndCause::kRto: return "rto";
    case CwndCause::kIdleRestart: return "idle-restart";
    case CwndCause::kHystartExit: return "hystart-exit";
    case CwndCause::kBbrProbeRtt: return "bbr-probe-rtt";
    case CwndCause::kPaced: return "paced";
  }
  return "?";
}

const char* to_string(ProgramVerdict verdict) {
  switch (verdict) {
    case ProgramVerdict::kProgrammed: return "programmed";
    case ProgramVerdict::kHysteresisSkip: return "hysteresis-skip";
    case ProgramVerdict::kBudgetShrink: return "budget-shrink";
    case ProgramVerdict::kStageScaleDown: return "stage-scale-down";
  }
  return "?";
}

const char* to_string(RouteCause cause) {
  switch (cause) {
    case RouteCause::kExpired: return "expired";
    case RouteCause::kStalenessDecay: return "staleness-decay";
    case RouteCause::kStalenessWithdraw: return "staleness-withdraw";
    case RouteCause::kReconcileRepair: return "reconcile-repair";
    case RouteCause::kReconcileConflict: return "reconcile-conflict";
    case RouteCause::kReconcileOrphan: return "reconcile-orphan";
    case RouteCause::kRollback: return "rollback";
    case RouteCause::kAdopted: return "adopted";
    case RouteCause::kStageWithdraw: return "stage-withdraw";
    case RouteCause::kBudgetShed: return "budget-shed";
  }
  return "?";
}

const char* to_string(GovernorCause cause) {
  switch (cause) {
    case GovernorCause::kThreshold: return "threshold";
    case GovernorCause::kBudget: return "budget";
    case GovernorCause::kManual: return "manual";
    case GovernorCause::kRecovered: return "recovered";
  }
  return "?";
}

namespace {

// Dotted-quad of a raw address word, matching net::Ipv4Address::to_string
// (trace/ stores raw integers to avoid a dependency cycle with net/).
void format_addr(char* buf, std::size_t n, std::uint32_t addr) {
  std::snprintf(buf, n, "%u.%u.%u.%u", (addr >> 24) & 0xff,
                (addr >> 16) & 0xff, (addr >> 8) & 0xff, addr & 0xff);
}

// "local:port-remote:port", the connection key the report tool groups by.
std::string format_conn(const ConnKey& conn) {
  char local[16], remote[16], buf[48];
  format_addr(local, sizeof local, conn.local_addr);
  format_addr(remote, sizeof remote, conn.remote_addr);
  std::snprintf(buf, sizeof buf, "%s:%u-%s:%u", local, conn.local_port,
                remote, conn.remote_port);
  return buf;
}

std::string format_route(std::uint32_t addr, std::uint8_t len) {
  char a[16], buf[24];
  format_addr(a, sizeof a, addr);
  std::snprintf(buf, sizeof buf, "%s/%u", a, len);
  return buf;
}

std::string format_host(std::uint32_t addr) {
  char a[16];
  format_addr(a, sizeof a, addr);
  return a;
}

// Names for GovernorStateEvent::from/to. Mirrors core::GovernorState by
// value (trace/ cannot include core/ — core depends on trace for its emit
// sites, and the reverse edge would be a cycle).
const char* governor_state_name(std::uint8_t state) {
  switch (state) {
    case 0: return "normal";
    case 1: return "scale-down";
    case 2: return "selective-withdraw";
    case 3: return "cooldown";
  }
  return "?";
}

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::string to_json(const TraceEvent& e) {
  std::string out;
  out.reserve(192);
  append(out, "{\"at\":%lld,\"seq\":%llu,\"kind\":\"%s\"",
         static_cast<long long>(e.at_ns),
         static_cast<unsigned long long>(e.seq), to_string(e.kind));
  switch (e.kind) {
    case EventKind::kTcpState:
      append(out, ",\"conn\":\"%s\",\"from\":%u,\"to\":%u",
             format_conn(e.tcp_state.conn).c_str(), e.tcp_state.from,
             e.tcp_state.to);
      break;
    case EventKind::kTcpCwnd:
      append(out,
             ",\"conn\":\"%s\",\"cause\":\"%s\",\"cwnd\":%llu,"
             "\"ssthresh\":%llu,\"mss\":%u",
             format_conn(e.tcp_cwnd.conn).c_str(), to_string(e.tcp_cwnd.cause),
             static_cast<unsigned long long>(e.tcp_cwnd.cwnd_bytes),
             static_cast<unsigned long long>(e.tcp_cwnd.ssthresh_bytes),
             e.tcp_cwnd.mss);
      break;
    case EventKind::kTcpRto:
      append(out, ",\"conn\":\"%s\",\"rto_ns\":%lld,\"retries\":%u",
             format_conn(e.tcp_rto.conn).c_str(),
             static_cast<long long>(e.tcp_rto.rto_ns), e.tcp_rto.retries);
      break;
    case EventKind::kAgentDecision:
      append(out,
             ",\"host\":\"%s\",\"route\":\"%s\",\"samples\":%u,"
             "\"combined\":%.17g,\"folded\":%.17g,\"final\":%.17g,"
             "\"trend_reset\":%u,\"capped\":%u",
             format_host(e.decision.host).c_str(),
             format_route(e.decision.route_addr, e.decision.route_len).c_str(),
             e.decision.samples, e.decision.combined, e.decision.folded,
             e.decision.final_window, e.decision.trend_reset,
             e.decision.capped);
      break;
    case EventKind::kAgentProgram:
      append(out,
             ",\"host\":\"%s\",\"route\":\"%s\",\"verdict\":\"%s\","
             "\"scale\":%.17g,\"initcwnd\":%u,\"initrwnd\":%u",
             format_host(e.program.host).c_str(),
             format_route(e.program.route_addr, e.program.route_len).c_str(),
             to_string(e.program.verdict), e.program.scale, e.program.initcwnd,
             e.program.initrwnd);
      break;
    case EventKind::kAgentRoute:
      append(out,
             ",\"host\":\"%s\",\"route\":\"%s\",\"cause\":\"%s\","
             "\"window\":%.17g",
             format_host(e.route.host).c_str(),
             format_route(e.route.route_addr, e.route.route_len).c_str(),
             to_string(e.route.cause), e.route.window);
      break;
    case EventKind::kAgentRestore:
      append(out,
             ",\"host\":\"%s\",\"source\":\"%s\",\"reinstalled\":%u,"
             "\"records\":%u,\"generation\":%u",
             format_host(e.restore.host).c_str(),
             e.restore.from_checkpoint ? "checkpoint" : "memory",
             e.restore.reinstalled, e.restore.records, e.restore.generation);
      break;
    case EventKind::kAgentRollback:
      append(out, ",\"host\":\"%s\",\"routes\":%u",
             format_host(e.rollback.host).c_str(), e.rollback.routes);
      break;
    case EventKind::kGovernorState:
      append(out,
             ",\"host\":\"%s\",\"from\":\"%s\",\"to\":\"%s\","
             "\"cause\":\"%s\",\"retrans_fraction\":%.17g,\"routes\":%u",
             format_host(e.governor.host).c_str(),
             governor_state_name(e.governor.from),
             governor_state_name(e.governor.to), to_string(e.governor.cause),
             e.governor.retrans_fraction, e.governor.routes);
      break;
    case EventKind::kFault:
      append(out,
             ",\"fault\":\"%s\",\"restored\":%u,\"pop_a\":%u,\"pop_b\":%u,"
             "\"host_index\":%d,\"value\":%.17g,\"duration_ns\":%lld",
             e.fault.label != nullptr ? e.fault.label : "?", e.fault.restored,
             e.fault.pop_a, e.fault.pop_b, e.fault.host_index, e.fault.value,
             static_cast<long long>(e.fault.duration_ns));
      break;
    case EventKind::kLink: {
      char name[sizeof e.link.name + 1];
      std::memcpy(name, e.link.name, sizeof e.link.name);
      name[sizeof e.link.name] = '\0';
      append(out, ",\"link\":\"%s\",\"up\":%u", name, e.link.up);
      break;
    }
  }
  out += '}';
  return out;
}

TraceSink::TraceSink(const TraceConfig& config) {
  ring_.resize(config.ring_capacity > 0 ? config.ring_capacity : 1);
}

void TraceSink::emit(TraceEvent event) {
  event.seq = emitted_++;
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) ++count_;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const std::size_t start = (head_ + ring_.size() - count_) % ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string TraceSink::to_jsonl() const {
  std::string out;
  out.reserve(count_ * 160 + 64);
  char meta[96];
  std::snprintf(meta, sizeof meta,
                "{\"kind\":\"trace-meta\",\"emitted\":%llu,\"dropped\":%llu}\n",
                static_cast<unsigned long long>(emitted()),
                static_cast<unsigned long long>(dropped()));
  out += meta;
  for (const TraceEvent& e : events()) {
    out += to_json(e);
    out += '\n';
  }
  return out;
}

bool TraceSink::write_jsonl(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  const std::string body = to_jsonl();
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(file);
}

}  // namespace riptide::trace
