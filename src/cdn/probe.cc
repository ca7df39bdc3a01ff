#include "cdn/probe.h"

#include <utility>

namespace riptide::cdn {

std::vector<ProbeSpec> default_probe_specs() {
  return {ProbeSpec{10 * 1000}, ProbeSpec{50 * 1000}, ProbeSpec{100 * 1000}};
}

namespace {

// The one-segment request whose length names `spec`'s object.
std::uint32_t request_bytes_for(const ProbeSpec& spec) {
  return static_cast<std::uint32_t>(spec.object_bytes / ProbeServer::kScale);
}

}  // namespace

// ---------------------------------------------------------------- server

ProbeServer::ProbeServer(host::Host& host) : host_(host) {}

void ProbeServer::start() {
  if (started_) return;
  started_ = true;
  host_.listen(kPort, [this](tcp::TcpConnection& conn) {
    tcp::TcpConnection::Callbacks cbs;
    // Clients never pipeline, so every in-order delivery is one request
    // whose length names the object size.
    cbs.on_data = [this, &conn](std::uint64_t bytes) {
      ++objects_served_;
      const std::uint64_t object = bytes * kScale;
      bytes_served_ += object;
      conn.send(object);
    };
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });
}

// ---------------------------------------------------------------- client

ProbeClient::ProbeClient(sim::Simulator& sim, host::Host& host, int src_pop,
                         std::vector<ProbeTarget> targets,
                         ProbeClientConfig config, MetricsCollector& metrics,
                         sim::Rng& rng)
    : sim_(sim),
      host_(host),
      src_pop_(src_pop),
      config_(std::move(config)),
      metrics_(metrics),
      rng_(rng) {
  const std::vector<ProbeSpec> specs = default_probe_specs();
  for (const auto& target : targets) {
    Round round;
    for (const auto& spec : specs) {
      Task task;
      task.target = target;
      task.spec = spec;
      tasks_.push_back(std::move(task));
      round.tasks.push_back(&tasks_.back());
    }
    rounds_.push_back(std::move(round));
  }
}

void ProbeClient::start() {
  if (started_) return;
  started_ = true;
  for (auto& round : rounds_) {
    // Stagger the mesh so different targets' rounds don't synchronize.
    const auto offset = sim::Time::from_seconds(
        rng_.uniform(0.0, config_.interval.to_seconds()));
    sim_.schedule(offset, [this, &round] {
      fire_round(round);
      schedule_next(round);
    });
  }
}

void ProbeClient::schedule_next(Round& round) {
  const double jitter =
      rng_.uniform(1.0 - kIntervalJitter, 1.0 + kIntervalJitter);
  sim_.schedule(
      sim::Time::from_seconds(config_.interval.to_seconds() * jitter),
      [this, &round] {
        fire_round(round);
        schedule_next(round);
      });
}

void ProbeClient::fire_round(Round& round) {
  // Fisher-Yates shuffle of the firing order: whichever flavour goes first
  // claims the idle pooled connection this round.
  std::vector<Task*> order = round.tasks;
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  for (Task* task : order) fire(*task);
}

tcp::TcpConnection::Callbacks ProbeClient::callbacks_for(
    std::shared_ptr<ConnState> st) {
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_established = [this, st] {
    if (st->dead || st->owner == nullptr) return;
    st->conn->send(request_bytes_for(st->owner->spec));
  };
  cbs.on_data = [this, st](std::uint64_t bytes) {
    if (st->dead || st->owner == nullptr) return;
    Task& task = *st->owner;
    task.received += bytes;
    if (task.received >= task.spec.object_bytes) complete(task);
  };
  cbs.on_closed = [this, st](bool /*reset*/) {
    st->dead = true;
    st->conn = nullptr;
    st->idle_timer.cancel();
    if (st->owner != nullptr) {
      // Connection died mid-probe: the probe is lost, free the task.
      Task& task = *st->owner;
      st->owner = nullptr;
      task.active.reset();
      task.busy = false;
      ++failed_;
    }
    const auto it = pool_.find(st->target.value());
    if (it != pool_.end() && it->second == st) pool_.erase(it);
  };
  return cbs;
}

void ProbeClient::fire(Task& task) {
  if (task.busy) {
    // Previous probe still in flight (severe congestion); skip this round
    // rather than pipeline probes.
    ++skipped_busy_;
    return;
  }
  task.busy = true;
  task.received = 0;
  task.started = sim_.now();
  ++issued_;

  // Reuse the target's idle pooled connection when it is healthy and idle.
  const auto it = pool_.find(task.target.address.value());
  if (it != pool_.end()) {
    auto st = it->second;
    if (!st->dead && st->conn != nullptr && st->conn->established() &&
        !st->conn->close_requested() && st->conn->bytes_in_flight() == 0 &&
        st->owner == nullptr) {
      pool_.erase(it);
      st->idle_timer.cancel();
      st->owner = &task;
      task.active = st;
      task.fresh = false;
      ++reused_;
      st->conn->send(request_bytes_for(task.spec));
      return;
    }
    // Unhealthy slot: drop it from the pool and let it die on its own.
    pool_.erase(it);
  }
  open_fresh(task);
}

void ProbeClient::open_fresh(Task& task) {
  auto st = std::make_shared<ConnState>();
  st->target = task.target.address;
  st->owner = &task;
  task.active = st;
  task.fresh = true;
  ++fresh_opened_;
  st->conn = &host_.connect(task.target.address, ProbeServer::kPort,
                            callbacks_for(st));
}

void ProbeClient::complete(Task& task) {
  FlowRecord record;
  record.src_pop = src_pop_;
  record.dst_pop = task.target.pop;
  record.object_bytes = task.spec.object_bytes;
  record.started = task.started;
  record.duration = sim_.now() - task.started;
  record.fresh = task.fresh;
  record.base_rtt_ms = task.target.base_rtt_ms;
  metrics_.record_flow(record);
  ++completed_;

  auto st = task.active;
  task.active.reset();
  task.busy = false;
  task.received = 0;
  if (st) {
    st->owner = nullptr;
    release_to_pool(std::move(st));
  }
}

std::size_t ProbeClient::probes_in_flight() const {
  std::size_t busy = 0;
  for (const auto& task : tasks_) {
    if (task.busy) ++busy;
  }
  return busy;
}

std::size_t ProbeClient::stalled_probes() const {
  // A busy task whose connection is gone (or known dead) will never see
  // on_data or on_closed again: the probe is silently wedged. on_closed
  // frees the task on every teardown path, so any nonzero count here is a
  // lost-callback bug.
  std::size_t stalled = 0;
  for (const auto& task : tasks_) {
    if (!task.busy) continue;
    if (task.active == nullptr || task.active->dead ||
        task.active->conn == nullptr) {
      ++stalled;
    }
  }
  return stalled;
}

void ProbeClient::release_to_pool(std::shared_ptr<ConnState> st) {
  if (st->dead || st->conn == nullptr) return;
  auto& slot = pool_[st->target.value()];
  if (slot != nullptr && slot != st && !slot->dead) {
    // Pool already holds an idle connection for this target (capacity 1,
    // as in the paper): park the extra one idle — observable by the `ss`
    // poller at its grown window — until its keep-alive lapses.
    st->idle_timer.cancel();
    st->idle_timer = sim_.schedule(config_.extra_linger, [st] {
      if (!st->dead && st->owner == nullptr && st->conn != nullptr) {
        st->conn->close();
      }
    });
    return;
  }
  slot = st;
  // Keep-alive: close the pooled connection if no probe claims it in time.
  st->idle_timer.cancel();
  st->idle_timer = sim_.schedule(config_.idle_close, [st] {
    if (!st->dead && st->owner == nullptr && st->conn != nullptr) {
      st->conn->close();
    }
  });
}

}  // namespace riptide::cdn
