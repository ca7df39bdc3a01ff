#include "cdn/traffic.h"

namespace riptide::cdn {

SinkServer::SinkServer(host::Host& host) : host_(host) {}

void SinkServer::start() {
  if (started_) return;
  started_ = true;
  host_.listen(kPort, [this](tcp::TcpConnection& conn) {
    ++accepted_;
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_data = [this](std::uint64_t bytes) { bytes_received_ += bytes; };
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });
}

OrganicSource::OrganicSource(sim::Simulator& sim, host::Host& host,
                             std::vector<net::Ipv4Address> targets,
                             OrganicSourceConfig config, sim::Rng& rng)
    : sim_(sim), host_(host), config_(config), rng_(rng) {
  for (const auto& target : targets) {
    Pool pool;
    pool.target = target;
    pools_.push_back(pool);
  }
}

void OrganicSource::start() {
  if (started_ || pools_.empty()) return;
  started_ = true;
  schedule_next();
}

void OrganicSource::schedule_next() {
  const auto delay = sim::Time::from_seconds(
      rng_.exponential(config_.mean_interarrival_seconds));
  sim_.schedule(delay, [this] {
    transfer_once();
    schedule_next();
  });
}

void OrganicSource::ensure_connection(Pool& pool) {
  if (pool.conn != nullptr) return;
  const std::uint64_t gen = pool.generation;
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_established = [this, &pool, gen] {
    if (gen != pool.generation) return;
    if (pool.backlog > 0) {
      pool.conn->send(pool.backlog);
      pool.backlog = 0;
      if (pool.close_after_drain) {
        pool.conn->close();
        pool.close_after_drain = false;
      }
    }
  };
  cbs.on_closed = [&pool, gen](bool /*reset*/) {
    if (gen != pool.generation) return;
    pool.conn = nullptr;
    pool.backlog = 0;
    pool.close_after_drain = false;
  };
  pool.conn = &host_.connect(pool.target, SinkServer::kPort, std::move(cbs));
}

void OrganicSource::transfer_once() {
  auto& pool = pools_[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(pools_.size()) - 1))];
  const std::uint64_t size = config_.sizes.sample(rng_);
  ++transfers_;
  bytes_queued_ += size;

  const bool close_after = rng_.bernoulli(config_.close_probability);
  const bool usable = pool.conn != nullptr && pool.conn->established() &&
                      !pool.conn->close_requested();
  if (usable) {
    pool.conn->send(size);
    if (close_after) pool.conn->close();
    return;
  }
  if (pool.conn != nullptr) {
    if (!pool.conn->close_requested() && !pool.conn->closed()) {
      // Still handshaking: fold this transfer into the pending backlog.
      pool.backlog += size;
      return;
    }
    // Draining toward close: disown it and start a fresh connection (its
    // callbacks are invalidated by the generation bump).
    ++pool.generation;
    pool.conn = nullptr;
    pool.backlog = 0;
  }
  pool.backlog += size;
  pool.close_after_drain = close_after;
  ensure_connection(pool);
}

}  // namespace riptide::cdn
