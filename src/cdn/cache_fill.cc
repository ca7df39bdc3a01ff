#include "cdn/cache_fill.h"

#include <algorithm>

#include "cdn/probe.h"

namespace riptide::cdn {

CacheFillWorkload::CacheFillWorkload(sim::Simulator& sim, host::Host& edge,
                                     int edge_pop, host::Host& origin,
                                     int origin_pop, double base_rtt_ms,
                                     CacheFillConfig config,
                                     MetricsCollector& metrics, sim::Rng& rng)
    : sim_(sim),
      edge_(edge),
      edge_pop_(edge_pop),
      origin_(origin),
      origin_pop_(origin_pop),
      base_rtt_ms_(base_rtt_ms),
      config_(config),
      metrics_(metrics),
      rng_(rng),
      popularity_(config.catalog_size, config.zipf_exponent),
      cache_(config.cache_capacity_bytes) {}

std::uint64_t CacheFillWorkload::object_bytes(std::uint64_t id) const {
  // Deterministic per-id size: each object's size is a fixed draw from the
  // catalog distribution, independent of request order and run seed.
  sim::Rng id_rng(id * 0x9e3779b97f4a7c15ULL + 12345);
  const std::uint64_t raw = config_.sizes.sample(id_rng);
  // The fetch protocol encodes size / scale in the request length, so
  // round up to the scale (>= one unit).
  const std::uint64_t units = std::max<std::uint64_t>(
      1, (raw + ProbeServer::kScale - 1) / ProbeServer::kScale);
  // Cap at what one request segment can name.
  return std::min<std::uint64_t>(units, 1400) * ProbeServer::kScale;
}

void CacheFillWorkload::start() {
  if (started_) return;
  started_ = true;
  schedule_next_request();
}

void CacheFillWorkload::schedule_next_request() {
  const auto delay = sim::Time::from_seconds(
      rng_.exponential(config_.mean_interarrival_seconds));
  sim_.schedule(delay, [this] {
    on_request();
    schedule_next_request();
  });
}

bool CacheFillWorkload::fetch_in_flight(std::uint64_t id) const {
  for (const auto& fetch : fetches_) {
    if (!fetch->done && fetch->id == id) return true;
  }
  return false;
}

void CacheFillWorkload::on_request() {
  ++requests_;
  const std::uint64_t id = popularity_.sample(rng_);
  if (cache_.lookup(id)) return;           // hit: served from the edge
  if (fetch_in_flight(id)) return;         // request coalescing
  start_fetch(id);
}

tcp::TcpConnection::Callbacks CacheFillWorkload::callbacks_for(
    std::shared_ptr<ConnCtx> ctx) {
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_established = [ctx] {
    if (ctx->dead || ctx->owner == nullptr) return;
    ctx->conn->send(ctx->owner->bytes / ProbeServer::kScale);
  };
  cbs.on_data = [this, ctx](std::uint64_t bytes) {
    if (ctx->dead || ctx->owner == nullptr) return;
    Fetch& fetch = *ctx->owner;
    fetch.received += bytes;
    if (fetch.received >= fetch.bytes) finish_fetch(fetch);
  };
  cbs.on_closed = [this, ctx](bool /*reset*/) {
    ctx->dead = true;
    ctx->conn = nullptr;
    if (ctx->owner != nullptr) {
      ctx->owner->done = true;  // fetch lost; a future request retries
      ctx->owner = nullptr;
    }
    if (pooled_ == ctx) pooled_.reset();
  };
  return cbs;
}

void CacheFillWorkload::start_fetch(std::uint64_t id) {
  auto fetch = std::make_unique<Fetch>();
  fetch->id = id;
  fetch->bytes = object_bytes(id);
  fetch->started = sim_.now();

  const bool can_reuse = pooled_ != nullptr && !pooled_->dead &&
                         pooled_->conn != nullptr &&
                         pooled_->conn->established() &&
                         !pooled_->conn->close_requested() &&
                         pooled_->owner == nullptr;
  if (can_reuse) {
    fetch->ctx = pooled_;
    pooled_.reset();
    fetch->ctx->owner = fetch.get();
    fetch->fresh = false;
    fetch->ctx->conn->send(fetch->bytes / ProbeServer::kScale);
  } else {
    auto ctx = std::make_shared<ConnCtx>();
    ctx->owner = fetch.get();
    fetch->ctx = ctx;
    fetch->fresh = true;
    ctx->conn = &edge_.connect(origin_.address(), ProbeServer::kPort,
                               callbacks_for(ctx));
  }
  fetches_.push_back(std::move(fetch));

  // Bound the bookkeeping: drop completed records from the front.
  while (fetches_.size() > 256 && fetches_.front()->done) {
    fetches_.pop_front();
  }
}

void CacheFillWorkload::finish_fetch(Fetch& fetch) {
  fetch.done = true;
  ++fetches_completed_;
  cache_.insert(fetch.id, fetch.bytes);

  FlowRecord record;
  record.src_pop = edge_pop_;
  record.dst_pop = origin_pop_;
  record.object_bytes = fetch.bytes;
  record.started = fetch.started;
  record.duration = sim_.now() - fetch.started;
  record.fresh = fetch.fresh;
  record.base_rtt_ms = base_rtt_ms_;
  metrics_.record_flow(record);

  auto ctx = fetch.ctx;
  fetch.ctx.reset();
  if (ctx) {
    ctx->owner = nullptr;
    if (ctx->dead || ctx->conn == nullptr) return;
    if (pooled_ == nullptr) {
      pooled_ = ctx;  // keep one warm origin connection
    } else {
      ctx->conn->close();
    }
  }
}

}  // namespace riptide::cdn
