#include "shard/fabric.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>

#include "backend/registry.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/serialization.h"
#include "net/frame.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace condensa::shard {
namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Labels ShardLabels(std::size_t shard) {
  return {{"shard", std::to_string(shard)}};
}

obs::Counter& ConnectsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter("condensa_fabric_connects_total",
                                           ShardLabels(shard));
}

obs::Counter& ReconnectsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_reconnects_total", ShardLabels(shard));
}

obs::Counter& HeartbeatsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_heartbeats_total", ShardLabels(shard));
}

obs::Counter& HeartbeatMissesCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_heartbeat_misses_total", ShardLabels(shard));
}

obs::Counter& RetransmitsCounter(std::size_t shard) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_fabric_rerouted_records_total", ShardLabels(shard));
}

obs::Gauge& PeerUpGauge(std::size_t shard) {
  return obs::DefaultRegistry().GetGauge("condensa_fabric_peer_up",
                                         ShardLabels(shard));
}

obs::Histogram& RpcSeconds(const char* op) {
  return obs::DefaultRegistry().GetHistogram(
      "condensa_fabric_rpc_seconds", {{"op", op}},
      obs::RpcLatencyBucketsSeconds());
}

}  // namespace

Status FabricConfig::Validate() const {
  if (!workers.empty() && num_shards != 0 && num_shards != workers.size()) {
    return InvalidArgumentError(
        "num_shards " + std::to_string(num_shards) + " disagrees with the " +
        std::to_string(workers.size()) + " worker endpoints");
  }
  if (shard_count() == 0) {
    return InvalidArgumentError(
        "give worker endpoints or num_shards >= 1");
  }
  for (const FabricEndpoint& endpoint : workers) {
    if (endpoint.host.empty() || endpoint.port == 0) {
      return InvalidArgumentError(
          "every fabric endpoint needs a host and a non-zero port");
    }
  }
  if (dim == 0) {
    return InvalidArgumentError("dim must be >= 1");
  }
  if (mode == WorkerMode::kStaticBatch) {
    if (!workers.empty()) {
      return InvalidArgumentError(
          "remote workers stream durably; kStaticBatch is in-process only");
    }
    if (group_size == 0) {
      return InvalidArgumentError("group_size must be >= 1");
    }
  } else {
    if (group_size < 2) {
      return InvalidArgumentError(
          "kDurableStream runs the streaming runtime, which requires "
          "group_size >= 2");
    }
    if (workers.empty() && checkpoint_root.empty()) {
      return InvalidArgumentError(
          "in-process kDurableStream requires a checkpoint_root");
    }
  }
  // NotFound here lists the registered ids, which the CLI surfaces.
  CONDENSA_RETURN_IF_ERROR(backend::Registry::Global().Get(backend).status());
  if (connect_timeout_ms <= 0 || io_timeout_ms <= 0 ||
      ack_timeout_ms <= 0 || finish_timeout_ms <= 0 ||
      heartbeat_interval_ms <= 0 || heartbeat_timeout_ms <= 0) {
    return InvalidArgumentError("fabric timeouts must be positive");
  }
  if (heartbeat_timeout_ms < heartbeat_interval_ms) {
    return InvalidArgumentError(
        "heartbeat_timeout_ms must be >= heartbeat_interval_ms");
  }
  if (workers.empty()) {
    return OkStatus();
  }
  // The wire caps bind only records that cross the wire.
  if (wire_batch == 0) {
    return InvalidArgumentError("wire_batch must be >= 1");
  }
  if (dim > net::kMaxWireDim) {
    return InvalidArgumentError(
        "dim " + std::to_string(dim) + " exceeds the wire cap of " +
        std::to_string(net::kMaxWireDim));
  }
  if (wire_batch > net::kMaxRecordsPerSubmit) {
    return InvalidArgumentError(
        "wire_batch " + std::to_string(wire_batch) +
        " exceeds the per-frame record cap of " +
        std::to_string(net::kMaxRecordsPerSubmit));
  }
  // EncodeFrame CHECK-fails on payloads at or above kMaxFramePayload, so
  // the largest Submit batch a config can produce must fit under the cap
  // — otherwise a legal-looking config would crash the coordinator at
  // the first full outbox instead of failing here with a Status.
  const std::uint64_t max_submit_payload =
      net::kSubmitOverheadBytes +
      static_cast<std::uint64_t>(wire_batch) * dim * sizeof(double);
  if (max_submit_payload >= net::kMaxFramePayload) {
    return InvalidArgumentError(
        "wire_batch " + std::to_string(wire_batch) + " at dim " +
        std::to_string(dim) + " makes a " +
        std::to_string(max_submit_payload) +
        "-byte Submit payload, above the frame cap of " +
        std::to_string(net::kMaxFramePayload) +
        " bytes; lower wire_batch");
  }
  return OkStatus();
}

std::string FabricReport::ToString() const {
  std::ostringstream os;
  os << "connects=" << connects << " reconnects=" << reconnects
     << " heartbeats=" << heartbeats << " misses=" << heartbeat_misses
     << " handoffs=" << handoffs << " rerouted=" << rerouted_records
     << " duplicates=" << duplicates_detected << " rejoins=" << rejoins
     << " local_takeovers=" << local_takeovers;
  return os.str();
}

bool FabricResult::Balanced() const {
  for (const ShardReport& shard : shards) {
    if (!shard.ledger.Balanced()) return false;
  }
  return true;
}

std::size_t FabricResult::TotalAccepted() const {
  std::size_t total = 0;
  for (const ShardReport& shard : shards) total += shard.ledger.accepted;
  return total;
}

std::size_t FabricResult::TotalApplied() const {
  std::size_t total = 0;
  for (const ShardReport& shard : shards) total += shard.ledger.applied;
  return total;
}

FabricService::FabricService(FabricConfig config)
    : config_(std::move(config)),
      router_({.num_shards = config_.shard_count(),
               .policy = config_.policy}),
      backoff_rng_(config_.seed ^ 0x9E3779B97F4A7C15ull),
      hb_rng_(config_.seed ^ 0xC2B2AE3D27D4EB4Full) {}

StatusOr<std::unique_ptr<FabricService>> FabricService::Start(
    FabricConfig config) {
  CONDENSA_RETURN_IF_ERROR(config.Validate());
  std::unique_ptr<FabricService> service(
      new FabricService(std::move(config)));
  const FabricConfig& cfg = service->config_;
  const std::size_t shards = cfg.shard_count();
  CONDENSA_ASSIGN_OR_RETURN(service->backend_,
                            backend::Registry::Global().Get(cfg.backend));

  // One seed derivation for both transports — the first half of the
  // bit-identity contract (the second is gather order).
  Rng root(cfg.seed);
  service->streams_ = Router::SplitStreams(root, shards);
  service->shard_seeds_.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    service->shard_seeds_.push_back(service->streams_[shard].NextUint64());
  }

  service->peers_.reserve(shards);
  if (cfg.workers.empty()) {
    // No peer is remote, so there is no heartbeat thread either.
    for (std::size_t shard = 0; shard < shards; ++shard) {
      service->peers_.push_back(std::make_unique<Peer>());
      Peer& peer = *service->peers_.back();
      std::lock_guard<std::mutex> lock(peer.mu);
      CONDENSA_ASSIGN_OR_RETURN(
          peer.local, Worker::Start(shard, cfg.dim,
                                    service->LocalWorkerOptions(shard, "")));
      peer.state = PeerState::kLocal;
    }
    return service;
  }
  std::size_t reachable = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    service->peers_.push_back(std::make_unique<Peer>());
    Peer& peer = *service->peers_.back();
    std::lock_guard<std::mutex> lock(peer.mu);
    Status handshake = service->HandshakeLocked(shard, peer);
    if (handshake.ok()) {
      service->connects_.fetch_add(1, std::memory_order_relaxed);
      ConnectsCounter(shard).Increment();
      ++reachable;
    } else {
      // Start does not block on a down endpoint: the heartbeat thread
      // keeps redialing, and records route around it meanwhile.
      peer.state = PeerState::kDead;
      peer.redial_failures = 1;
      peer.next_redial_ms = SteadyNowMs();
      PeerUpGauge(shard).Set(0.0);
    }
  }
  if (reachable == 0 && cfg.checkpoint_root.empty()) {
    return UnavailableError(
        "no fabric worker endpoint is reachable and no checkpoint_root "
        "is configured for local takeover");
  }
  service->heartbeat_ = std::thread(&FabricService::HeartbeatLoop,
                                    service.get());
  return service;
}

FabricService::~FabricService() {
  shutdown_.store(true, std::memory_order_relaxed);
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }
  for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);
    if (peer.state == PeerState::kConnected && peer.conn.ok()) {
      (void)peer.conn.SendFrame(net::FrameType::kGoodbye, "",
                                config_.io_timeout_ms);
    }
    peer.conn.Close();
  }
}

Status FabricService::HandshakeLocked(std::size_t shard, Peer& peer) {
  obs::TraceSpan span("fabric.handshake");
  const FabricEndpoint& endpoint = config_.workers[shard];
  peer.conn.Close();
  CONDENSA_ASSIGN_OR_RETURN(
      net::TcpConnection conn,
      net::TcpConnection::Connect(endpoint.host, endpoint.port,
                                  config_.connect_timeout_ms));
  net::HelloMessage hello;
  hello.shard_id = shard;
  hello.dim = config_.dim;
  hello.group_size = config_.group_size;
  hello.split_rule = static_cast<std::uint16_t>(config_.split_rule);
  hello.snapshot_interval = config_.snapshot_interval;
  hello.sync_every_append = config_.sync_every_append ? 1 : 0;
  hello.queue_capacity = config_.queue_capacity;
  hello.batch_size = config_.batch_size;
  hello.seed = shard_seeds_[shard];
  hello.backend = config_.backend;
  CONDENSA_RETURN_IF_ERROR(conn.SendFrame(net::FrameType::kHello,
                                          net::EncodeHello(hello),
                                          config_.io_timeout_ms));
  CONDENSA_ASSIGN_OR_RETURN(net::Frame frame,
                            conn.RecvFrame(config_.io_timeout_ms));
  if (frame.type == net::FrameType::kError) {
    CONDENSA_ASSIGN_OR_RETURN(net::ErrorMessage error,
                              net::DecodeError(frame.payload));
    return net::ErrorToStatus(error);
  }
  if (frame.type != net::FrameType::kHelloAck) {
    return DataLossError(std::string("expected HelloAck, got ") +
                         net::FrameTypeName(frame.type));
  }
  CONDENSA_ASSIGN_OR_RETURN(net::HelloAckMessage ack,
                            net::DecodeHelloAck(frame.payload));
  peer.worker_id = ack.worker_id;
  if (!peer.baselined) {
    peer.base_durable = ack.durable_total;
    peer.baselined = true;
  } else {
    AbsorbDurableTotalLocked(peer, ack.durable_total);
  }
  peer.conn = std::move(conn);
  peer.state = PeerState::kConnected;
  peer.last_ok_ms = SteadyNowMs();
  peer.redial_failures = 0;
  PeerUpGauge(shard).Set(1.0);
  return OkStatus();
}

void FabricService::AbsorbDurableTotalLocked(Peer& peer,
                                             std::uint64_t durable_total) {
  // A worker whose durable_total went backwards lost its checkpoint dir;
  // nothing to trim, and the acked records it held are gone from its
  // side (they survive only if they were also re-routed).
  if (durable_total < peer.base_durable) {
    return;
  }
  const std::uint64_t delivered = durable_total - peer.base_durable;
  if (delivered <= peer.acked) {
    return;
  }
  std::uint64_t extra = delivered - peer.acked;
  // The worker processes its substream in order, so whatever it absorbed
  // beyond our ack watermark is a prefix of the outbox.
  const std::uint64_t trim =
      std::min<std::uint64_t>(extra, peer.outbox.size());
  peer.outbox.erase(peer.outbox.begin(),
                    peer.outbox.begin() + static_cast<long>(trim));
  extra -= trim;
  if (extra > 0) {
    // Absorbed records we no longer hold: they were handed off to
    // survivors when this peer died, so the fabric now carries both
    // copies. Exactness is preserved by counting them.
    duplicates_detected_.fetch_add(extra, std::memory_order_relaxed);
  }
  peer.acked = delivered;
  peer.handed_off = false;
}

Status FabricService::SendBatchLocked(std::size_t shard, Peer& peer) {
  obs::TraceSpan span("fabric.submit.batch");
  obs::Timer timer;
  const std::size_t count =
      std::min(config_.wire_batch, peer.outbox.size());
  CONDENSA_CHECK_GT(count, 0u);
  net::SubmitMessage msg;
  msg.base_sequence = peer.outbox.front().first;
  msg.dim = config_.dim;
  msg.records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    msg.records.push_back(peer.outbox[i].second);
  }
  Status sent = peer.conn.SendFrame(net::FrameType::kSubmit,
                                    net::EncodeSubmit(msg),
                                    config_.io_timeout_ms);
  if (!sent.ok()) {
    peer.conn.Close();
    return sent;
  }
  // The worker flushes to durable custody before acking, so the ack wait
  // is bounded by its flush timeout, not the per-frame I/O timeout.
  StatusOr<net::Frame> frame = peer.conn.RecvFrame(config_.ack_timeout_ms);
  if (!frame.ok()) {
    peer.conn.Close();
    return frame.status();
  }
  if (frame->type == net::FrameType::kError) {
    peer.conn.Close();
    StatusOr<net::ErrorMessage> error = net::DecodeError(frame->payload);
    return error.ok() ? net::ErrorToStatus(*error) : error.status();
  }
  if (frame->type != net::FrameType::kSubmitAck) {
    peer.conn.Close();
    return DataLossError(std::string("expected SubmitAck, got ") +
                         net::FrameTypeName(frame->type));
  }
  StatusOr<net::SubmitAckMessage> ack =
      net::DecodeSubmitAck(frame->payload);
  if (!ack.ok()) {
    peer.conn.Close();
    return ack.status();
  }
  AbsorbDurableTotalLocked(peer, ack->durable_total);
  peer.last_ok_ms = SteadyNowMs();
  RpcSeconds("submit").Observe(timer.ElapsedSeconds());
  (void)shard;
  return OkStatus();
}

Status FabricService::FlushOutboxLocked(std::size_t shard, Peer& peer,
                                        std::size_t low_water) {
  while (peer.state == PeerState::kConnected &&
         peer.outbox.size() > low_water) {
    CONDENSA_RETURN_IF_ERROR(SendBatchLocked(shard, peer));
  }
  return OkStatus();
}

void FabricService::ReviveOrDeclareDeadLocked(std::size_t shard,
                                              Peer& peer) {
  peer.conn.Close();
  for (std::size_t attempt = 1; attempt <= config_.reconnect.max_attempts;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        runtime::BackoffDelayMs(config_.reconnect, attempt,
                                backoff_rng_)));
    if (HandshakeLocked(shard, peer).ok()) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      ReconnectsCounter(shard).Increment();
      return;
    }
  }
  DeclareDeadLocked(shard, peer);
}

void FabricService::DeclareDeadLocked(std::size_t shard, Peer& peer) {
  if (peer.state == PeerState::kDead) {
    return;
  }
  obs::TraceSpan span("fabric.handoff");
  peer.conn.Close();
  peer.state = PeerState::kDead;
  peer.acked_at_death = peer.acked;
  peer.next_redial_ms = SteadyNowMs();
  PeerUpGauge(shard).Set(0.0);
  handoffs_.fetch_add(1, std::memory_order_relaxed);
  if (!peer.outbox.empty()) {
    peer.handed_off = true;
    OrphanOutboxLocked(peer);
  }
}

void FabricService::OrphanOutboxLocked(Peer& peer) {
  std::lock_guard<std::mutex> lock(orphans_mu_);
  while (!peer.outbox.empty()) {
    orphans_.push_back(std::move(peer.outbox.front()));
    peer.outbox.pop_front();
  }
}

std::vector<std::size_t> FabricService::LiveMembers() {
  std::vector<std::size_t> members;
  members.reserve(peers_.size());
  for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);
    if (peer.state != PeerState::kDead) {
      members.push_back(shard);
    }
  }
  return members;
}

WorkerOptions FabricService::LocalWorkerOptions(
    std::size_t shard, const std::string& worker_id) const {
  WorkerOptions options;
  options.mode = config_.mode;
  options.group_size = config_.group_size;
  options.split_rule = config_.split_rule;
  options.checkpoint_root = config_.checkpoint_root;
  options.snapshot_interval = config_.snapshot_interval;
  options.sync_every_append = config_.sync_every_append;
  options.queue_capacity = config_.queue_capacity;
  options.batch_size = config_.batch_size;
  options.seed = shard_seeds_[shard];
  options.worker_id = worker_id;
  options.backend = backend_->info().id;
  options.backend_version = backend_->info().version;
  options.construction = backend_->ConstructionHook();
  return options;
}

Status FabricService::LocalTakeoverLocked(std::size_t shard, Peer& peer) {
  if (config_.checkpoint_root.empty()) {
    return UnavailableError(
        "shard " + std::to_string(shard) +
        " is unreachable and no checkpoint_root is configured for local "
        "takeover");
  }
  CONDENSA_ASSIGN_OR_RETURN(
      peer.local, Worker::Start(shard, config_.dim,
                                LocalWorkerOptions(shard, peer.worker_id)));
  // Recovering over the worker's own checkpoint dir restores its acked
  // records exactly; trim what the recovery already owns, then deliver
  // the rest of the outbox in-process.
  if (!peer.baselined) {
    peer.base_durable = peer.local->durable_total();
    peer.baselined = true;
  } else {
    AbsorbDurableTotalLocked(peer, peer.local->durable_total());
  }
  while (!peer.outbox.empty()) {
    CONDENSA_RETURN_IF_ERROR(
        peer.local->Submit(peer.outbox.front().second));
    peer.outbox.pop_front();
  }
  peer.conn.Close();
  peer.state = PeerState::kLocal;
  local_takeovers_.fetch_add(1, std::memory_order_relaxed);
  PeerUpGauge(shard).Set(1.0);
  return OkStatus();
}

Status FabricService::SettleDeliveries() {
  // Runs before any worker is allowed to Finish: repeatedly re-places
  // orphans and flushes every surviving outbox until both are empty. A
  // peer dying mid-pass re-orphans its outbox, which the next pass
  // re-places, so each unsettled pass either converges or shrinks the
  // member set — bounding the pass count by the shard count (doubled to
  // allow one revive-then-die flap per peer).
  const std::size_t max_passes = 2 * peers_.size() + 2;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    CONDENSA_RETURN_IF_ERROR(DrainOrphans());
    bool settled = true;
    for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
      Peer& peer = *peers_[shard];
      std::lock_guard<std::mutex> lock(peer.mu);
      if (peer.state != PeerState::kConnected || peer.outbox.empty()) {
        continue;
      }
      Status flushed = FlushOutboxLocked(shard, peer, 0);
      if (!flushed.ok()) {
        ReviveOrDeclareDeadLocked(shard, peer);
        // Revived: the backlog flushes next pass. Declared dead: the
        // backlog was orphaned and re-places next pass.
        settled = false;
      }
    }
    {
      std::lock_guard<std::mutex> lock(orphans_mu_);
      if (!orphans_.empty()) {
        settled = false;
      }
    }
    if (settled) {
      return OkStatus();
    }
  }
  return UnavailableError(
      "fabric could not settle in-flight records before the gather");
}

Status FabricService::DrainOrphans() {
  // Each pass either places every orphan or shrinks the member set (a
  // peer dying re-orphans its outbox); the pass count is bounded by the
  // shard count plus the final fallback pass.
  for (std::size_t pass = 0; pass <= peers_.size() + 1; ++pass) {
    std::deque<std::pair<std::size_t, linalg::Vector>> batch;
    {
      std::lock_guard<std::mutex> lock(orphans_mu_);
      std::swap(batch, orphans_);
    }
    if (batch.empty()) {
      return OkStatus();
    }
    const std::vector<std::size_t> members = LiveMembers();
    for (auto& [index, record] : batch) {
      const std::size_t home = router_.ShardOf(record, index);
      {
        // A record keeps its home shard whenever the home can accept it:
        // over the wire, through an existing local takeover, or — when a
        // fallback root is configured — through a fresh takeover. Only a
        // dead home with no fallback displaces the record onto a
        // survivor, so the degraded fabric preserves the single-process
        // routing (and therefore the bit-identical release) as long as
        // it has anywhere local to put the shard.
        Peer& home_peer = *peers_[home];
        std::lock_guard<std::mutex> lock(home_peer.mu);
        if (home_peer.state == PeerState::kDead &&
            !config_.checkpoint_root.empty()) {
          Status takeover = LocalTakeoverLocked(home, home_peer);
          if (!takeover.ok()) {
            std::lock_guard<std::mutex> orphans_lock(orphans_mu_);
            orphans_.push_back({index, std::move(record)});
            return takeover;
          }
        }
        if (home_peer.state == PeerState::kLocal) {
          CONDENSA_RETURN_IF_ERROR(home_peer.local->Submit(record));
          continue;
        }
        if (home_peer.state == PeerState::kConnected) {
          home_peer.outbox.push_back({index, std::move(record)});
          if (home_peer.outbox.size() >= config_.wire_batch) {
            Status flushed =
                FlushOutboxLocked(home, home_peer, config_.wire_batch - 1);
            if (!flushed.ok()) {
              ReviveOrDeclareDeadLocked(home, home_peer);
            }
          }
          continue;
        }
      }
      // Dead home, no fallback: displace onto a survivor (home is not in
      // `members`, so target != home by construction).
      if (members.empty()) {
        std::lock_guard<std::mutex> orphans_lock(orphans_mu_);
        orphans_.push_back({index, std::move(record)});
        continue;
      }
      const std::size_t target = router_.ShardAmong(record, index, members);
      Peer& peer = *peers_[target];
      std::lock_guard<std::mutex> lock(peer.mu);
      if (peer.state == PeerState::kLocal) {
        CONDENSA_RETURN_IF_ERROR(peer.local->Submit(record));
      } else if (peer.state == PeerState::kConnected) {
        peer.outbox.push_back({index, std::move(record)});
        if (peer.outbox.size() >= config_.wire_batch) {
          Status flushed =
              FlushOutboxLocked(target, peer, config_.wire_batch - 1);
          if (!flushed.ok()) {
            ReviveOrDeclareDeadLocked(target, peer);
          }
        }
      } else {
        // Died between the member snapshot and now; try again next pass.
        std::lock_guard<std::mutex> orphans_lock(orphans_mu_);
        orphans_.push_back({index, std::move(record)});
        continue;
      }
      rerouted_records_.fetch_add(1, std::memory_order_relaxed);
      RetransmitsCounter(home).Increment();
    }
  }
  std::lock_guard<std::mutex> lock(orphans_mu_);
  if (!orphans_.empty()) {
    return UnavailableError("could not place " +
                            std::to_string(orphans_.size()) +
                            " re-routed records on any live shard");
  }
  return OkStatus();
}

Status FabricService::Submit(const linalg::Vector& record) {
  if (finished_) {
    return FailedPreconditionError("Submit after Finish");
  }
  // EncodeSubmit packs exactly config_.dim doubles per record, so a
  // wrong-dimension record would make every batch sharing a frame with
  // it undecodable — a poison pill the worker rejects forever, which
  // reads as a dead shard. Reject it here, before it takes an arrival
  // index or touches any outbox. In-process shards need no such guard:
  // a stream shard quarantines the record and a batch shard refuses it.
  if (!config_.workers.empty() && record.dim() != config_.dim) {
    return InvalidArgumentError(
        "record dimension " + std::to_string(record.dim()) +
        " does not match the fabric dimension " +
        std::to_string(config_.dim));
  }
  const std::size_t index = submitted_;
  const std::size_t shard = router_.Route(record);
  ++submitted_;
  {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);
    switch (peer.state) {
      case PeerState::kLocal:
        CONDENSA_RETURN_IF_ERROR(peer.local->Submit(record));
        break;
      case PeerState::kConnected: {
        peer.outbox.push_back({index, record});
        if (peer.outbox.size() >= config_.wire_batch) {
          Status flushed =
              FlushOutboxLocked(shard, peer, config_.wire_batch - 1);
          if (!flushed.ok()) {
            ReviveOrDeclareDeadLocked(shard, peer);
            if (peer.state == PeerState::kConnected) {
              CONDENSA_RETURN_IF_ERROR(
                  FlushOutboxLocked(shard, peer, config_.wire_batch - 1));
            }
          }
        }
        break;
      }
      case PeerState::kDead: {
        // Route around the outage immediately; the record keeps its
        // arrival index so the re-route is deterministic in the member
        // set.
        std::lock_guard<std::mutex> orphans_lock(orphans_mu_);
        orphans_.push_back({index, record});
        break;
      }
    }
  }
  bool have_orphans;
  {
    std::lock_guard<std::mutex> lock(orphans_mu_);
    have_orphans = !orphans_.empty();
  }
  if (have_orphans) {
    CONDENSA_RETURN_IF_ERROR(DrainOrphans());
  }
  return OkStatus();
}

Status FabricService::ProbePeerLocked(std::size_t shard, Peer& peer) {
  obs::Timer timer;
  net::HeartbeatMessage beat;
  beat.nonce = hb_rng_.NextUint64();
  CONDENSA_RETURN_IF_ERROR(peer.conn.SendFrame(net::FrameType::kHeartbeat,
                                               net::EncodeHeartbeat(beat),
                                               config_.io_timeout_ms));
  CONDENSA_ASSIGN_OR_RETURN(
      net::Frame frame, peer.conn.RecvFrame(config_.heartbeat_timeout_ms));
  if (frame.type != net::FrameType::kHeartbeatAck) {
    return DataLossError(std::string("expected HeartbeatAck, got ") +
                         net::FrameTypeName(frame.type));
  }
  CONDENSA_ASSIGN_OR_RETURN(net::HeartbeatAckMessage ack,
                            net::DecodeHeartbeatAck(frame.payload));
  if (ack.nonce != beat.nonce) {
    return DataLossError("heartbeat ack nonce mismatch");
  }
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
  HeartbeatsCounter(shard).Increment();
  peer.last_ok_ms = SteadyNowMs();
  RpcSeconds("heartbeat").Observe(timer.ElapsedSeconds());
  return OkStatus();
}

void FabricService::HeartbeatLoop() {
  const auto tick = std::chrono::duration<double, std::milli>(
      std::min(config_.heartbeat_interval_ms, 50.0));
  while (!shutdown_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(tick);
    const double now = SteadyNowMs();
    for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
      if (shutdown_.load(std::memory_order_relaxed)) {
        return;
      }
      Peer& peer = *peers_[shard];
      // Never contend with the ingest path: a peer busy in an RPC is
      // proving its liveness already.
      std::unique_lock<std::mutex> lock(peer.mu, std::try_to_lock);
      if (!lock.owns_lock()) {
        continue;
      }
      if (peer.state == PeerState::kConnected) {
        if (now - peer.last_ok_ms < config_.heartbeat_interval_ms) {
          continue;
        }
        if (!peer.conn.ok() || !ProbePeerLocked(shard, peer).ok()) {
          heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
          HeartbeatMissesCounter(shard).Increment();
          peer.conn.Close();
          // One immediate redial; past the liveness window the peer is
          // declared dead and its backlog handed off.
          if (HandshakeLocked(shard, peer).ok()) {
            reconnects_.fetch_add(1, std::memory_order_relaxed);
            ReconnectsCounter(shard).Increment();
          } else if (SteadyNowMs() - peer.last_ok_ms >
                     config_.heartbeat_timeout_ms) {
            DeclareDeadLocked(shard, peer);
          }
        }
      } else if (peer.state == PeerState::kDead) {
        if (now < peer.next_redial_ms) {
          continue;
        }
        if (HandshakeLocked(shard, peer).ok()) {
          rejoins_.fetch_add(1, std::memory_order_relaxed);
          reconnects_.fetch_add(1, std::memory_order_relaxed);
          ReconnectsCounter(shard).Increment();
        } else {
          ++peer.redial_failures;
          peer.next_redial_ms =
              SteadyNowMs() + runtime::BackoffDelayMs(config_.reconnect,
                                                      peer.redial_failures,
                                                      hb_rng_);
        }
      }
    }
  }
}

std::vector<runtime::StreamPipelineStats> FabricService::stats() const {
  std::vector<runtime::StreamPipelineStats> all(peers_.size());
  for (std::size_t shard = 0; shard < peers_.size(); ++shard) {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);
    if (peer.state == PeerState::kLocal) {
      all[shard] = peer.local->live_stream_stats().value_or(
          runtime::StreamPipelineStats{});
    }
  }
  return all;
}

StatusOr<FabricResult> FabricService::Finish() {
  if (finished_) {
    return FailedPreconditionError("Finish was already called");
  }
  finished_ = true;
  obs::TraceSpan span("fabric.finish");

  // Quiesce the background thread first: Finish owns every peer from
  // here on, so no revival can race the final flush.
  shutdown_.store(true, std::memory_order_relaxed);
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }

  // Deliver every in-flight record BEFORE any worker runs Finish. Once
  // the gather below starts, a record can no longer be re-placed: its
  // home may already be gathered (its groups fixed) or finished (Submit
  // would fail), so any orphan surviving into the gather is either data
  // loss or an abort. Settling first empties every outbox and the
  // orphan queue, which also means a worker death DURING the gather
  // orphans nothing — its acked state recovers alone via takeover.
  CONDENSA_RETURN_IF_ERROR(SettleDeliveries());

  // One slot per shard. Remote peers finish first, in shard order (a
  // remote peer that fails here is taken over and joins the in-process
  // ones); then the in-process shards finish in parallel.
  const std::size_t n = peers_.size();
  std::vector<StatusOr<core::CondensedGroupSet>> sets(
      n, StatusOr<core::CondensedGroupSet>(
             core::CondensedGroupSet(config_.dim, config_.group_size)));
  std::vector<ShardReport> reports(n);
  std::vector<std::function<void()>> local_finishes;
  for (std::size_t shard = 0; shard < n; ++shard) {
    Peer& peer = *peers_[shard];
    std::lock_guard<std::mutex> lock(peer.mu);
    reports[shard].shard_id = shard;

    if (peer.state == PeerState::kDead) {
      // Last chance over the wire before degrading.
      if (HandshakeLocked(shard, peer).ok()) {
        rejoins_.fetch_add(1, std::memory_order_relaxed);
        reconnects_.fetch_add(1, std::memory_order_relaxed);
      } else if (!peer.baselined ||
                 (peer.base_durable == 0 && peer.acked == 0 &&
                  peer.outbox.empty())) {
        // The peer owns no durable state of any run and no backlog —
        // an empty shard, skipped exactly.
        continue;
      } else {
        CONDENSA_RETURN_IF_ERROR(LocalTakeoverLocked(shard, peer));
      }
    }

    if (peer.state == PeerState::kConnected) {
      Status finished_remote = [&]() -> Status {
        CONDENSA_RETURN_IF_ERROR(FlushOutboxLocked(shard, peer, 0));
        obs::Timer timer;
        CONDENSA_RETURN_IF_ERROR(peer.conn.SendFrame(
            net::FrameType::kFinish, "", config_.io_timeout_ms));
        CONDENSA_ASSIGN_OR_RETURN(
            net::Frame frame,
            peer.conn.RecvFrame(config_.finish_timeout_ms));
        if (frame.type == net::FrameType::kError) {
          CONDENSA_ASSIGN_OR_RETURN(net::ErrorMessage error,
                                    net::DecodeError(frame.payload));
          return net::ErrorToStatus(error);
        }
        if (frame.type != net::FrameType::kFinishResult) {
          return DataLossError(std::string("expected FinishResult, got ") +
                               net::FrameTypeName(frame.type));
        }
        CONDENSA_ASSIGN_OR_RETURN(net::FinishResultMessage finish,
                                  net::DecodeFinishResult(frame.payload));
        CONDENSA_ASSIGN_OR_RETURN(
            core::CondensedGroupSet set,
            core::DeserializeGroupSet(finish.groups_text));
        RpcSeconds("finish").Observe(timer.ElapsedSeconds());
        sets[shard] = std::move(set);
        reports[shard].records = finish.stats.submitted;
        reports[shard].ledger = finish.stats;
        return OkStatus();
      }();
      if (!finished_remote.ok()) {
        // The worker died (or the wire broke) inside the gather; its
        // durable state is still on disk, so hand the shard over. The
        // outbox is empty (SettleDeliveries ran), so declaring the peer
        // dead here orphans nothing.
        DeclareDeadLocked(shard, peer);
        CONDENSA_RETURN_IF_ERROR(LocalTakeoverLocked(shard, peer));
      }
    }

    if (peer.state == PeerState::kLocal) {
      local_finishes.push_back([this, shard, &peer, &sets, &reports]() {
        std::lock_guard<std::mutex> lock(peer.mu);
        sets[shard] = peer.local->Finish(streams_[shard]);
        reports[shard].records = peer.local->records_submitted();
        reports[shard].ledger = peer.local->stream_stats().value_or(
            runtime::StreamPipelineStats{});
      });
    }
  }
  ParallelRun(ThreadPool::ResolveThreadCount(config_.num_threads),
              local_finishes);

  // Invariant: SettleDeliveries emptied every outbox before the gather,
  // so the loop above cannot have orphaned anything. A leftover here
  // has no live shard to land on — surface it instead of dropping it.
  {
    std::lock_guard<std::mutex> lock(orphans_mu_);
    if (!orphans_.empty()) {
      return InternalError("gather left " +
                           std::to_string(orphans_.size()) +
                           " records unplaced; refusing to drop them");
    }
  }

  FabricResult result;
  std::vector<core::CondensedGroupSet> shard_sets;
  shard_sets.reserve(n);
  for (std::size_t shard = 0; shard < n; ++shard) {
    CONDENSA_ASSIGN_OR_RETURN(core::CondensedGroupSet set,
                              std::move(sets[shard]));
    const core::PrivacySummary summary = set.Summary();
    reports[shard].groups = summary.num_groups;
    reports[shard].min_group_size = summary.min_group_size;
    shard_sets.push_back(std::move(set));
  }
  result.shards = std::move(reports);
  Coordinator coordinator(
      {.group_size = config_.group_size, .split_rule = config_.split_rule});
  CONDENSA_ASSIGN_OR_RETURN(
      result.groups,
      coordinator.Gather(std::move(shard_sets), &result.gather));
  result.report = report();
  return result;
}

FabricReport FabricService::report() const {
  FabricReport out;
  out.connects = connects_.load(std::memory_order_relaxed);
  out.reconnects = reconnects_.load(std::memory_order_relaxed);
  out.heartbeats = heartbeats_.load(std::memory_order_relaxed);
  out.heartbeat_misses = heartbeat_misses_.load(std::memory_order_relaxed);
  out.handoffs = handoffs_.load(std::memory_order_relaxed);
  out.rerouted_records = rerouted_records_.load(std::memory_order_relaxed);
  out.duplicates_detected =
      duplicates_detected_.load(std::memory_order_relaxed);
  out.rejoins = rejoins_.load(std::memory_order_relaxed);
  out.local_takeovers = local_takeovers_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace condensa::shard
