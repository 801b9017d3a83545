// The sharding service: scatter (Router), condense per shard (Worker),
// exact-merge gather (Coordinator), over one of two transports.
//
// A condensed group is fully described by its additive moments (Fs, Sc,
// n), so the gather is the same exact merge wherever a shard runs. Each
// shard is a Peer, and the Peer is the transport seam:
//
//   kLocal      an in-process Worker. With no endpoints configured every
//               shard is kLocal from Start: durable streaming under
//               <checkpoint_root>/shard-<i>, or an in-memory static batch
//               (paper Fig. 1) condensed at Finish.
//   kConnected  a Worker in another process behind the wire protocol
//               (shard/worker_server.h), one endpoint per shard.
//
// Both transports share the routing, the per-shard seed derivation
// (Router::SplitStreams of Rng(seed), in shard order), the per-shard
// ingest order and the gather fold, so a clean networked run releases a
// BIT-IDENTICAL group set to the in-process run with the same (seed,
// shard count, policy).
//
// Membership and failure handling (networked transport only):
//
//   register/handshake   The coordinator dials every endpoint at Start
//                        and exchanges Hello/HelloAck. The HelloAck's
//                        durable_total becomes the peer's custody
//                        baseline.
//   liveness             A heartbeat thread probes idle peers every
//                        heartbeat_interval_ms; a peer silent past
//                        heartbeat_timeout_ms enters reconnect.
//   reconnect            Redials with runtime::retry exponential
//                        backoff. The re-handshake's durable_total tells
//                        the coordinator exactly which prefix of its
//                        unacknowledged outbox the worker already owns
//                        durably — that prefix is trimmed, the rest is
//                        re-sent. Delivery is exactly-once across any
//                        number of connection drops.
//   handoff on death     When reconnecting fails, the peer is declared
//                        dead and its unacknowledged records are
//                        re-routed among the surviving members
//                        (Router::ShardAmong — deterministic in the
//                        member set). Acked records are NOT re-routed:
//                        they are durable in the dead worker's
//                        checkpoint dir and come back when it rejoins
//                        (or via local takeover). Re-routed in-flight
//                        records can duplicate if the dead worker had
//                        absorbed them before dying; the rejoin
//                        handshake detects exactly how many
//                        (duplicates_detected), so the loss ledger
//                        stays exact: accepted = submitted + duplicates.
//   rejoin               Dead peers are redialed in the background; a
//                        revived worker resumes from its own checkpoint.
//   local takeover       With checkpoint_root set (same filesystem), a
//                        peer that cannot be revived becomes kLocal: an
//                        in-process Worker on the same checkpoint dir,
//                        recovering its durable state exactly. On total
//                        network failure every shard degrades this way
//                        and the run completes in-process.
//
// Thread model: Submit/Finish are single-producer (the bit-identity
// contract needs one arrival order). With endpoints, one background
// thread handles heartbeats and revival; per-peer state is
// mutex-protected and the heartbeat thread only try_locks, so it never
// delays the ingest path. Finish runs the kLocal shards' Finish in
// parallel on num_threads, each into its own slot, and gathers in shard
// order, so the release does not depend on the thread count.

#ifndef CONDENSA_SHARD_FABRIC_H_
#define CONDENSA_SHARD_FABRIC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/pipeline.h"
#include "runtime/retry.h"
#include "shard/coordinator.h"
#include "shard/router.h"
#include "shard/worker.h"

namespace condensa::shard {

struct FabricEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct FabricConfig {
  // The transport. workers[i] serves shard i over TCP. Empty runs every
  // shard in-process.
  std::vector<FabricEndpoint> workers;
  // Shard count for the in-process transport. 0 means not set; with
  // endpoints the count is workers.size(), and a non-zero num_shards
  // must agree with it.
  std::size_t num_shards = 0;
  // kStaticBatch (condense each partition in memory at Finish) is
  // in-process only; remote workers always stream durably.
  WorkerMode mode = WorkerMode::kDurableStream;

  // Condensation parameters — must match the workers' expectations and,
  // for bit-identity, the run being mirrored. group_size >= 2 in
  // kDurableStream (the streaming runtime's floor), >= 1 in kStaticBatch.
  std::size_t dim = 0;
  std::size_t group_size = 10;
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;
  ShardPolicy policy = ShardPolicy::kHash;
  std::uint64_t seed = 42;

  // Anonymization backend id, resolved through backend::Registry at
  // Start and used by every shard (carried to remote workers in the
  // Hello; a worker that cannot resolve it rejects the session).
  std::string backend = core::CondensedGroupSet::kDefaultBackendId;

  // Worker tuning (forwarded in the Hello to remote workers).
  std::size_t snapshot_interval = 1024;
  bool sync_every_append = true;
  std::size_t queue_capacity = 1024;
  std::size_t batch_size = 32;

  // In-process shards checkpoint under <checkpoint_root>/shard-<i>:
  // every shard when workers is empty (required in kDurableStream), or
  // a taken-over peer otherwise. For takeover, point it at the tree the
  // workers use (shared filesystem) so it recovers their durable state;
  // empty disables takeover, and an unreachable peer at Finish is an
  // error.
  std::string checkpoint_root;
  // Threads for the in-process shards' Finish; 0 = one per hardware
  // thread. The release is identical at any thread count.
  std::size_t num_threads = 0;

  // Records per Submit frame. Larger batches amortize the per-RPC flush
  // barrier; smaller ones shrink the re-send window after a crash.
  std::size_t wire_batch = 64;

  double connect_timeout_ms = 2000.0;
  double io_timeout_ms = 5000.0;
  // The SubmitAck wait: bounded by the worker's durable flush, not by
  // per-frame I/O, so it sits above the worker's flush_timeout_ms.
  double ack_timeout_ms = 35000.0;
  // Finish condenses and checkpoints on the worker; allow it time.
  double finish_timeout_ms = 60000.0;
  double heartbeat_interval_ms = 200.0;
  // A peer silent this long is put through reconnect, then declared
  // dead.
  double heartbeat_timeout_ms = 1500.0;

  // Backoff schedule between redial attempts (max_attempts bounds each
  // reconnect incident).
  runtime::RetryPolicy reconnect;

  // workers.size() when endpoints are given, otherwise num_shards.
  std::size_t shard_count() const {
    return workers.empty() ? num_shards : workers.size();
  }

  Status Validate() const;
};

// Counters describing the fabric's life, snapshot via report().
struct FabricReport {
  std::size_t connects = 0;
  std::size_t reconnects = 0;
  std::size_t heartbeats = 0;
  std::size_t heartbeat_misses = 0;
  // Peers declared dead (each one is a handoff incident).
  std::size_t handoffs = 0;
  // Records re-routed off a dead peer to survivors.
  std::size_t rerouted_records = 0;
  // Re-routed records later found to have also been durably absorbed by
  // the dead worker (counted at rejoin/takeover via durable_total).
  std::size_t duplicates_detected = 0;
  std::size_t rejoins = 0;
  std::size_t local_takeovers = 0;

  std::string ToString() const;
};

// One shard's part of a Finish.
struct ShardReport {
  std::size_t shard_id = 0;
  // Records submitted to the shard's worker in this run.
  std::size_t records = 0;
  // The shard-local set before the gather.
  std::size_t groups = 0;
  std::size_t min_group_size = 0;
  // The shard's zero-silent-loss ledger (all zero in kStaticBatch).
  runtime::StreamPipelineStats ledger;
};

struct FabricResult {
  core::CondensedGroupSet groups{0, 0};
  GatherReport gather;
  // One report per shard, in shard order.
  std::vector<ShardReport> shards;
  FabricReport report;

  // Zero silent loss: every shard ledger balances.
  bool Balanced() const;
  std::size_t TotalAccepted() const;
  std::size_t TotalApplied() const;
};

class FabricService {
 public:
  // Without endpoints: starts (or crash-recovers) every in-process shard
  // Worker; any shard failing to start fails the service. With
  // endpoints: connects and handshakes every worker and starts the
  // heartbeat thread. Endpoints that cannot be dialed at Start are
  // handled like any other death: re-routed around, revived in the
  // background, or (with checkpoint_root) taken over — Start only fails
  // outright when no shard can accept records at all.
  static StatusOr<std::unique_ptr<FabricService>> Start(FabricConfig config);

  FabricService(const FabricService&) = delete;
  FabricService& operator=(const FabricService&) = delete;

  // Joins the heartbeat thread; closes connections (without Finish the
  // workers keep their durable state for the next run).
  ~FabricService();

  std::size_t num_shards() const { return config_.shard_count(); }

  // Routes and delivers one record; single producer. A record of the
  // wrong dimension is InvalidArgument with endpoints (the wire cannot
  // carry it); an in-process stream shard quarantines it instead, and
  // its ledger counts it.
  Status Submit(const linalg::Vector& record);
  std::size_t records_submitted() const { return submitted_; }

  // Live ledgers of the in-process stream shards, in shard order. A
  // remote or batch shard reads all zero; its ledger comes with Finish.
  std::vector<runtime::StreamPipelineStats> stats() const;

  // Flushes every outbox, runs Finish on every worker (over the wire,
  // or in-process), gathers in shard order, and returns the global
  // release. Callable once.
  StatusOr<FabricResult> Finish();

  FabricReport report() const;

 private:
  enum class PeerState { kConnected, kDead, kLocal };

  struct Peer {
    std::mutex mu;
    PeerState state = PeerState::kDead;
    net::TcpConnection conn;
    std::string worker_id;
    // True once the first successful handshake fixed base_durable.
    bool baselined = false;
    // durable_total at the first handshake: state from previous runs.
    std::uint64_t base_durable = 0;
    // Records of THIS run known durably delivered to the worker.
    std::uint64_t acked = 0;
    // acked at the moment the peer was last declared dead (duplicate
    // detection baseline).
    std::uint64_t acked_at_death = 0;
    bool handed_off = false;
    // Accepted-but-unacknowledged records with their arrival indices.
    std::deque<std::pair<std::size_t, linalg::Vector>> outbox;
    double last_ok_ms = 0.0;
    // Consecutive failed revival attempts (drives the backoff schedule).
    std::size_t redial_failures = 0;
    double next_redial_ms = 0.0;
    // The in-process worker (state == kLocal).
    std::unique_ptr<Worker> local;
  };

  explicit FabricService(FabricConfig config);

  // --- connection management (peer->mu held) ---
  Status HandshakeLocked(std::size_t shard, Peer& peer);
  // Reconnect with backoff; declares the peer dead on exhaustion.
  void ReviveOrDeclareDeadLocked(std::size_t shard, Peer& peer);
  void DeclareDeadLocked(std::size_t shard, Peer& peer);
  // Sends up to wire_batch records from the outbox front and waits for
  // the durable ack; trims the acked prefix.
  Status SendBatchLocked(std::size_t shard, Peer& peer);
  Status FlushOutboxLocked(std::size_t shard, Peer& peer,
                           std::size_t low_water);
  // Applies the durable_total learned from a handshake: trims the
  // already-owned outbox prefix and books duplicate detections.
  void AbsorbDurableTotalLocked(Peer& peer, std::uint64_t durable_total);
  // Options of shard's in-process Worker, at Start or at takeover.
  WorkerOptions LocalWorkerOptions(std::size_t shard,
                                   const std::string& worker_id) const;
  // In-process takeover over checkpoint_root.
  Status LocalTakeoverLocked(std::size_t shard, Peer& peer);

  // --- re-routing (takes orphans_mu_, then peer mutexes) ---
  void OrphanOutboxLocked(Peer& peer);
  Status DrainOrphans();
  // Finish's pre-gather barrier: loops DrainOrphans + full outbox
  // flushes until no record is in flight anywhere, so that no worker
  // Finish can strand an orphan.
  Status SettleDeliveries();
  std::vector<std::size_t> LiveMembers();

  void HeartbeatLoop();
  Status ProbePeerLocked(std::size_t shard, Peer& peer);

  FabricConfig config_;
  // Resolved from config_.backend at Start.
  const backend::AnonymizationBackend* backend_ = nullptr;
  Router router_;
  // Per-shard substreams split from Rng(seed) in shard order; each
  // shard's seed is its stream's first draw, and a batch shard condenses
  // with the rest of the stream.
  std::vector<Rng> streams_;
  std::vector<std::uint64_t> shard_seeds_;
  std::vector<std::unique_ptr<Peer>> peers_;

  std::mutex orphans_mu_;
  std::deque<std::pair<std::size_t, linalg::Vector>> orphans_;

  std::thread heartbeat_;
  std::atomic<bool> shutdown_{false};
  // Ingest-path backoff jitter and heartbeat-thread jitter draw from
  // separate streams (Rng is not thread-safe).
  Rng backoff_rng_;
  Rng hb_rng_;

  std::size_t submitted_ = 0;
  bool finished_ = false;

  std::atomic<std::size_t> connects_{0};
  std::atomic<std::size_t> reconnects_{0};
  std::atomic<std::size_t> heartbeats_{0};
  std::atomic<std::size_t> heartbeat_misses_{0};
  std::atomic<std::size_t> handoffs_{0};
  std::atomic<std::size_t> rerouted_records_{0};
  std::atomic<std::size_t> duplicates_detected_{0};
  std::atomic<std::size_t> rejoins_{0};
  std::atomic<std::size_t> local_takeovers_{0};
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_FABRIC_H_
