// One shard's condenser: the middle of scatter/gather condensation.
//
// A Worker owns exactly one shard's partition of the stream and condenses
// it independently of every other shard — no cross-shard locks, no shared
// state. Two execution modes:
//
//   kStaticBatch    records are buffered and condensed in one
//                   CreateCondensedGroups pass at Finish (paper Fig. 1).
//                   The cheapest mode when the whole partition fits in
//                   memory and durability is not required.
//   kDurableStream  records flow through the full supervised streaming
//                   runtime (runtime::StreamPipeline): bounded queue,
//                   retry/backoff, quarantine, circuit breaker, and a
//                   crash-safe snapshot+journal checkpoint under
//                   <checkpoint_root>/shard-<id>. Because every shard
//                   has its own checkpoint directory, a crashed shard
//                   recovers alone — the other shards' state is never
//                   read, locked, or rewritten.
//
// A shard whose partition ends below the k-floor (fewer than k records)
// emits its remainder as a single sub-k group; the coordinator folds
// those into the global structure so no record is dropped (see
// shard/coordinator.h). Per-shard ingest volume is exported as
// condensa_shard_records_total{shard="<id>"}.

#ifndef CONDENSA_SHARD_WORKER_H_
#define CONDENSA_SHARD_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend_hooks.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "runtime/pipeline.h"

namespace condensa::shard {

enum class WorkerMode {
  kStaticBatch = 0,
  kDurableStream = 1,
};

struct WorkerOptions {
  WorkerMode mode = WorkerMode::kStaticBatch;
  // The indistinguishability level k. Must be >= 1 (>= 2 in
  // kDurableStream mode — the streaming runtime refuses k = 1).
  std::size_t group_size = 10;
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;

  // kDurableStream only: parent directory; shard i checkpoints under
  // <checkpoint_root>/shard-<i>. Required in that mode.
  std::string checkpoint_root;
  std::size_t snapshot_interval = 1024;
  bool sync_every_append = true;
  // Queue bound and batch size forwarded to the shard's StreamPipeline.
  std::size_t queue_capacity = 1024;
  std::size_t batch_size = 32;
  // Seeds the shard pipeline's retry jitter. Derive per-shard values from
  // Rng::Split substreams (Router::SplitStreams) so shards never share a
  // stream.
  std::uint64_t seed = 42;

  // Stable identity for metric labels: condensa_shard_*{shard=i,
  // worker=<id>}. A restarted or rejoined worker that keeps its identity
  // keeps its series — no duplicate per-incarnation series. Empty picks
  // the default "w<shard_id>".
  std::string worker_id;

  // Anonymization backend (docs/backends.md) stamped into this shard's
  // group set and checkpoints; kStaticBatch builds its groups with
  // Backend::BuildGroups. Callers assign it from backend::Resolve.
  core::Backend backend = {};
};

class Worker {
 public:
  // Validates options and (in kDurableStream mode) starts the shard's
  // pipeline, creating or recovering <checkpoint_root>/shard-<id>.
  static StatusOr<std::unique_ptr<Worker>> Start(std::size_t shard_id,
                                                 std::size_t dim,
                                                 const WorkerOptions& options);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  std::size_t shard_id() const { return shard_id_; }
  std::size_t dim() const { return dim_; }
  const WorkerOptions& options() const { return options_; }

  // The shard's checkpoint directory ("" in kStaticBatch mode).
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

  // The resolved metric-label identity (options().worker_id or the
  // "w<shard_id>" default).
  const std::string& worker_id() const { return worker_id_; }

  // Accepts one record: buffered (batch) or enqueued (stream). Safe for
  // one producer; kDurableStream tolerates many (the queue is MPSC).
  Status Submit(const linalg::Vector& record);

  // Records accepted so far via Submit.
  std::size_t records_submitted() const { return submitted_; }

  // Blocks until every submitted record is durably in the shard's
  // custody (journaled, quarantined, or spooled) or `timeout_ms` elapses.
  // kStaticBatch mode returns OK immediately — the buffer is the custody
  // (no durability to wait for). The fabric worker acks a Submit batch
  // only after Flush, which is what makes a post-ack kill -9 lossless.
  Status Flush(double timeout_ms);

  // Records durably in this shard's custody right now: condensed records
  // recovered or applied (the checkpoint), plus live quarantine entries
  // and spooled backlog. Monotonic across restarts for clean data; the
  // fabric uses it to trim already-delivered prefixes on reconnect.
  // kStaticBatch mode counts the in-memory buffer.
  std::size_t durable_total() const;

  // Finishes ingest and surrenders the shard-local group set. Batch mode
  // condenses the buffer with `rng` (pass this shard's Router::SplitStreams
  // substream); stream mode drains and checkpoints the pipeline (rng
  // unused — pure streaming consumes no randomness, which is why the
  // sharded release is reproducible from the seed alone). Callable once.
  StatusOr<core::CondensedGroupSet> Finish(Rng& rng);

  // Stream-mode ledger from Finish (nullopt in batch mode or before
  // Finish). The caller asserts Balanced() for zero-silent-loss runs.
  const std::optional<runtime::StreamPipelineStats>& stream_stats() const {
    return stream_stats_;
  }

  // Live stream-mode counters at any point in the worker's life (nullopt
  // in batch mode). After Finish the final ledger is the better source.
  std::optional<runtime::StreamPipelineStats> live_stream_stats() const {
    if (pipeline_ == nullptr) return std::nullopt;
    return pipeline_->stats();
  }

 private:
  Worker(std::size_t shard_id, std::size_t dim, WorkerOptions options);

  const std::size_t shard_id_;
  const std::size_t dim_;
  const WorkerOptions options_;
  std::string checkpoint_dir_;
  std::string worker_id_;

  // kStaticBatch buffer.
  std::vector<linalg::Vector> buffer_;
  // kDurableStream pipeline.
  std::unique_ptr<runtime::StreamPipeline> pipeline_;
  std::optional<runtime::StreamPipelineStats> stream_stats_;

  std::size_t submitted_ = 0;
  bool finished_ = false;
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_WORKER_H_
