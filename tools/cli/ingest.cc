// condensa ingest: streams a CSV into a crash-safe checkpointed
// condenser. Re-running with the same --checkpoint-dir resumes from the
// recovered state, so a stream can be fed in daily batches (or restarted
// after a crash) without losing acknowledged records.

#include <cstdio>

#include "cli/common.h"
#include "core/checkpointing.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  core::DynamicCondenserOptions options;
  core::DurabilityOptions durability;
  std::string input, dir, backend_id;
  std::uint64_t seed{};
  bool header{}, no_sync{};
  flags.Text("input", "FILE", &input, "", "records CSV").Required();
  flags.Text("checkpoint-dir", "DIR", &dir, "",
             "snapshot+journal directory; re-running resumes from the "
             "recovered state")
      .Required();
  flags.Size("k", &options.group_size, 10, "indistinguishability level")
      .Min(1);
  flags.Text("backend", "ID", &backend_id,
             core::CondensedGroupSet::kDefaultBackendId,
             "anonymization backend stamped into the checkpoints");
  flags.Size("snapshot-every", &durability.snapshot_interval, 1024,
             "journal appends per snapshot")
      .Min(1);
  flags.Bool("no-sync", &no_sync, "skip fsync per append (faster, less safe)");
  flags.Bool("header", &header, "first CSV row is a header");
  flags.Seed("seed", &seed, 42, "RNG seed for the bootstrap pass");
  if (!flags.Parse()) return flags.exit_code();
  if (int code = ResolveBackend(backend_id, &options.backend)) return code;

  data::Dataset dataset(0);
  if (int code =
          LoadCsv(input, data::TaskType::kUnlabeled, header, -1, &dataset)) {
    return code;
  }
  durability.sync_every_append = !no_sync;
  auto durable =
      core::DurableCondenser::Open(dataset.dim(), options, durability, dir);
  if (!durable.ok()) return Fail("error opening " + dir, durable.status());

  const std::size_t already_seen = durable->records_seen();
  if (already_seen > 0) {
    std::fprintf(stderr, "resuming from %s: %zu records already ingested\n",
                 dir.c_str(), already_seen);
  }
  Rng rng(seed);
  if (already_seen == 0 && dataset.size() >= options.group_size) {
    // Fresh state: bootstrap the whole batch statically (paper's initial
    // database D); later batches stream one record at a time.
    Status status = durable->Bootstrap(dataset.records(), rng);
    if (!status.ok()) return Fail("ingest failed", status);
  } else {
    for (const linalg::Vector& record : dataset.records()) {
      Status status = durable->Insert(record);
      if (!status.ok()) {
        std::fprintf(stderr, "ingest failed after %zu records: %s\n",
                     durable->records_seen() - already_seen,
                     status.ToString().c_str());
        return 1;
      }
    }
  }
  Status final_status = durable->Checkpoint();
  if (!final_status.ok()) return Fail("final checkpoint failed", final_status);
  std::fprintf(stderr,
               "ingested %zu records from %s (total %zu, snapshot %zu)\n",
               durable->records_seen() - already_seen, input.c_str(),
               durable->records_seen(), durable->snapshot_sequence());
  PrintGroupSummary(durable->groups(), "");
  return 0;
}

}  // namespace

const Command kIngestCommand = {
    "ingest", "stream a CSV into a crash-safe condenser", nullptr, Run};

}  // namespace condensa::cli
