#include "workloads.h"

#include <string>

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json. The paced rate is
// about a tenth of kv-put-saturate's throughput on a 4-CPU host; it is fixed
// here, never derived from a run, so every run offers the same load.
const WorkloadSpec kWorkloads[] = {
    {.name = "kv-put-paced",
     .open_loop = true,
     .rate_ops_s = 15000,
     .sessions = 64,
     .replay_bytes = 128},
    {.name = "kv-put-saturate", .sessions = 256, .pipeline = 8, .replay_bytes = 1024},
    {.name = "kv-read-leased",
     .sessions = 256,
     .pipeline = 8,
     .read_fraction = 0.9,
     .leased_reads = true,
     .replay_bytes = 1024},
    // Three 64 KiB messages (12 segments) outstanding per node saturate the
    // ring. Measured on a 4-CPU host: at 4 per node throughput was bimodal
    // from run to run, and at 16 (192 segments in flight against a
    // 64-segment window) it ran about four times slower and swung by 20%.
    {.name = "ring-64k-stream",
     .ring = true,
     .message_bytes = 64 * 1024,
     .outstanding_per_sender = 3,
     .replay_bytes = 64 * 1024},
};

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

fsr::EngineConfig engine_config(const WorkloadSpec& w) {
  fsr::EngineConfig cfg;
  cfg.t = 1;
  cfg.max_payloads_per_frame = 8;
  cfg.ack_flush_delay = 50 * fsr::kMicrosecond;
  if (w.ring) {
    cfg.segment_size = 16 * 1024;
    cfg.window = 64;
  }
  return cfg;
}

}  // namespace perfbench
