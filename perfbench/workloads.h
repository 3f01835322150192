// The benchmark's workloads and the shared shape of a run.
//
// Every workload runs 3 replicas with t = 1 over loopback TCP, with the
// engine knobs the socket benches use (8 payloads per frame, 50 us ack
// hold-back). A run sets the stack up kSetups times (each timed; the last
// one is kept), warms up, measures one window split into kSubWindows equal
// sub-windows, then quiesces and checks what the program did.
#pragma once

#include <cstdint>
#include <string>

#include "fsr/engine.h"
#include "report.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  bool ring = false;  ///< bare TcpCluster stream instead of the KV service
  // KV service load.
  bool open_loop = false;
  double rate_ops_s = 0;  ///< open loop: fixed offered rate
  std::size_t sessions = 0;
  std::size_t pipeline = 0;  ///< closed loop: outstanding per session
  double read_fraction = 0;
  bool leased_reads = false;
  // Ring stream.
  std::size_t message_bytes = 0;
  std::size_t outstanding_per_sender = 0;
  /// Broadcast size replayed through bare Engines for fsr.frame_ns.
  std::size_t replay_bytes = 0;
};

/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Outcome {
  bool correct = true;
  std::string violation;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report report;

  void fail(const std::string& why) {
    if (correct) violation = why;
    correct = false;
  }
};

// --- shared run shape ---

inline constexpr int kSetups = 15;
inline constexpr int kSubWindows = 20;
inline constexpr double kWarmupSeconds = 0.5;
/// The start-up burst reported beside the steady window.
inline constexpr double kBurstSeconds = 0.1;
inline constexpr std::size_t kNodes = 3;
inline constexpr std::size_t kValueBytes = 64;
inline constexpr std::size_t kConnections = 4;

/// Engine configuration shared by every workload.
fsr::EngineConfig engine_config(const WorkloadSpec& w);

Outcome run_kv(const WorkloadSpec& w, const RunOptions& opt);
Outcome run_ring(const WorkloadSpec& w, const RunOptions& opt);

/// Ladder rung 1: `bytes`-sized broadcasts from every one of kNodes engines
/// routed through an in-memory router (no sockets, no timers); reports the
/// median over repetitions of ns and heap allocations per routed frame.
struct ReplayResult {
  double frame_ns = 0;
  double allocs_per_frame = 0;
  bool ok = false;
};
ReplayResult replay_engines(const fsr::EngineConfig& cfg, std::size_t bytes,
                            std::uint64_t seed);

}  // namespace perfbench
