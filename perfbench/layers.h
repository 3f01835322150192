// Per-layer accounting shared by the workloads: counter and CPU snapshots
// taken at the edges of a measured window, and the per-layer metrics their
// differences give.
#pragma once

#include <time.h>

#include <cstdint>
#include <vector>

#include "gateway/gateway.h"
#include "harness/tcp_cluster.h"
#include "report.h"

namespace perfbench {

struct LayerSnapshot {
  fsr::TransportCounters transport;
  fsr::EngineCounters engine;
  fsr::GatewayCounters gateway;
  std::int64_t wall = 0;
  std::int64_t process_cpu = 0;
  std::vector<std::int64_t> io_cpu;      ///< per transport I/O thread
  std::vector<std::int64_t> driver_cpu;  ///< per load-generator thread
};

/// CPU clocks of every transport I/O thread, fetched on each thread.
std::vector<clockid_t> io_thread_clocks(fsr::TcpCluster& cluster);

/// Counters, wall clock and CPU clocks now. `gateway` is what the service's
/// counter accessor returned (all zero without a gateway).
LayerSnapshot take_snapshot(fsr::TcpCluster& cluster, const fsr::GatewayCounters& gateway,
                            const std::vector<clockid_t>& io_clocks,
                            const std::vector<clockid_t>& driver_clocks);

/// The counter- and CPU-derived per-layer metrics over [a, b], per `ops`
/// operations completed in that window.
void add_layer_metrics(Report& report, const LayerSnapshot& a, const LayerSnapshot& b,
                       double ops);

/// Median resident size of the process over reads spread evenly across
/// [from, until); sleeps until `until`. Taken in the warm-up, before the
/// benchmark's own per-operation records grow.
double resident_mb_over(std::int64_t from, std::int64_t until);

/// Ratio that reads 0 instead of NaN on an empty base.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One completed operation: when it finished and how long it took.
struct Timed {
  std::int64_t done = 0;
  double latency_ms = 0;
};

/// End-to-end figures of one measured window: each is the median of its
/// value over the window's sub-windows, so a stall confined to a few of them
/// (a scheduler hiccup, a table growing) moves it little. The worst
/// sub-window's p99 is kept beside it so such stalls stay visible.
struct WindowFigures {
  double throughput_ops_s = 0;
  double goodput_mbps = 0;
  double cpu_us_per_op = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double worst_p99_ms = 0;
  std::size_t samples = 0;
  unsigned tail_bp = 0;  ///< highest percentile every sub-window supports
};

/// Figures of the operations in `ops` that finished inside the window whose
/// sub-window boundaries are `edges` (ascending steady-clock ns);
/// `process_cpu` is the process CPU time read at each edge.
WindowFigures window_figures(const std::vector<Timed>& ops, const std::vector<std::int64_t>& edges,
                             const std::vector<std::int64_t>& process_cpu,
                             double payload_bytes_per_op);

/// The end-to-end metrics. `setup_s` is the median over the run's set-ups.
void add_end_to_end(Report& report, const WindowFigures& f, double setup_s, double rss_mb);

}  // namespace perfbench
