#include "layers.h"

#include <algorithm>

#include "stats.h"
#include "sysclock.h"

namespace perfbench {

WindowFigures window_figures(const std::vector<Timed>& ops, const std::vector<std::int64_t>& edges,
                             const std::vector<std::int64_t>& process_cpu,
                             double payload_bytes_per_op) {
  const std::size_t parts = edges.size() - 1;
  std::vector<std::vector<double>> latencies(parts);
  for (const Timed& op : ops) {
    if (op.done < edges.front() || op.done >= edges.back()) continue;
    const auto part = std::upper_bound(edges.begin(), edges.end(), op.done) - edges.begin() - 1;
    latencies[static_cast<std::size_t>(part)].push_back(op.latency_ms);
  }
  WindowFigures f;
  f.tail_bp = 10000;
  std::vector<double> rate, cpu_per_op, p50, p99;
  for (std::size_t j = 0; j < parts; ++j) {
    const double n = double(latencies[j].size());
    rate.push_back(n / (double(edges[j + 1] - edges[j]) / 1e9));
    cpu_per_op.push_back(ratio(double(process_cpu[j + 1] - process_cpu[j]) / 1e3, n));
    const Summary s = summarize(std::move(latencies[j]));
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    f.samples += s.n;
    f.tail_bp = std::min(f.tail_bp, s.tail_bp);
  }
  f.throughput_ops_s = median(rate);
  f.goodput_mbps = f.throughput_ops_s * payload_bytes_per_op * 8 / 1e6;
  f.cpu_us_per_op = median(cpu_per_op);
  f.latency_p50_ms = median(p50);
  f.latency_p99_ms = median(p99);
  f.worst_p99_ms = *std::max_element(p99.begin(), p99.end());
  return f;
}

void add_end_to_end(Report& r, const WindowFigures& f, double setup_s, double rss_mb) {
  r.metric("setup_s", setup_s, "s");
  r.metric("throughput_ops_s", f.throughput_ops_s, "1/s");
  r.metric("latency_p50_ms", f.latency_p50_ms, "ms");
  r.metric("latency_p99_ms", f.latency_p99_ms, "ms");
  r.metric("goodput_mbps", f.goodput_mbps, "Mb/s");
  r.metric("cpu_us_per_op", f.cpu_us_per_op, "us");
  r.metric("rss_mb", rss_mb, "MB");
  r.detail("latency_samples", double(f.samples));
  r.detail("latency_tail_bp_supported", double(f.tail_bp));
  r.detail("latency_p99_worst_subwindow_ms", f.worst_p99_ms);
}

double resident_mb_over(std::int64_t from, std::int64_t until) {
  constexpr int kReads = 9;
  std::vector<double> mb;
  for (int k = 0; k < kReads; ++k) {
    sleep_until_ns(from + (until - from) * k / kReads);
    mb.push_back(resident_mb());
  }
  sleep_until_ns(until);
  return median(mb);
}

std::vector<clockid_t> io_thread_clocks(fsr::TcpCluster& cluster) {
  std::vector<clockid_t> clocks(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.transport(static_cast<fsr::NodeId>(i)).post_wait([&clocks, i] {
      clocks[i] = this_thread_cpu_clock();
    });
  }
  return clocks;
}

LayerSnapshot take_snapshot(fsr::TcpCluster& cluster, const fsr::GatewayCounters& gateway,
                            const std::vector<clockid_t>& io_clocks,
                            const std::vector<clockid_t>& driver_clocks) {
  LayerSnapshot s;
  s.transport = cluster.counters();
  s.engine = cluster.engine_counters();
  s.gateway = gateway;
  s.wall = now_ns();
  s.process_cpu = process_cpu_ns();
  for (clockid_t c : io_clocks) s.io_cpu.push_back(cpu_clock_ns(c));
  for (clockid_t c : driver_clocks) s.driver_cpu.push_back(cpu_clock_ns(c));
  return s;
}

void add_layer_metrics(Report& report, const LayerSnapshot& a, const LayerSnapshot& b,
                       double ops) {
  const double wall = double(b.wall - a.wall);
  auto sum_delta = [](const std::vector<std::int64_t>& x, const std::vector<std::int64_t>& y) {
    double total = 0;
    for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) total += double(y[i] - x[i]);
    return total;
  };
  double driver_max = 0;
  for (std::size_t i = 0; i < a.driver_cpu.size() && i < b.driver_cpu.size(); ++i) {
    driver_max = std::max(driver_max, double(b.driver_cpu[i] - a.driver_cpu[i]));
  }
  const double io = sum_delta(a.io_cpu, b.io_cpu);
  const double driver = sum_delta(a.driver_cpu, b.driver_cpu);
  const double process = double(b.process_cpu - a.process_cpu);
  report.metric("transport.io_cpu_util", ratio(io, wall), "cores");
  report.metric("gateway.loop_cpu_util", ratio(std::max(0.0, process - io - driver), wall),
                "cores");
  report.metric("driver.cpu_util", ratio(driver_max, wall), "cores");

  auto d = [](std::uint64_t x, std::uint64_t y) { return double(y - x); };
  const fsr::TransportCounters& ta = a.transport;
  const fsr::TransportCounters& tb = b.transport;
  report.metric("transport.tx_syscalls_per_op", ratio(d(ta.tx_syscalls, tb.tx_syscalls), ops),
                "count");
  report.metric("transport.rx_syscalls_per_op", ratio(d(ta.rx_syscalls, tb.rx_syscalls), ops),
                "count");
  report.metric("transport.frames_per_op", ratio(d(ta.tx_frames, tb.tx_frames), ops), "count");
  report.metric("transport.bytes_per_op", ratio(d(ta.tx_bytes, tb.tx_bytes), ops), "B");
  report.metric("transport.iov_per_sendmsg",
                ratio(d(ta.tx_chunks, tb.tx_chunks), d(ta.tx_syscalls, tb.tx_syscalls)), "count");
  report.metric("transport.payload_copies_per_op",
                ratio(d(ta.tx_payload_copies, tb.tx_payload_copies) +
                          d(ta.rx_payload_copies, tb.rx_payload_copies),
                      ops),
                "count");

  const fsr::EngineCounters& ea = a.engine;
  const fsr::EngineCounters& eb = b.engine;
  report.metric("fsr.reassembly_bytes_per_op",
                ratio(d(ea.reassembly_bytes, eb.reassembly_bytes), ops), "B");
  const double hits = d(ea.piggyback_hits, eb.piggyback_hits);
  report.metric("fsr.piggyback_ratio",
                ratio(hits, hits + d(ea.piggyback_misses, eb.piggyback_misses)), "ratio");
  const double pooled = d(ea.records_pooled, eb.records_pooled);
  report.metric("fsr.pooled_ratio",
                ratio(pooled, pooled + d(ea.records_allocated, eb.records_allocated)), "ratio");

  const fsr::GatewayCounters& ga = a.gateway;
  const fsr::GatewayCounters& gb = b.gateway;
  report.metric("gateway.envelopes_per_flush",
                ratio(d(ga.coalesced_envelopes, gb.coalesced_envelopes),
                      d(ga.coalesce_flushes, gb.coalesce_flushes)),
                "count");
  report.metric("gateway.reject_ratio",
                ratio(d(ga.rejected_window, gb.rejected_window) +
                          d(ga.rejected_bytes, gb.rejected_bytes),
                      d(ga.requests, gb.requests)),
                "ratio");
  report.metric("gateway.reads_local_ratio",
                ratio(d(ga.reads_local, gb.reads_local), d(ga.reads, gb.reads)), "ratio");
  report.metric("gateway.lease_grants",
                ratio(d(ga.lease_grants_sent, gb.lease_grants_sent), wall / 1e9), "1/s");
}

}  // namespace perfbench
