// KV service workloads: closed- and open-loop client load against three
// replicas, measured end to end through TcpGatewayCluster, and per layer
// through a traced assembly of the same public parts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "app/kv_store.h"
#include "gateway/shard_router.h"
#include "gateway/tcp_gateway.h"
#include "kv_load.h"
#include "layers.h"
#include "stats.h"
#include "sysclock.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr std::int64_t kConvergeTimeoutNs = 10'000'000'000;
/// Quiet gap between set-up and the first request.
constexpr std::int64_t kStartDelayNs = 20'000'000;
constexpr std::size_t kKeyspace = 4096;
/// With tracing off, the traced assembly must run within the trace overhead
/// of TcpGatewayCluster's throughput, plus this much run-to-run noise
/// (percent); otherwise the trace describes another program.
constexpr double kAssemblyTolerancePct = 15;

fsr::TcpGatewayClusterConfig service_config(const WorkloadSpec& w) {
  fsr::TcpGatewayClusterConfig cfg;
  cfg.n = kNodes;
  cfg.group.engine = engine_config(w);
  cfg.gateway.read_mode =
      w.leased_reads ? fsr::GatewayReadMode::kLeased : fsr::GatewayReadMode::kLocal;
  return cfg;
}

/// One timestamp pair recorded on a replica's I/O thread: the SubmitFn call
/// (admit) or a delivery, with `t1` the end of Gateway::on_delivery.
struct SpanEvent {
  std::uint64_t key = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  bool admit = false;
};

struct NodeTrace {
  std::vector<SpanEvent> events;
  std::vector<double> apply_ns;  ///< on_delivery at the batch's owner
  std::vector<std::uint64_t> scratch;
};

/// Request keys of the gateway envelopes in a broadcast payload (a single
/// envelope or a coalesced batch; lease grants carry none).
void envelope_keys(const fsr::Payload& p, std::vector<std::uint64_t>& out) {
  out.clear();
  auto one = [&out](const fsr::Payload& e) {
    if (e.empty()) return;
    if (e.data()[0] == fsr::kEnvelopeMagic) {
      if (auto c = fsr::parse_envelope(e)) {
        out.push_back(request_key(c->client_id, c->session_seq, false));
      }
    } else if (e.data()[0] == fsr::kReadEnvelopeMagic) {
      if (auto r = fsr::parse_read_envelope(e)) {
        out.push_back(request_key(r->client_id, r->read_seq, true));
      }
    }
  };
  if (p.empty()) return;
  try {
    if (p.data()[0] == fsr::kBatchEnvelopeMagic) {
      const auto subs = fsr::parse_batch_envelope(p);
      for (const fsr::Payload& e : *subs) one(e);
    } else {
      one(p);
    }
  } catch (const fsr::CodecError&) {
    out.clear();
  }
}

/// The replicated KV service assembled from the same public constructors
/// TcpGatewayCluster uses (S = 1), with the two callbacks wrapped: the
/// gateway's SubmitFn and the cluster's delivery tap, which times
/// Gateway::on_delivery. With tracing off the wrappers only test a flag.
class TracedKvService {
 public:
  explicit TracedKvService(const fsr::TcpGatewayClusterConfig& config) : traces_(config.n) {
    const std::size_t n = config.n;
    cluster_ = std::make_unique<fsr::TcpCluster>(
        n, config.group,
        [this](fsr::NodeId id, const fsr::Delivery& d) { on_delivery(id, d); },
        /*autostart=*/false, fsr::GroupId{1});
    for (std::size_t i = 0; i < n; ++i) {
      auto id = static_cast<fsr::NodeId>(i);
      stores_.push_back(std::make_unique<fsr::KvStore>());
      gateways_.push_back(std::make_unique<fsr::Gateway>(
          cluster_->member(id), *stores_.back(), config.gateway,
          [this, id](fsr::Payload p) { on_submit(id, std::move(p)); }));
      routers_.push_back(std::make_unique<fsr::ShardRouter>(
          std::vector<fsr::Gateway*>{gateways_.back().get()}, fsr::ShardMap(1)));
    }
    cluster_->start_all();
    for (std::size_t i = 0; i < n; ++i) {
      servers_.push_back(std::make_unique<fsr::GatewayServer>(
          cluster_->transport(static_cast<fsr::NodeId>(i)), *routers_[i], config.server));
      servers_.back()->start(0);
    }
  }

  ~TracedKvService() {
    for (auto& s : servers_) s->stop();
    cluster_.reset();  // joins the I/O threads before the gateways go
  }

  TracedKvService(const TracedKvService&) = delete;
  TracedKvService& operator=(const TracedKvService&) = delete;

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  std::vector<fsr::GatewayEndpoint> endpoints() const {
    std::vector<fsr::GatewayEndpoint> out;
    for (const auto& s : servers_) out.push_back({"127.0.0.1", s->port()});
    return out;
  }
  fsr::TcpCluster& cluster() { return *cluster_; }
  fsr::KvStore& store(fsr::NodeId node) { return *stores_[node]; }
  std::string check_invariants() const { return cluster_->check_invariants(); }

  fsr::GatewayCounters gateway_counters() const {
    fsr::GatewayCounters total;
    for (std::size_t i = 0; i < routers_.size(); ++i) {
      fsr::GatewayCounters c;
      cluster_->transport(static_cast<fsr::NodeId>(i)).post_wait([&] {
        fsr::ShardRouter& rt = *routers_[i];
        fsr::ThreadRoleRegion role(rt.role());
        c = rt.counters();
      });
      total += c;
    }
    return total;
  }

  std::vector<std::uint64_t> fingerprints() const {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < stores_.size(); ++i) {
      std::uint64_t fp = 0;
      cluster_->transport(static_cast<fsr::NodeId>(i)).post_wait([&] {
        fp = stores_[i]->fingerprint();
      });
      out.push_back(fp);
    }
    return out;
  }

  /// Read once the phase is over (after a post_wait on every transport).
  const std::vector<NodeTrace>& traces() const { return traces_; }

 private:
  void on_submit(fsr::NodeId id, fsr::Payload p) {
    if (tracing_.load(std::memory_order_relaxed)) {
      const std::int64_t t = now_ns();
      NodeTrace& tr = traces_[id];
      envelope_keys(p, tr.scratch);
      for (std::uint64_t k : tr.scratch) tr.events.push_back({k, t, t, true});
    }
    cluster_->submit_from_io(id, std::move(p));
  }

  void on_delivery(fsr::NodeId id, const fsr::Delivery& d) {
    fsr::Gateway& gw = *gateways_[id];
    if (!tracing_.load(std::memory_order_relaxed)) {
      fsr::ThreadRoleRegion role(gw.role());
      gw.on_delivery(d);
      return;
    }
    const std::int64_t t0 = now_ns();
    {
      fsr::ThreadRoleRegion role(gw.role());
      gw.on_delivery(d);
    }
    const std::int64_t t1 = now_ns();
    NodeTrace& tr = traces_[id];
    envelope_keys(d.payload, tr.scratch);
    for (std::uint64_t k : tr.scratch) tr.events.push_back({k, t0, t1, false});
    if (d.origin == id) tr.apply_ns.push_back(double(t1 - t0));
  }

  std::atomic<bool> tracing_{false};
  std::vector<NodeTrace> traces_;  ///< [node], touched by that node's I/O thread
  std::unique_ptr<fsr::TcpCluster> cluster_;
  std::vector<std::unique_ptr<fsr::KvStore>> stores_;
  std::vector<std::unique_ptr<fsr::Gateway>> gateways_;
  std::vector<std::unique_ptr<fsr::ShardRouter>> routers_;
  std::vector<std::unique_ptr<fsr::GatewayServer>> servers_;
};

/// Everything one measured phase produced.
struct KvPhase {
  std::vector<double> setup_s;
  KvLoadTotals totals;
  std::vector<Completion> done;       ///< completions inside the window
  std::vector<std::int64_t> edges;    ///< kSubWindows + 1 sub-window edges
  std::vector<std::int64_t> process_cpu;  ///< at each edge
  LayerSnapshot first, last;          ///< at the window's edges
  fsr::GatewayCounters before_load, after_burst;
  double burst_s = 0;
  double window_s = 0;
  double rss_mb = 0;  ///< in the warm-up
  std::vector<NodeTrace> traces;      ///< traced phase only
  std::string violation;
};

/// The correctness gate after quiesce: every replica applied exactly the
/// acknowledged PUTs, the replicas' states agree, and the ring's safety
/// invariants hold.
template <class Service>
std::string check_kv(Service& svc, const KvLoadTotals& t) {
  if (t.bad_replies > 0) return std::to_string(t.bad_replies) + " replies with wrong content";
  auto applied = [&svc](std::size_t i) {
    std::uint64_t v = 0;
    svc.cluster().transport(static_cast<fsr::NodeId>(i)).post_wait([&] {
      v = svc.store(static_cast<fsr::NodeId>(i)).applied_commands();
    });
    return v;
  };
  const std::int64_t deadline = now_ns() + kConvergeTimeoutNs;
  for (;;) {
    bool caught_up = true;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const std::uint64_t a = applied(i);
      if (a > t.acked_puts) {
        return "replica " + std::to_string(i) + " applied " + std::to_string(a) +
               " commands for " + std::to_string(t.acked_puts) + " acknowledged PUTs";
      }
      caught_up = caught_up && a == t.acked_puts;
    }
    if (caught_up) break;
    if (now_ns() > deadline) return "replicas did not apply every acknowledged PUT";
    sleep_until_ns(now_ns() + 2'000'000);
  }
  const std::vector<std::uint64_t> fps = svc.fingerprints();
  if (std::adjacent_find(fps.begin(), fps.end(), std::not_equal_to<>()) != fps.end()) {
    return "replica state fingerprints disagree";
  }
  return svc.check_invariants();
}

template <class Service>
KvPhase run_phase(const WorkloadSpec& w, const RunOptions& opt, double window_s, int setups,
                  bool traced) {
  KvLoadSpec spec;
  spec.sessions = w.sessions;
  spec.connections = kConnections;
  spec.open_loop = w.open_loop;
  spec.rate_ops_s = w.rate_ops_s;
  spec.pipeline = w.pipeline;
  spec.read_fraction = w.read_fraction;
  spec.value_bytes = kValueBytes;
  spec.keyspace = kKeyspace;
  spec.seed = opt.seed;

  KvPhase ph;
  const fsr::TcpGatewayClusterConfig cfg = service_config(w);
  std::unique_ptr<Service> svc;
  std::unique_ptr<KvLoad> load;
  for (int k = 0; k < setups; ++k) {
    load.reset();
    svc.reset();
    const std::int64_t t = now_ns();
    svc = std::make_unique<Service>(cfg);
    load = std::make_unique<KvLoad>(spec, svc->endpoints());
    load->connect_and_hello();
    ph.setup_s.push_back(double(now_ns() - t) / 1e9);
  }

  const std::vector<clockid_t> io_clocks = io_thread_clocks(svc->cluster());
  LoadSchedule when;
  when.start = now_ns() + kStartDelayNs;
  when.burst_until = when.start + static_cast<std::int64_t>(kBurstSeconds * 1e9);
  when.keep_from = when.start + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  when.keep_until = when.keep_from + static_cast<std::int64_t>(window_s * 1e9);
  ph.burst_s = kBurstSeconds;
  ph.window_s = window_s;
  for (int j = 0; j <= kSubWindows; ++j) {
    ph.edges.push_back(when.keep_from + (when.keep_until - when.keep_from) * j / kSubWindows);
  }

  ph.before_load = svc->gateway_counters();
  load->start(when);
  sleep_until_ns(when.burst_until);
  ph.after_burst = svc->gateway_counters();
  ph.rss_mb = resident_mb_over((when.start + when.keep_from) / 2, when.keep_from);
  for (int j = 0; j <= kSubWindows; ++j) {
    sleep_until_ns(ph.edges[j]);
    ph.process_cpu.push_back(process_cpu_ns());
    if (j == 0) {
      if constexpr (requires { svc->set_tracing(true); }) svc->set_tracing(traced);
      ph.first = take_snapshot(svc->cluster(), svc->gateway_counters(), io_clocks,
                               load->cpu_clocks());
    }
  }
  ph.last = take_snapshot(svc->cluster(), svc->gateway_counters(), io_clocks,
                          load->cpu_clocks());
  if constexpr (requires { svc->set_tracing(false); }) svc->set_tracing(false);
  load->drain_and_join(kDrainTimeoutNs);
  ph.totals = load->totals();
  ph.done = load->completions();
  ph.violation = check_kv(*svc, ph.totals);
  if constexpr (requires { svc->traces(); }) ph.traces = svc->traces();
  load.reset();
  svc.reset();
  return ph;
}

/// Latency is timed from when each request was due.
WindowFigures figures(const KvPhase& ph) {
  std::vector<Timed> ops;
  ops.reserve(ph.done.size());
  for (const Completion& c : ph.done) ops.push_back({c.done, double(c.done - c.due) / 1e6});
  return window_figures(ops, ph.edges, ph.process_cpu, double(kValueBytes));
}

double window_ops_s(const KvPhase& ph) { return figures(ph).throughput_ops_s; }

void add_kv_end_to_end(Report& r, const KvPhase& ph) {
  add_end_to_end(r, figures(ph), median(ph.setup_s), ph.rss_mb);
  r.detail("failed_ratio", ratio(double(ph.totals.failed), double(ph.totals.attempted)));
}

/// The start-up burst beside the steady window, so the transient stays
/// visible instead of leaking into the window.
void add_burst(Report& r, const KvPhase& ph, bool as_metrics) {
  const double burst_ops = double(ph.totals.burst_completions) / ph.burst_s;
  const double burst_epf = ratio(
      double(ph.after_burst.coalesced_envelopes - ph.before_load.coalesced_envelopes),
      double(ph.after_burst.coalesce_flushes - ph.before_load.coalesce_flushes));
  if (as_metrics) {
    r.metric("driver.burst_ops_s", burst_ops, "1/s");
    r.metric("gateway.burst_envelopes_per_flush", burst_epf, "count");
    r.metric("driver.window_ops_s", window_ops_s(ph), "1/s");
  } else {
    r.detail("burst_ops_s", burst_ops);
    r.detail("burst_envelopes_per_flush", burst_epf);
  }
}

/// Per-request spans from the traced phase, joined on (client_id, seq).
void add_spans(Report& r, const KvPhase& traced) {
  struct Stamps {
    std::int64_t sent = 0, done = 0, admit = 0;
    int owner = -1;
    std::int64_t deliver[kNodes] = {};
    std::int64_t applied[kNodes] = {};
  };
  std::unordered_map<std::uint64_t, Stamps> by_key;
  by_key.reserve(traced.done.size());
  for (const Completion& c : traced.done) by_key[c.key] = Stamps{c.sent, c.done};
  std::vector<double> apply;
  for (std::size_t i = 0; i < traced.traces.size(); ++i) {
    const NodeTrace& tr = traced.traces[i];
    apply.insert(apply.end(), tr.apply_ns.begin(), tr.apply_ns.end());
    for (const SpanEvent& e : tr.events) {
      auto it = by_key.find(e.key);
      if (it == by_key.end()) continue;
      if (e.admit) {
        it->second.admit = e.t0;
        it->second.owner = static_cast<int>(i);
      } else {
        it->second.deliver[i] = e.t0;
        it->second.applied[i] = e.t1;
      }
    }
  }
  std::vector<double> admit, order, stable, reply;
  for (const auto& [key, s] : by_key) {
    if (s.owner < 0 || s.admit < s.sent) continue;
    const std::int64_t* last = std::max_element(std::begin(s.deliver), std::end(s.deliver));
    if (*std::min_element(std::begin(s.deliver), std::end(s.deliver)) == 0) continue;
    admit.push_back(double(s.admit - s.sent) / 1e6);
    order.push_back(double(s.deliver[s.owner] - s.admit) / 1e6);
    stable.push_back(double(*last - s.admit) / 1e6);
    reply.push_back(double(s.done - s.applied[s.owner]) / 1e6);
  }
  const Summary a = summarize(admit), o = summarize(order), st = summarize(stable),
                rp = summarize(reply);
  r.metric("gateway.admit_p50_ms", a.p50, "ms");
  r.metric("gateway.admit_p99_ms", a.p99, "ms");
  r.metric("ring.order_p50_ms", o.p50, "ms");
  r.metric("ring.stable_p50_ms", st.p50, "ms");
  r.metric("ring.stable_p99_ms", st.p99, "ms");
  r.metric("gateway.apply_us", median(apply) / 1e3, "us");
  r.metric("gateway.reply_p50_ms", rp.p50, "ms");
  r.metric("gateway.reply_p99_ms", rp.p99, "ms");
  r.detail("traced_requests", double(a.n));
}

void add_lag(Report& r, const KvPhase& ph) {
  std::vector<double> lag;
  lag.reserve(ph.done.size());
  for (const Completion& c : ph.done) lag.push_back(double(c.sent - c.due) / 1e6);
  r.metric("driver.lag_p99_ms", summarize(lag).p99, "ms");
}

void account(Outcome& out, const KvPhase& ph, const char* phase) {
  out.attempted += ph.totals.attempted;
  out.failed += ph.totals.failed;
  if (!ph.violation.empty()) out.fail(std::string(phase) + ": " + ph.violation);
}

}  // namespace

Outcome run_kv(const WorkloadSpec& w, const RunOptions& opt) {
  Outcome out;
  if (!opt.trace) {
    const KvPhase ph = run_phase<fsr::TcpGatewayCluster>(w, opt, opt.seconds, kSetups, false);
    account(out, ph, "TcpGatewayCluster");
    add_kv_end_to_end(out.report, ph);
    add_burst(out.report, ph, false);
    return out;
  }
  // Traced run: the real service untraced (counters, CPU, burst), then the
  // traced assembly with tracing off and on (overhead, spans).
  const double third = opt.seconds / 3;
  const KvPhase plain = run_phase<fsr::TcpGatewayCluster>(w, opt, third, 1, false);
  const KvPhase quiet = run_phase<TracedKvService>(w, opt, third, 1, false);
  const KvPhase traced = run_phase<TracedKvService>(w, opt, third, 1, true);
  account(out, plain, "TcpGatewayCluster");
  account(out, quiet, "traced assembly, tracing off");
  account(out, traced, "traced assembly, tracing on");

  Report& r = out.report;
  add_layer_metrics(r, plain.first, plain.last, double(plain.done.size()));
  add_lag(r, plain);
  add_burst(r, plain, true);
  add_spans(r, traced);
  const double base = window_ops_s(quiet);
  const double real = window_ops_s(plain);
  const double overhead = ratio(base - window_ops_s(traced), base) * 100;
  const double delta = ratio(base - real, real) * 100;
  r.metric("trace_overhead_pct", overhead, "%");
  r.metric("trace.assembly_delta_pct", delta, "%");
  if (std::abs(delta) > std::abs(overhead) + kAssemblyTolerancePct) {
    out.fail("the traced assembly with tracing off runs " + Report::number(delta) +
             "% off TcpGatewayCluster's throughput, more than the trace overhead (" +
             Report::number(overhead) + "%) allows");
  }
  const ReplayResult rep = replay_engines(engine_config(w), w.replay_bytes, opt.seed);
  if (!rep.ok) out.fail("engine replay stalled");
  r.metric("fsr.frame_ns", rep.frame_ns, "ns");
  r.metric("fsr.allocs_per_frame", rep.allocs_per_frame, "count");
  return out;
}

}  // namespace perfbench
