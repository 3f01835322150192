// The bare ring: every node streams large messages through
// TcpCluster::broadcast with a bounded number outstanding per node. One
// sender thread feeds all nodes in turn, so the load adds one thread, not one
// per node, to the three I/O threads. A message completes when the last node
// delivers it.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <latch>
#include <memory>

#include "common/rng.h"
#include "common/sync.h"
#include "layers.h"
#include "stats.h"
#include "sysclock.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr std::int64_t kStartDelayNs = 20'000'000;
/// Messages per sender a run can issue (far above what a window sends).
constexpr std::size_t kCapacity = std::size_t{1} << 17;
/// Stream payloads start with [u32 origin][u64 index]; shorter payloads are
/// set-up probes.
constexpr std::size_t kHeader = 12;
constexpr std::size_t kPoolBuffers = 4;

struct Sample {
  std::int64_t done = 0;
  std::int64_t latency = 0;
};

class RingStream {
 public:
  RingStream(const WorkloadSpec& w, std::uint64_t seed, bool traced) : w_(w) {
    for (auto& o : origins_) {
      o.counts.reset(new std::atomic<std::uint8_t>[kCapacity]);
      o.sent_at.reset(new std::atomic<std::int64_t>[kCapacity]);
      for (std::size_t i = 0; i < kCapacity; ++i) {
        o.counts[i].store(0, std::memory_order_relaxed);
        o.sent_at[i].store(0, std::memory_order_relaxed);
      }
      if (traced) o.deliver_at.reset(new std::int64_t[kCapacity * kNodes]());
    }
    fsr::Rng rng(seed);
    for (std::size_t b = 0; b < kPoolBuffers; ++b) {
      fsr::Bytes buf(w.message_bytes);
      for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.next());
      pool_.push_back(std::move(buf));
    }
  }

  ~RingStream() {
    stop_sender();
    cluster_.reset();
  }

  RingStream(const RingStream&) = delete;
  RingStream& operator=(const RingStream&) = delete;

  /// Build the cluster and send one tiny broadcast from every node; returns
  /// once all of them are delivered everywhere, so the ring's connections
  /// are up and every node has sequenced traffic. This is the timed set-up.
  void connect() {
    fsr::GroupConfig group;
    group.engine = engine_config(w_);
    cluster_ = std::make_unique<fsr::TcpCluster>(
        kNodes, group, [this](fsr::NodeId id, const fsr::Delivery& d) { on_delivery(id, d); });
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster_->broadcast(static_cast<fsr::NodeId>(i), fsr::Bytes{1, 2, 3, 4});
    }
    while (probes_.load() < int(kNodes * kNodes)) sleep_until_ns(now_ns() + 20'000);
  }

  void start(std::int64_t t0) {
    std::latch ready(1);
    sender_ = fsr::Thread([this, t0, &ready] {
      sender_clocks_.assign(1, this_thread_cpu_clock());
      ready.count_down();
      send_loop(t0);
    });
    ready.wait();
  }

  /// Stop issuing, join the sender and wait for every message in flight.
  /// Returns the number never fully delivered.
  std::uint64_t drain() {
    stop_sender();
    const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
    for (;;) {
      int left = 0;
      {
        fsr::MutexLock lock(mu_);
        for (int n : outstanding_) left += n;
      }
      if (left == 0) return 0;
      if (now_ns() > deadline) return static_cast<std::uint64_t>(left);
      sleep_until_ns(now_ns() + 1'000'000);
    }
  }

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  fsr::TcpCluster& cluster() { return *cluster_; }
  const std::vector<clockid_t>& sender_clocks() const { return sender_clocks_; }

  /// After drain(): every issued message reached every node, and the
  /// ring's invariants hold.
  std::string check() {
    for (std::size_t o = 0; o < kNodes; ++o) {
      for (std::uint64_t i = 0; i < origins_[o].issued; ++i) {
        if (origins_[o].counts[i].load() != kNodes) {
          return "message " + std::to_string(i) + " of node " + std::to_string(o) +
                 " reached " + std::to_string(origins_[o].counts[i].load()) + " nodes";
        }
      }
      if (origins_[o].issued >= kCapacity) return "sender ran out of message slots";
    }
    return cluster_->check_invariants();
  }

  /// Results, valid once drain() and check() returned.
  std::uint64_t issued() const {
    std::uint64_t n = 0;
    for (const auto& o : origins_) n += o.issued;
    return n;
  }
  std::vector<Sample> samples() const {
    std::vector<Sample> all;
    for (const auto& s : node_samples_) all.insert(all.end(), s.begin(), s.end());
    return all;
  }
  std::vector<double> lags_ms(std::int64_t from, std::int64_t until) const {
    std::vector<double> out;
    for (const auto& o : origins_) {
      for (std::uint64_t i = 0; i < o.issued; ++i) {
        const std::int64_t sent = o.sent_at[i].load(std::memory_order_relaxed);
        if (sent >= from && sent < until) out.push_back(double(o.lag[i]) / 1e6);
      }
    }
    return out;
  }
  /// (broadcast -> delivered at the origin, broadcast -> delivered at the
  /// last node) for messages broadcast inside [from, until) while traced.
  void spans(std::int64_t from, std::int64_t until, std::vector<double>& order,
             std::vector<double>& stable) const {
    for (std::size_t o = 0; o < kNodes; ++o) {
      const Origin& org = origins_[o];
      if (!org.deliver_at) continue;
      for (std::uint64_t i = 0; i < org.issued; ++i) {
        const std::int64_t sent = org.sent_at[i].load(std::memory_order_relaxed);
        if (sent < from || sent >= until) continue;
        const std::int64_t* d = &org.deliver_at[i * kNodes];
        if (*std::min_element(d, d + kNodes) == 0) continue;
        order.push_back(double(d[o] - sent) / 1e6);
        stable.push_back(double(*std::max_element(d, d + kNodes) - sent) / 1e6);
      }
    }
  }

 private:
  struct Origin {
    std::unique_ptr<std::atomic<std::uint8_t>[]> counts;  ///< nodes that delivered
    std::unique_ptr<std::atomic<std::int64_t>[]> sent_at;
    std::unique_ptr<std::int64_t[]> deliver_at;  ///< [index * kNodes + node]; traced runs
    std::vector<std::int64_t> lag;               ///< sender thread only
    std::uint64_t issued = 0;                    ///< sender thread only
  };

  void on_delivery(fsr::NodeId id, const fsr::Delivery& d) {
    const fsr::Payload& p = d.payload;
    if (p.size() < kHeader) {
      probes_.fetch_add(1);
      return;
    }
    std::uint32_t origin = 0;
    std::uint64_t index = 0;
    std::memcpy(&origin, p.data(), 4);
    std::memcpy(&index, p.data() + 4, 8);
    if (origin >= kNodes || index >= kCapacity) return;  // the checker reports it
    Origin& o = origins_[origin];
    const std::int64_t t = now_ns();
    if (o.deliver_at && tracing_.load(std::memory_order_relaxed)) {
      o.deliver_at[index * kNodes + id] = t;
    }
    if (o.counts[index].fetch_add(1) + 1 != kNodes) return;
    node_samples_[id].push_back({t, t - o.sent_at[index].load(std::memory_order_relaxed)});
    {
      fsr::MutexLock lock(mu_);
      --outstanding_[origin];
      freed_at_[origin].push_back(t);
    }
    cv_.notify_one();
  }

  /// Keeps every node at its bound of outstanding messages, visiting the
  /// nodes in turn. A message sent into a slot a completion freed is due
  /// when that slot came free; the rest (the first fill) are due when sent.
  void send_loop(std::int64_t t0) {
    const int limit = static_cast<int>(w_.outstanding_per_sender);
    sleep_until_ns(t0);
    for (std::size_t turn = 0;; ++turn) {
      std::size_t origin = 0;
      std::int64_t due = 0;
      {
        fsr::MutexLock lock(mu_);
        auto open = [&]() FSR_NO_THREAD_SAFETY_ANALYSIS {
          for (std::size_t k = 0; k < kNodes; ++k) {
            if (outstanding_[(turn + k) % kNodes] < limit) return true;
          }
          return false;
        };
        cv_.wait(mu_, [&]() FSR_NO_THREAD_SAFETY_ANALYSIS {
          return stopping_.load() || open();
        });
        if (stopping_.load()) return;
        for (std::size_t k = 0; k < kNodes; ++k) {
          origin = (turn + k) % kNodes;
          if (outstanding_[origin] < limit) break;
        }
        if (origins_[origin].issued >= kCapacity) return;  // check() reports it
        ++outstanding_[origin];
        if (!freed_at_[origin].empty()) {
          due = freed_at_[origin].front();
          freed_at_[origin].pop_front();
        }
      }
      Origin& o = origins_[origin];
      const std::uint64_t index = o.issued;
      fsr::Bytes payload = pool_[index % pool_.size()];
      const auto origin32 = static_cast<std::uint32_t>(origin);
      std::memcpy(payload.data(), &origin32, 4);
      std::memcpy(payload.data() + 4, &index, 8);
      const std::int64_t t = now_ns();
      o.lag.push_back(due == 0 ? 0 : t - due);
      o.sent_at[index].store(t, std::memory_order_relaxed);
      ++o.issued;
      cluster_->broadcast(static_cast<fsr::NodeId>(origin), std::move(payload));
    }
  }

  void stop_sender() {
    {
      fsr::MutexLock lock(mu_);
      stopping_.store(true);
    }
    cv_.notify_all();
    if (sender_.joinable()) sender_.join();
  }

  const WorkloadSpec& w_;
  std::vector<fsr::Bytes> pool_;
  Origin origins_[kNodes];
  std::vector<Sample> node_samples_[kNodes];  ///< [node], its I/O thread only
  fsr::Mutex mu_;
  fsr::CondVar cv_;
  int outstanding_[kNodes] FSR_GUARDED_BY(mu_) = {};
  /// When each completed message freed its node's slot, oldest first.
  std::deque<std::int64_t> freed_at_[kNodes] FSR_GUARDED_BY(mu_);
  std::atomic<int> probes_{0};
  std::atomic<bool> tracing_{false};
  std::atomic<bool> stopping_{false};
  std::vector<clockid_t> sender_clocks_;
  std::unique_ptr<fsr::TcpCluster> cluster_;
  fsr::Thread sender_;
};

struct RingPhase {
  std::vector<double> setup_s;
  std::vector<Timed> ops;  ///< every completed message
  std::vector<std::int64_t> edges;
  std::vector<std::int64_t> process_cpu;
  LayerSnapshot first, last;
  std::int64_t start = 0;
  double window_s = 0;
  double rss_mb = 0;  ///< in the warm-up
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> lag_ms, order_ms, stable_ms;
  std::string violation;

  WindowFigures figures(double message_bytes) const {
    return window_figures(ops, edges, process_cpu, message_bytes);
  }
  double window_ops_s() const { return figures(0).throughput_ops_s; }
  std::size_t burst_completions() const {
    std::size_t n = 0;
    const auto until = start + static_cast<std::int64_t>(kBurstSeconds * 1e9);
    for (const Timed& op : ops) n += op.done < until;
    return n;
  }
};

RingPhase run_phase(const WorkloadSpec& w, const RunOptions& opt, double window_s, int setups,
                    bool traced) {
  RingPhase ph;
  std::unique_ptr<RingStream> stream;
  for (int k = 0; k < setups; ++k) {
    stream.reset();
    stream = std::make_unique<RingStream>(w, opt.seed, traced);
    const std::int64_t t = now_ns();
    stream->connect();
    ph.setup_s.push_back(double(now_ns() - t) / 1e9);
  }
  const std::vector<clockid_t> io_clocks = io_thread_clocks(stream->cluster());
  ph.start = now_ns() + kStartDelayNs;
  ph.window_s = window_s;
  const std::int64_t from = ph.start + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const std::int64_t until = from + static_cast<std::int64_t>(window_s * 1e9);
  for (int j = 0; j <= kSubWindows; ++j) ph.edges.push_back(from + (until - from) * j / kSubWindows);

  stream->start(ph.start);
  ph.rss_mb = resident_mb_over((ph.start + from) / 2, from);
  for (int j = 0; j <= kSubWindows; ++j) {
    sleep_until_ns(ph.edges[j]);
    ph.process_cpu.push_back(process_cpu_ns());
    if (j == 0) {
      stream->set_tracing(traced);
      ph.first = take_snapshot(stream->cluster(), {}, io_clocks, stream->sender_clocks());
    }
  }
  ph.last = take_snapshot(stream->cluster(), {}, io_clocks, stream->sender_clocks());
  stream->set_tracing(false);
  ph.failed = stream->drain();
  ph.violation = stream->check();
  ph.attempted = stream->issued();
  for (const Sample& s : stream->samples()) ph.ops.push_back({s.done, double(s.latency) / 1e6});
  ph.lag_ms = stream->lags_ms(from, until);
  stream->spans(from, until, ph.order_ms, ph.stable_ms);
  return ph;
}

void account(Outcome& out, const RingPhase& ph) {
  out.attempted += ph.attempted;
  out.failed += ph.failed;
  if (!ph.violation.empty()) out.fail(ph.violation);
}

}  // namespace

Outcome run_ring(const WorkloadSpec& w, const RunOptions& opt) {
  Outcome out;
  Report& r = out.report;
  const double msg_bytes = double(w.message_bytes);
  if (!opt.trace) {
    const RingPhase ph = run_phase(w, opt, opt.seconds, kSetups, false);
    account(out, ph);
    add_end_to_end(r, ph.figures(msg_bytes), median(ph.setup_s), ph.rss_mb);
    r.detail("failed_ratio", ratio(double(ph.failed), double(ph.attempted)));
    r.detail("burst_ops_s", double(ph.burst_completions()) / kBurstSeconds);
    return out;
  }
  // Traced run: the stream untraced (counters, CPU, burst), then traced
  // (per-node delivery stamps). The ring has no gateway: its gateway
  // metrics read 0.
  const RingPhase plain = run_phase(w, opt, opt.seconds / 2, 1, false);
  const RingPhase traced = run_phase(w, opt, opt.seconds / 2, 1, true);
  account(out, plain);
  account(out, traced);
  add_layer_metrics(r, plain.first, plain.last, double(plain.figures(0).samples));
  r.metric("driver.lag_p99_ms", summarize(plain.lag_ms).p99, "ms");
  r.metric("driver.burst_ops_s", double(plain.burst_completions()) / kBurstSeconds, "1/s");
  r.metric("gateway.burst_envelopes_per_flush", 0, "count");
  r.metric("driver.window_ops_s", plain.window_ops_s(), "1/s");
  const Summary order = summarize(traced.order_ms), stable = summarize(traced.stable_ms);
  r.metric("gateway.admit_p50_ms", 0, "ms");
  r.metric("gateway.admit_p99_ms", 0, "ms");
  r.metric("ring.order_p50_ms", order.p50, "ms");
  r.metric("ring.stable_p50_ms", stable.p50, "ms");
  r.metric("ring.stable_p99_ms", stable.p99, "ms");
  r.metric("gateway.apply_us", 0, "us");
  r.metric("gateway.reply_p50_ms", 0, "ms");
  r.metric("gateway.reply_p99_ms", 0, "ms");
  r.detail("traced_requests", double(stable.n));
  const double base = plain.window_ops_s();
  r.metric("trace_overhead_pct", ratio(base - traced.window_ops_s(), base) * 100, "%");
  // The ring's traced run is the same RingStream with its stamps switched
  // on; there is no second assembly to compare with.
  r.metric("trace.assembly_delta_pct", 0, "%");
  const ReplayResult rep = replay_engines(engine_config(w), w.replay_bytes, opt.seed);
  if (!rep.ok) out.fail("engine replay stalled");
  r.metric("fsr.frame_ns", rep.frame_ns, "ns");
  r.metric("fsr.allocs_per_frame", rep.allocs_per_frame, "count");
  return out;
}

}  // namespace perfbench
