// Ladder rung 1 (the bench_engine_hot method): Engines joined by an
// in-memory router. All broadcasts are submitted first; the timed part is
// the drain, where every routed frame goes through Engine::on_msg.
#include <chrono>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <vector>

#include "harness/sim_cluster.h"  // test_payload
#include "stats.h"
#include "workloads.h"

// Allocation counting for the whole binary. The count is per thread, so the
// counter costs the other threads nothing and the replay reads only its own.
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

/// Zero-cost transport: send() parks the frame in the shared router queue
/// and the link is always idle. Timers never fire, so the replay runs with
/// the ack hold-back off.
class PipeTransport final : public fsr::Transport {
 public:
  PipeTransport(fsr::NodeId self, std::deque<fsr::Frame>* router)
      : self_(self), router_(router) {}

  fsr::NodeId self() const override { return self_; }
  fsr::Time now() const override { return 0; }
  void send(fsr::Frame frame) override { router_->push_back(std::move(frame)); }
  bool tx_idle() const override { return true; }
  fsr::TimerId set_timer(fsr::Time, std::function<void()>) override { return fsr::TimerId{}; }
  void cancel_timer(fsr::TimerId) override {}

 private:
  fsr::NodeId self_;
  std::deque<fsr::Frame>* router_;
};

struct OneReplay {
  double frame_ns = 0;
  double allocs_per_frame = 0;
  bool ok = false;
};

OneReplay replay_once(const fsr::EngineConfig& cfg, std::size_t bytes, int msgs_per_sender,
                      std::uint64_t seed) {
  std::deque<fsr::Frame> router;
  fsr::View view;
  view.id = 1;
  for (std::size_t i = 0; i < kNodes; ++i) view.members.push_back(static_cast<fsr::NodeId>(i));

  std::uint64_t delivered = 0;
  std::vector<std::unique_ptr<PipeTransport>> transports;
  std::vector<std::unique_ptr<fsr::Engine>> engines;
  for (std::size_t i = 0; i < kNodes; ++i) {
    transports.push_back(std::make_unique<PipeTransport>(static_cast<fsr::NodeId>(i), &router));
    engines.push_back(std::make_unique<fsr::Engine>(
        *transports.back(), cfg, view, [&delivered](const fsr::Delivery&) { ++delivered; }));
  }
  for (int m = 0; m < msgs_per_sender; ++m) {
    for (std::size_t s = 0; s < kNodes; ++s) {
      engines[s]->broadcast(fsr::test_payload(static_cast<fsr::NodeId>(s),
                                              seed * 1'000'003 + static_cast<std::uint64_t>(m),
                                              bytes));
    }
  }
  const std::uint64_t target = kNodes * kNodes * static_cast<std::uint64_t>(msgs_per_sender);
  std::uint64_t frames = 0;
  const std::uint64_t allocs_before = t_allocations;
  const auto start = std::chrono::steady_clock::now();
  while (delivered < target && !router.empty()) {
    fsr::Frame f = std::move(router.front());
    router.pop_front();
    fsr::Engine& dst = *engines[f.to];
    for (const fsr::WireMsg& m : f.msgs) dst.on_msg(m);
    ++frames;
  }
  const auto end = std::chrono::steady_clock::now();
  OneReplay r;
  r.ok = delivered >= target && frames > 0;
  if (r.ok) {
    r.frame_ns = std::chrono::duration<double, std::nano>(end - start).count() / double(frames);
    r.allocs_per_frame = double(t_allocations - allocs_before) / double(frames);
  }
  return r;
}

}  // namespace

ReplayResult replay_engines(const fsr::EngineConfig& cfg, std::size_t bytes,
                            std::uint64_t seed) {
  constexpr int kReps = 5;
  fsr::EngineConfig c = cfg;
  c.ack_flush_delay = 0;
  // About 8 MiB of payload per sender, within [200, 4000] messages.
  const int msgs = static_cast<int>(
      std::clamp<std::size_t>((std::size_t{8} << 20) / std::max<std::size_t>(bytes, 1), 200, 4000));
  std::vector<double> ns, allocs;
  ReplayResult out;
  out.ok = true;
  for (int rep = 0; rep < kReps; ++rep) {
    OneReplay r = replay_once(c, bytes, msgs, seed + static_cast<std::uint64_t>(rep));
    out.ok = out.ok && r.ok;
    ns.push_back(r.frame_ns);
    allocs.push_back(r.allocs_per_frame);
  }
  out.frame_ns = median(ns);
  out.allocs_per_frame = median(allocs);
  return out;
}

}  // namespace perfbench
