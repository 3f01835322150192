// Self-test of the benchmark's own measuring code:
//  * the percentile helper's rule (nearest rank; a tail percentile needs at
//    least ten samples beyond it);
//  * the open-loop generator: a planted 50 ms stall must be charged to every
//    request that fell due during it, timed from when it was due, and must
//    show in the generator-lag p99.
//
//   fsrbench_selftest        (exit status 0 = all checks passed)
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/log.h"
#include "gateway/tcp_gateway.h"
#include "kv_load.h"
#include "stats.h"
#include "sysclock.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

void test_percentiles() {
  expect(nearest_rank(1000, 9900) == 990 && samples_beyond(1000, 9900) == 10,
         "p99 of 1000 samples is rank 990 with 10 beyond");
  expect(supported_tail_bp(1000) == 9900, "1000 samples support p99");
  expect(supported_tail_bp(999) == 9000, "999 samples support only p90");
  expect(supported_tail_bp(10000) == 9990, "10000 samples support p99.9");
  expect(supported_tail_bp(100000) == 9999, "100000 samples support p99.99");
  expect(supported_tail_bp(20) == 5000, "20 samples support only the median");
  expect(supported_tail_bp(19) == 0, "19 samples support no percentile");
  const Summary s = summarize(iota(1000));
  expect(s.p50 == 500 && s.p99 == 990 && s.tail_bp == 9900, "summary of 1..1000");
  const Summary small = summarize(iota(500));
  expect(small.tail_bp == 9000 && small.p99 == 450,
         "an unsupported p99 falls back to the highest supported percentile");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
}

struct StallRun {
  KvLoadTotals totals;
  std::vector<Completion> done;
};

StallRun run_open_loop(std::int64_t stall_ns) {
  fsr::TcpGatewayClusterConfig cfg;
  cfg.n = 3;
  cfg.group.engine.t = 1;
  cfg.group.engine.max_payloads_per_frame = 8;
  cfg.group.engine.ack_flush_delay = 50 * fsr::kMicrosecond;
  fsr::TcpGatewayCluster gc(cfg);

  KvLoadSpec spec;
  spec.sessions = 16;
  spec.connections = 1;
  spec.open_loop = true;
  spec.rate_ops_s = 5000;
  spec.seed = 42;
  spec.stall_at_ns = 500'000'000;
  spec.stall_ns = stall_ns;
  KvLoad load(spec, gc.endpoints());
  load.connect_and_hello();
  LoadSchedule when;
  when.start = now_ns() + 20'000'000;
  when.keep_from = when.start;
  when.keep_until = when.start + 1'500'000'000;
  load.start(when);
  sleep_until_ns(when.keep_until);
  load.drain_and_join(10'000'000'000);
  return {load.totals(), load.completions()};
}

std::vector<double> lags_ms(const std::vector<Completion>& done) {
  std::vector<double> lag;
  for (const Completion& c : done) lag.push_back(double(c.sent - c.due) / 1e6);
  return lag;
}

void test_open_loop_stall() {
  constexpr std::int64_t kStall = 50'000'000;
  const StallRun run = run_open_loop(kStall);
  const KvLoadTotals& t = run.totals;
  expect(t.failed == 0 && t.bad_replies == 0, "stalled run: every request answered correctly");
  expect(t.stall_end - t.stall_begin >= kStall, "the planted stall lasted at least 50 ms");

  std::size_t due_in_stall = 0;
  bool charged = true;
  for (const Completion& c : run.done) {
    if (c.due < t.stall_begin || c.due >= t.stall_end) continue;
    ++due_in_stall;
    // Timed from due: the request waits out the rest of the stall.
    charged = charged && c.sent >= t.stall_end && c.done - c.due >= t.stall_end - c.due;
  }
  expect(due_in_stall >= 100, "about 250 requests fell due during the stall (got " +
                                  std::to_string(due_in_stall) + ")");
  expect(charged, "every request due during the stall is charged the rest of it");

  const std::vector<double> lags = lags_ms(run.done);
  const Summary lag = summarize(lags);
  expect(lag.p99 >= 20.0, "driver.lag_p99_ms reports the stall (" + std::to_string(lag.p99) +
                              " ms)");
  expect(*std::max_element(lags.begin(), lags.end()) >= 40.0,
         "the worst lag is most of the stall");

  const StallRun calm = run_open_loop(0);
  const Summary calm_lag = summarize(lags_ms(calm.done));
  expect(calm_lag.p99 < 10.0,
         "without a stall the lag p99 stays small (" + std::to_string(calm_lag.p99) + " ms)");
}

}  // namespace

int main() {
  fsr::set_log_level(fsr::LogLevel::kError);
  test_percentiles();
  test_open_loop_stall();
  std::printf("%s\n", g_failures == 0 ? "selftest: all checks passed" : "selftest: FAILED");
  return g_failures == 0 ? 0 : 1;
}
