// Load generator for the replicated KV service: a few client connections,
// each driven by one thread that multiplexes many sessions over it.
//
// Closed loop: every session keeps `pipeline` requests outstanding and sends
// the next one when a reply frees a slot. Open loop: requests arrive on a
// Poisson schedule drawn from the seed, whether or not earlier ones were
// answered, and each is timed from when it was due, so a stall is charged to
// every request that fell due during it.
//
// Everything the service receives (keys, values, read/write interleave,
// arrival offsets) is derived from the seed; only timing comes from the run.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "gateway/tcp_gateway.h"

namespace perfbench {

/// Identity of one request across layers: (client_id, session_seq) for
/// commands, (client_id, read_seq) for reads.
inline std::uint64_t request_key(std::uint64_t client_id, std::uint64_t seq, bool is_read) {
  constexpr std::uint64_t kSeqBits = 39;
  return (client_id << (kSeqBits + 1)) | (std::uint64_t{is_read} << kSeqBits) |
         (seq & ((std::uint64_t{1} << kSeqBits) - 1));
}

/// First read_seq of a session; disjoint from command seqs.
inline constexpr std::uint64_t kFirstReadSeq = std::uint64_t{1} << 63;

/// One request answered kOk, as its client saw it.
struct Completion {
  std::uint64_t key = 0;
  std::int64_t due = 0;   ///< scheduled arrival (open) or slot freed (closed)
  std::int64_t sent = 0;  ///< first write of the request
  std::int64_t done = 0;  ///< reply parsed
  bool is_read = false;
};

struct KvLoadSpec {
  std::size_t sessions = 64;
  std::size_t connections = 4;
  bool open_loop = false;
  double rate_ops_s = 0;     ///< open loop: offered rate over all connections
  std::size_t pipeline = 8;  ///< closed loop: outstanding requests per session
  double read_fraction = 0;
  std::size_t value_bytes = 64;
  std::size_t keyspace = 4096;
  std::uint64_t seed = 1;
  std::uint64_t first_client_id = 1000;
  /// Planted stall: connection 0's thread neither reads nor sends for
  /// `stall_ns`, starting `stall_at_ns` after the load starts (< 0 = never).
  std::int64_t stall_at_ns = -1;
  std::int64_t stall_ns = 0;
};

/// When the load runs and which completions it keeps (steady-clock ns).
struct LoadSchedule {
  std::int64_t start = 0;
  /// Completions before this are counted as the start-up burst.
  std::int64_t burst_until = 0;
  /// Completions are kept only when they finish inside [keep_from, keep_until).
  std::int64_t keep_from = 0;
  std::int64_t keep_until = std::numeric_limits<std::int64_t>::max();
};

struct KvLoadTotals {
  std::uint64_t attempted = 0;    ///< distinct requests issued
  std::uint64_t acked_puts = 0;   ///< PUTs answered kOk (whole run)
  std::uint64_t failed = 0;       ///< non-kOk final replies and abandoned requests
  std::uint64_t bad_replies = 0;  ///< kOk replies whose content is wrong
  std::uint64_t burst_completions = 0;  ///< kOk before burst_until
  std::int64_t stall_begin = 0;   ///< planted stall, when it ran
  std::int64_t stall_end = 0;
};

class KvLoad {
 public:
  KvLoad(KvLoadSpec spec, std::vector<fsr::GatewayEndpoint> endpoints);
  ~KvLoad();

  KvLoad(const KvLoad&) = delete;
  KvLoad& operator=(const KvLoad&) = delete;

  /// Open every connection and bind every session with a hello; returns when
  /// every hello is acknowledged. Throws std::runtime_error on failure.
  void connect_and_hello();

  /// Start one generator thread per connection.
  void start(const LoadSchedule& schedule);
  /// Issue no new requests from now on.
  void stop_issuing();
  /// Wait until every outstanding request is answered and join the threads.
  /// Requests still unanswered after `timeout_ns` count as failed.
  void drain_and_join(std::int64_t timeout_ns);

  /// CPU clocks of the generator threads (valid between start and join).
  const std::vector<clockid_t>& cpu_clocks() const { return clocks_; }

  /// Results; call after drain_and_join.
  KvLoadTotals totals() const;
  std::vector<Completion> completions() const;

 private:
  struct Worker;

  KvLoadSpec spec_;
  LoadSchedule schedule_;
  std::vector<fsr::GatewayEndpoint> endpoints_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<clockid_t> clocks_;
  std::vector<fsr::Thread> threads_;
  std::atomic<bool> issuing_{true};
  std::atomic<std::int64_t> drain_deadline_{std::numeric_limits<std::int64_t>::max()};
};

}  // namespace perfbench
