#include "kv_load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <latch>
#include <stdexcept>
#include <string>

#include "app/kv_store.h"
#include "common/rng.h"
#include "proto/client_codec.h"
#include "sysclock.h"

namespace perfbench {

using fsr::Bytes;
using fsr::ClientFrame;
using fsr::ClientReply;
using fsr::ClientStatus;

namespace {

constexpr std::int64_t kMaxPollNs = 1'000'000;
constexpr std::int64_t kRejectBackoffNs = 2'000'000;
constexpr std::int64_t kNotMemberBackoffNs = 10'000'000;
constexpr std::size_t kMsgsPerFrame = 1024;  // the server's decode cap
constexpr std::size_t kRecvChunk = 64 * 1024;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 29);
}

std::string key_name(std::uint32_t k) { return "k" + std::to_string(k); }

std::string value_for(std::uint64_t client_id, std::uint64_t seq, std::size_t bytes) {
  std::string v = "v:" + std::to_string(client_id) + ":" + std::to_string(seq) + ":";
  v.resize(bytes, 'x');
  return v;
}

int connect_to(const fsr::GatewayEndpoint& ep) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

}  // namespace

struct KvLoad::Worker {
  struct Op {
    std::uint64_t seq = 0;
    bool is_read = false;
    std::uint32_t key = 0;
    std::int64_t due = 0;
    std::int64_t sent = 0;
  };
  struct Session {
    std::uint64_t client_id = 0;
    std::uint64_t next_cmd_seq = 1;
    std::uint64_t next_read_seq = kFirstReadSeq;
    fsr::Rng rng{0};
    /// Outstanding requests in issue order; [unsent, end) still need a write
    /// (new requests and the resent tail after a rejection).
    std::deque<Op> window;
    std::size_t unsent = 0;
    std::int64_t retry_after = 0;
    bool listed = false;  ///< in Worker::to_send
  };

  Worker(const KvLoadSpec& s, const LoadSchedule& when, std::size_t i)
      : spec(s), schedule(when), index(i), arrivals(mix(s.seed, 0xA11 + i)) {}

  const KvLoadSpec& spec;
  const LoadSchedule& schedule;
  const std::size_t index;
  int fd = -1;
  std::vector<Session> sessions;
  std::vector<std::uint32_t> to_send;  ///< sessions with unsent requests
  fsr::Rng arrivals;
  std::int64_t next_due = 0;
  double mean_gap_ns = 0;
  std::size_t outstanding = 0;
  Bytes out;
  std::size_t out_off = 0;
  Bytes rx;                ///< received bytes live in [rx_off, rx_len)
  std::size_t rx_off = 0;
  std::size_t rx_len = 0;
  std::vector<Completion> kept;
  KvLoadTotals totals;

  ~Worker() {
    if (fd >= 0) ::close(fd);
  }

  Session* session_of(std::uint64_t client_id) {
    const std::uint64_t first = spec.first_client_id;
    const std::size_t stride = spec.connections;
    if (client_id < first + index) return nullptr;
    const std::uint64_t rel = client_id - first - index;
    if (rel % stride != 0 || rel / stride >= sessions.size()) return nullptr;
    return &sessions[rel / stride];
  }

  void list_for_send(std::uint32_t si) {
    if (!sessions[si].listed) {
      sessions[si].listed = true;
      to_send.push_back(si);
    }
  }

  void issue(std::uint32_t si, std::int64_t due) {
    Session& s = sessions[si];
    Op op;
    op.is_read = s.rng.uniform() < spec.read_fraction;
    op.key = static_cast<std::uint32_t>(s.rng.below(spec.keyspace));
    op.seq = op.is_read ? s.next_read_seq++ : s.next_cmd_seq++;
    op.due = due;
    s.window.push_back(op);
    ++outstanding;
    ++totals.attempted;
    list_for_send(si);
  }

  /// Open loop: every arrival whose time has come goes to a seeded session.
  void release_arrivals(std::int64_t now) {
    while (next_due <= now) {
      issue(static_cast<std::uint32_t>(arrivals.below(sessions.size())), next_due);
      next_due += static_cast<std::int64_t>(arrivals.exponential(mean_gap_ns));
    }
  }

  void append_msg(ClientFrame& frame, const Session& s, const Op& op) {
    if (op.is_read) {
      fsr::ClientRead rd;
      rd.client_id = s.client_id;
      rd.read_seq = op.seq;
      rd.query = fsr::make_payload(fsr::KvStore::encode_get(key_name(op.key)));
      frame.msgs.emplace_back(std::move(rd));
    } else {
      fsr::ClientRequest req;
      req.client_id = s.client_id;
      req.session_seq = op.seq;
      req.command = fsr::make_payload(fsr::KvStore::encode_put(
          key_name(op.key), value_for(s.client_id, op.seq, spec.value_bytes)));
      frame.msgs.emplace_back(std::move(req));
    }
  }

  void encode_into_out(ClientFrame& frame) {
    if (frame.msgs.empty()) return;
    Bytes enc = fsr::encode_client_frame_with_prefix(frame);
    out.insert(out.end(), enc.begin(), enc.end());
    frame.msgs.clear();
  }

  /// Pack every sendable request into frames and write what the socket takes.
  bool send_due(std::int64_t now) {
    ClientFrame frame;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < to_send.size(); ++i) {
      Session& s = sessions[to_send[i]];
      if (s.retry_after > now) {
        to_send[keep++] = to_send[i];  // still backing off
        continue;
      }
      s.listed = false;
      for (std::size_t k = s.unsent; k < s.window.size(); ++k) {
        Op& op = s.window[k];
        if (op.sent == 0) op.sent = now;
        append_msg(frame, s, op);
        if (frame.msgs.size() >= kMsgsPerFrame) encode_into_out(frame);
      }
      s.unsent = s.window.size();
    }
    to_send.resize(keep);
    encode_into_out(frame);
    while (out_off < out.size()) {
      ssize_t w = ::send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      out_off += static_cast<std::size_t>(w);
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    return true;
  }

  bool reply_ok(const Op& op, const ClientReply& r) const {
    const std::string_view got(reinterpret_cast<const char*>(r.reply.data()), r.reply.size());
    if (!op.is_read) return got == "OK";
    if (got == "!") return true;  // key not written yet
    return got.size() == 1 + spec.value_bytes && got.substr(0, 3) == "=v:";
  }

  void complete(Session& s, std::size_t idx, std::int64_t now, bool ok) {
    const Op op = s.window[idx];
    s.window.erase(s.window.begin() + static_cast<std::ptrdiff_t>(idx));
    if (idx < s.unsent) --s.unsent;
    --outstanding;
    if (!ok) {
      ++totals.failed;
      return;
    }
    if (!op.is_read) ++totals.acked_puts;
    if (now < schedule.burst_until) ++totals.burst_completions;
    if (now >= schedule.keep_from && now < schedule.keep_until) {
      kept.push_back(Completion{request_key(s.client_id, op.seq, op.is_read), op.due,
                                op.sent, now, op.is_read});
    }
  }

  void handle_reply(const ClientReply& r, std::int64_t now, bool issuing) {
    Session* s = session_of(r.client_id);
    if (s == nullptr) return;
    auto it = std::find_if(s->window.begin(), s->window.end(),
                           [&](const Op& op) { return op.seq == r.session_seq; });
    if (it == s->window.end()) return;  // stale duplicate of a finished request
    const auto idx = static_cast<std::size_t>(it - s->window.begin());
    const auto si = static_cast<std::uint32_t>(s - sessions.data());
    switch (r.status) {
      case ClientStatus::kOk:
        if (!reply_ok(*it, r)) ++totals.bad_replies;
        complete(*s, idx, now, true);
        break;
      case ClientStatus::kBadRequest:
        complete(*s, idx, now, false);
        break;
      case ClientStatus::kRejectedWindow:
      case ClientStatus::kRejectedBytes:
      case ClientStatus::kNotMember:
        // This request and everything the session pipelined behind it were
        // turned away: resend the whole tail, in order, after a backoff.
        s->unsent = std::min(s->unsent, idx);
        s->retry_after = now + (r.status == ClientStatus::kNotMember ? kNotMemberBackoffNs
                                                                    : kRejectBackoffNs);
        list_for_send(si);
        return;
    }
    if (!spec.open_loop && issuing) issue(si, now);
  }

  /// Read everything the socket has and handle each complete reply frame.
  bool read_replies(bool issuing) {
    for (;;) {
      if (rx.size() - rx_len < kRecvChunk) {
        // Move the partial frame to the front; grow only if it is huge.
        std::copy(rx.begin() + static_cast<std::ptrdiff_t>(rx_off),
                  rx.begin() + static_cast<std::ptrdiff_t>(rx_len), rx.begin());
        rx_len -= rx_off;
        rx_off = 0;
        if (rx.size() - rx_len < kRecvChunk) rx.resize(rx_len + 4 * kRecvChunk);
      }
      ssize_t n = ::recv(fd, rx.data() + rx_len, rx.size() - rx_len, 0);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      rx_len += static_cast<std::size_t>(n);
    }
    const std::int64_t now = now_ns();
    while (rx_len - rx_off >= 4) {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) len |= std::uint32_t{rx[rx_off + i]} << (8 * i);
      if (len == 0 || len > fsr::kMaxClientFrameBytes) return false;
      if (rx_len - rx_off < 4 + std::size_t{len}) break;
      ClientFrame frame = fsr::decode_client_frame(
          std::span<const std::uint8_t>(rx.data() + rx_off + 4, len));
      rx_off += 4 + std::size_t{len};
      for (const auto& msg : frame.msgs) {
        if (const auto* r = std::get_if<ClientReply>(&msg)) handle_reply(*r, now, issuing);
      }
    }
    return true;
  }

  void run(const std::atomic<bool>& issuing, const std::atomic<std::int64_t>& deadline) {
    const std::int64_t t0 = schedule.start;
    // Wake on time: the default 50 us timer slack would show up as lag.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    sleep_until_ns(t0);
    if (spec.open_loop) {
      next_due = t0 + static_cast<std::int64_t>(arrivals.exponential(mean_gap_ns));
    } else {
      for (std::uint32_t si = 0; si < sessions.size(); ++si) {
        for (std::size_t k = 0; k < spec.pipeline; ++k) issue(si, t0);
      }
    }
    bool stalled = spec.stall_at_ns < 0 || index != 0;
    for (;;) {
      std::int64_t now = now_ns();
      if (!stalled && now >= t0 + spec.stall_at_ns) {
        stalled = true;
        totals.stall_begin = now;
        sleep_until_ns(now + spec.stall_ns);
        totals.stall_end = now = now_ns();
      }
      const bool live = issuing.load(std::memory_order_relaxed);
      if (live && spec.open_loop) release_arrivals(now);
      if (!send_due(now)) break;
      if (!live && outstanding == 0) return;
      if (!live && now > deadline.load(std::memory_order_relaxed)) break;

      std::int64_t wake = now + kMaxPollNs;
      if (live && spec.open_loop) wake = std::min(wake, next_due);
      for (std::uint32_t si : to_send) wake = std::min(wake, sessions[si].retry_after);
      pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
      const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
      timespec ts{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
      if (::ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) break;
      if (!read_replies(live)) break;
    }
    // Connection lost or drain deadline passed: whatever is still
    // outstanding was never answered.
    totals.failed += outstanding;
    outstanding = 0;
  }
};

KvLoad::KvLoad(KvLoadSpec spec, std::vector<fsr::GatewayEndpoint> endpoints)
    : spec_(spec), endpoints_(std::move(endpoints)) {
  if (spec_.connections == 0 || spec_.sessions < spec_.connections || endpoints_.empty()) {
    throw std::runtime_error("kv load: need sessions >= connections >= 1 and an endpoint");
  }
  for (std::size_t c = 0; c < spec_.connections; ++c) {
    auto w = std::make_unique<Worker>(spec_, schedule_, c);
    w->mean_gap_ns = spec_.open_loop ? 1e9 * double(spec_.connections) / spec_.rate_ops_s : 0;
    workers_.push_back(std::move(w));
  }
  // Sessions round-robin over connections; client ids stay global.
  for (std::size_t g = 0; g < spec_.sessions; ++g) {
    Worker::Session s;
    s.client_id = spec_.first_client_id + g;
    s.rng = fsr::Rng(mix(spec_.seed, g));
    workers_[g % spec_.connections]->sessions.push_back(std::move(s));
  }
}

KvLoad::~KvLoad() {
  stop_issuing();
  drain_deadline_.store(0);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void KvLoad::connect_and_hello() {
  for (auto& w : workers_) {
    w->fd = connect_to(endpoints_[w->index % endpoints_.size()]);
    if (w->fd < 0) throw std::runtime_error("kv load: connect failed");
    ClientFrame hello;
    for (const auto& s : w->sessions) hello.msgs.emplace_back(fsr::ClientHello{s.client_id});
    if (!fsr::gateway_write_frame(w->fd, hello)) {
      throw std::runtime_error("kv load: hello write failed");
    }
  }
  for (auto& w : workers_) {
    std::size_t acked = 0;
    while (acked < w->sessions.size()) {
      auto frame = fsr::gateway_read_frame(w->fd);
      if (!frame) throw std::runtime_error("kv load: no hello ack");
      for (const auto& msg : frame->msgs) {
        const auto* r = std::get_if<ClientReply>(&msg);
        if (r && r->status == ClientStatus::kOk && w->session_of(r->client_id)) ++acked;
      }
    }
    const int flags = ::fcntl(w->fd, F_GETFL, 0);
    ::fcntl(w->fd, F_SETFL, flags | O_NONBLOCK);
  }
}

void KvLoad::start(const LoadSchedule& schedule) {
  schedule_ = schedule;
  std::latch ready(static_cast<std::ptrdiff_t>(workers_.size()));
  clocks_.assign(workers_.size(), clockid_t{});
  for (std::size_t c = 0; c < workers_.size(); ++c) {
    threads_.emplace_back([this, c, &ready] {
      clocks_[c] = this_thread_cpu_clock();
      ready.count_down();
      workers_[c]->run(issuing_, drain_deadline_);
    });
  }
  ready.wait();
}

void KvLoad::stop_issuing() { issuing_.store(false); }

void KvLoad::drain_and_join(std::int64_t timeout_ns) {
  stop_issuing();
  drain_deadline_.store(now_ns() + timeout_ns);
  for (auto& t : threads_) t.join();
  threads_.clear();
}

KvLoadTotals KvLoad::totals() const {
  KvLoadTotals t;
  for (const auto& w : workers_) {
    const KvLoadTotals& x = w->totals;
    t.attempted += x.attempted;
    t.acked_puts += x.acked_puts;
    t.failed += x.failed;
    t.bad_replies += x.bad_replies;
    t.burst_completions += x.burst_completions;
    if (x.stall_end > 0) {
      t.stall_begin = x.stall_begin;
      t.stall_end = x.stall_end;
    }
  }
  return t;
}

std::vector<Completion> KvLoad::completions() const {
  std::vector<Completion> all;
  for (const auto& w : workers_) all.insert(all.end(), w->kept.begin(), w->kept.end());
  return all;
}

}  // namespace perfbench
