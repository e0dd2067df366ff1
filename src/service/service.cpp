#include "service/service.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "core/decoder_factory.hpp"
#include "util/check.hpp"

namespace ldpc::service {
namespace {

/// Grace window after the drain deadline for cancelled decodes to bail at
/// their next layer boundary and for the engine to settle.
constexpr auto kCancelGrace = std::chrono::milliseconds(500);

/// Extra spins of the event loop are cheap; a bounded epoll timeout keeps
/// parked-deadline sweeps and drain bookkeeping moving even when no socket
/// is active.
constexpr int kEpollTimeoutMs = 50;

/// Per-wakeup read budget for one connection: a peer that pipelines faster
/// than we decode cannot monopolize an event-loop tick — level-triggered
/// epoll re-arms and the remainder is read on the next pass, after every
/// other connection had its turn.
constexpr std::size_t kReadBudgetBytes = 64U << 10;

/// Thread-safe errno formatting: std::strerror hands back a pointer into
/// shared static storage. strerror_r's return type differs between glibc
/// (char*) and POSIX (int); the overload pair below accepts either.
[[maybe_unused]] const char* strerror_pick(const char* glibc_result,
                                           const char*) {
  return glibc_result;
}
[[maybe_unused]] const char* strerror_pick(int, const char* buf) {
  return buf;
}

std::string errno_string(int err) {
  char buf[128] = "unknown error";
  return strerror_pick(::strerror_r(err, buf, sizeof(buf)), buf);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  LDPC_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed");
  LDPC_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "fcntl(F_SETFL, O_NONBLOCK) failed");
}

/// The engine-factory decoder for service workers: a per-worker cache of
/// per-codec decoder instances. Tasks downcast the engine-provided Decoder
/// to this and fetch the decoder their codec needs, so decoders never
/// migrate between threads (a FaultInjector wired through
/// decoder_options_hook may be thread_local, exactly the chaos-test idiom)
/// and a worker serving one tenant's code never rebuilds it per job.
class WorkerDecoderCache final : public Decoder {
 public:
  WorkerDecoderCache(std::string decoder_name, DecoderOptions options,
                     std::function<void(DecoderOptions&)> hook)
      : decoder_name_(std::move(decoder_name)),
        options_(options),
        hook_(std::move(hook)) {}

  Decoder& decoder_for(const std::shared_ptr<CodecEntry>& entry) {
    auto it = cache_.find(entry.get());
    if (it == cache_.end()) {
      DecoderOptions options = options_;
      if (hook_) hook_(options);  // runs on this worker thread
      auto decoder = make_decoder(decoder_name_, entry->code(), options);
      it = cache_.emplace(entry.get(),
                          CacheEntry{entry, std::move(decoder)}).first;
    }
    return *it->second.decoder;
  }

  /// What the engine books for the current task (decoded bits,
  /// saturation): the codec decoder that ran, or nothing. Every task starts
  /// with clear(), so a task that expired or threw books no decode.
  void clear() { booked_ = nullptr; }
  void record(const Decoder& decoder) { booked_ = &decoder; }

  DecodeResult decode(std::span<const float> /*llr*/) override {
    // The service submits tasks only; a plain decode has no codec context.
    throw Error("WorkerDecoderCache decodes via service tasks only");
  }
  std::size_t n() const override { return booked_ ? booked_->n() : 0; }
  std::size_t k() const override { return booked_ ? booked_->k() : 0; }
  std::string name() const override { return "service-worker-cache"; }
  SaturationStats saturation() const override {
    return booked_ ? booked_->saturation() : SaturationStats{};
  }

 private:
  struct CacheEntry {
    std::shared_ptr<CodecEntry> keep_alive;
    std::unique_ptr<Decoder> decoder;
  };

  std::string decoder_name_;
  DecoderOptions options_;
  std::function<void(DecoderOptions&)> hook_;
  std::map<const CodecEntry*, CacheEntry> cache_;
  const Decoder* booked_ = nullptr;  ///< a cache_ entry; nodes never move
};

}  // namespace

struct DecodeService::Connection {
  int fd = -1;
  FrameReader reader;
  std::vector<std::uint8_t> write_buf;
  std::size_t write_off = 0;
  std::uint32_t epoll_events = EPOLLIN;  ///< mask currently registered
  bool closing = false;      ///< flush the write buffer, then close
  bool read_closed = false;  ///< fatal framing: no further reads
  /// Reads paused for backpressure (a request parked in throttle_tenant's
  /// full wait line); frames already buffered stay buffered until resume.
  bool throttled = false;
  std::uint32_t throttle_tenant = 0;
  std::set<std::uint64_t> pending_serials;

  explicit Connection(std::size_t max_frame) : reader(max_frame) {}
  std::size_t queued_bytes() const { return write_buf.size() - write_off; }
};

struct DecodeService::PendingJob {
  std::uint64_t serial = 0;
  std::uint64_t request_id = 0;
  std::uint32_t tenant_id = 0;
  int conn_fd = -1;  ///< -1 once the owning connection died
  std::shared_ptr<CodecEntry> codec;
  std::vector<float> llr;
  std::optional<Clock::time_point> deadline;
  CancelToken token;
  bool submitted = false;  ///< false while parked
};

DecodeService::DecodeService(ServiceConfig config)
    : config_(std::move(config)) {
  // Per-tenant overload policy lives in admission control; the engine queue
  // is the global backstop and must never block the event loop (kBlock) or
  // bypass the service's exactly-once completion bookkeeping (kShedOldest
  // completes slots behind the service's back).
  config_.engine.overload_policy = OverloadPolicy::kRejectNewest;
  admission_ = AdmissionController(config_.default_tenant);
  for (const auto& [id, tenant_config] : config_.tenants)
    admission_.configure_tenant(id, tenant_config);
  codecs_ = std::make_unique<CodecCache>();
}

DecodeService::~DecodeService() {
  if (loop_thread_.joinable())
    shutdown_after(std::chrono::seconds(1));
  engine_.reset();  // joins workers; nothing posts completions after this
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void DecodeService::start() {
  LDPC_CHECK_MSG(!loop_thread_.joinable(), "service already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  LDPC_CHECK_MSG(listen_fd_ >= 0, "socket() failed: " << errno_string(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  LDPC_CHECK_MSG(
      ::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) == 1,
      "bad bind address '" << config_.bind_address << "'");
  LDPC_CHECK_MSG(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind(" << config_.bind_address << ":" << config_.port
              << ") failed: " << errno_string(errno));
  LDPC_CHECK_MSG(::listen(listen_fd_, 128) == 0,
                 "listen() failed: " << errno_string(errno));
  socklen_t addr_len = sizeof(addr);
  LDPC_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &addr_len) == 0);
  bound_port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  LDPC_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  LDPC_CHECK_MSG(event_fd_ >= 0, "eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  LDPC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.fd = event_fd_;
  LDPC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) == 0);

  const std::string decoder_name = config_.decoder_name;
  const DecoderOptions options = config_.decoder_options;
  const auto hook = config_.decoder_options_hook;
  DecoderFactory factory = [decoder_name, options, hook] {
    return std::make_unique<WorkerDecoderCache>(decoder_name, options, hook);
  };
  engine_ = std::make_unique<BatchEngine>(std::move(factory), config_.engine);

  loop_thread_ = std::thread([this] { loop_main(); });
}

void DecodeService::wake_loop() {
  if (event_fd_ < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; the result only signals
  // "would block", which is fine.
  [[maybe_unused]] const auto n = ::write(event_fd_, &one, sizeof(one));
}

void DecodeService::post_completion(std::uint64_t serial,
                                    const DecodeResult& result,
                                    const SaturationStats& saturation) {
  {
    const MutexLock lock(completions_mutex_);
    completions_.push_back(Completion{serial, result, saturation});
  }
  wake_loop();
}

void DecodeService::loop_main() {
  std::array<epoll_event, 64> events;
  for (;;) {
    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   kEpollTimeoutMs);
    if (ready < 0 && errno != EINTR) break;

    const MutexLock lock(state_mutex_);
    graveyard_.clear();  // last tick's closed connections; see close_connection
    for (int i = 0; i < std::max(ready, 0); ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.fd == listen_fd_) {
        if (!draining_) handle_accept();
        continue;
      }
      if (ev.data.fd == event_fd_) {
        std::uint64_t drained = 0;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      const auto it = conns_.find(ev.data.fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Connection& conn = *it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        close_connection(conn.fd, /*evicted=*/false, /*by_peer=*/true);
        continue;
      }
      if ((ev.events & EPOLLIN) && !conn.read_closed) handle_readable(conn);
      // The read handler may have closed the connection; re-look it up.
      if (conns_.count(ev.data.fd) && (ev.events & EPOLLOUT))
        handle_writable(*conns_[ev.data.fd]);
    }

    process_completions();

    // Sweep parked requests whose deadline passed while waiting: they must
    // resolve as kDeadlineExpired, not rot in the wait line.
    const auto now = Clock::now();
    for (auto& [tenant_id, queue] : parked_) {
      for (auto it = queue.begin(); it != queue.end();) {
        const auto pending_it = pending_.find(*it);
        if (pending_it == pending_.end()) {
          it = queue.erase(it);
          continue;
        }
        const auto& job = pending_it->second;
        if (job->conn_fd < 0) {
          admission_.on_park_abandoned(tenant_id);
          pending_.erase(pending_it);
          it = queue.erase(it);
          continue;
        }
        if (job->deadline && now >= *job->deadline) {
          const auto conn_it = conns_.find(job->conn_fd);
          if (conn_it != conns_.end()) {
            // Raw pointer: send_bytes may evict this very connection, which
            // invalidates conn_it (the object itself outlives the tick via
            // the graveyard).
            Connection* c = conn_it->second.get();
            DecodeResponse response;
            response.request_id = job->request_id;
            response.status =
                static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired);
            send_bytes(*c, encode_decode_response(response));
            c->pending_serials.erase(job->serial);
            ++counters_.responses_sent;
          }
          ++counters_.jobs_completed;
          ++counters_.jobs_deadline_expired;
          admission_.on_park_abandoned(tenant_id);
          pending_.erase(pending_it);
          it = queue.erase(it);
          continue;
        }
        ++it;
      }
      // The sweep may have emptied this tenant's wait line — paused
      // connections can resume (their buffered requests will re-park or be
      // refused, but they are *answered*).
      maybe_unthrottle(tenant_id);
    }

    if (draining_ && listen_fd_ >= 0) {
      // Stop accepting: close the listening socket once, the moment the
      // drain begins. Connected clients keep their sockets for responses.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (flush_requested_) {
      flush_requested_ = false;
      flush_for_drain();
    }
    if (draining_ && pending_.empty()) drained_cv_.notify_all();
    if (stop_requested_) {
      // Best-effort final flush, then close every connection.
      std::vector<int> fds;
      fds.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) fds.push_back(fd);
      for (const int fd : fds) {
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // flush error closed it already
        handle_writable(*it->second);
        close_connection(fd, /*evicted=*/false, /*by_peer=*/false);
      }
      graveyard_.clear();
      counters_.connections_active = 0;
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      stopped_ = true;
      drained_cv_.notify_all();
      return;
    }
  }
}

void DecodeService::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: try again next wake
    if (conns_.size() >= config_.max_connections) {
      ++counters_.connections_refused;
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.send_buffer_bytes > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.send_buffer_bytes,
                   sizeof(config_.send_buffer_bytes));
    auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    ++counters_.connections_accepted;
    ++counters_.connections_active;
  }
}

void DecodeService::handle_readable(Connection& conn) {
  std::uint8_t chunk[16384];
  std::size_t budget = kReadBudgetBytes;
  while (budget > 0 && !conn.throttled) {
    const ssize_t n =
        ::read(conn.fd, chunk, std::min(sizeof(chunk), budget));
    if (n > 0) {
      budget -= static_cast<std::size_t>(n);
      counters_.bytes_read += static_cast<std::size_t>(n);
      if (!conn.reader.push(
              std::span<const std::uint8_t>(chunk,
                                            static_cast<std::size_t>(n)))) {
        break;  // fatal already latched; process_frames reports it
      }
      process_frames(conn);
      if (!conns_.count(conn.fd)) return;  // closed by a fatal frame
      if (conn.read_closed) return;
      continue;
    }
    if (n == 0) {
      ++counters_.connections_closed_by_peer;
      close_connection(conn.fd, /*evicted=*/false, /*by_peer=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(conn.fd, /*evicted=*/false, /*by_peer=*/true);
    return;
  }
  process_frames(conn);
}

void DecodeService::process_frames(Connection& conn) {
  for (;;) {
    // Backpressure: once a frame of this batch parked, leave the rest
    // buffered — they are replayed by unthrottle_tenant when the tenant can
    // take work again.
    if (conn.throttled) return;
    Frame frame;
    const FrameReader::Status status = conn.reader.next(&frame);
    if (status == FrameReader::Status::kNeedMore) return;
    if (status == FrameReader::Status::kFatal) {
      // One typed goodbye, then the connection is unusable: after a framing
      // error there is no way to find the next frame boundary.
      ++counters_.malformed_frames;
      ++counters_.connections_fatal_framing;
      send_error(conn, 0, conn.reader.fatal_error(),
                 "unrecoverable framing error");
      conn.read_closed = true;
      conn.closing = true;
      if (conn.queued_bytes() == 0) {
        close_connection(conn.fd, /*evicted=*/false, /*by_peer=*/false);
      } else {
        update_epoll(conn);  // drop EPOLLIN: the goodbye flush is all that's left
      }
      return;
    }
    ++counters_.frames_received;
    switch (frame.type) {
      case FrameType::kDecodeRequest: {
        DecodeRequest request;
        const WireErrorCode err = parse_decode_request(frame.body, &request);
        if (err != WireErrorCode::kNone) {
          ++counters_.malformed_frames;
          send_error(conn, request.request_id, err, "malformed decode request");
          break;
        }
        handle_decode_request(conn, std::move(request));
        break;
      }
      case FrameType::kPing: {
        std::uint64_t nonce = 0;
        const WireErrorCode err = parse_ping(frame.body, &nonce);
        if (err != WireErrorCode::kNone) {
          ++counters_.malformed_frames;
          send_error(conn, 0, err, "malformed ping");
          break;
        }
        send_bytes(conn, encode_pong(nonce));
        break;
      }
      case FrameType::kStatsRequest: {
        if (!frame.body.empty()) {
          ++counters_.malformed_frames;
          send_error(conn, 0, WireErrorCode::kTrailingBytes,
                     "stats request carries no body");
          break;
        }
        send_bytes(conn, encode_stats_response(build_stats_json()));
        break;
      }
      default:
        ++counters_.malformed_frames;
        send_error(conn, 0, WireErrorCode::kBadType,
                   "frame type not accepted by the server");
        break;
    }
    if (!conns_.count(conn.fd)) return;  // a handler evicted the connection
  }
}

void DecodeService::handle_decode_request(Connection& conn,
                                          DecodeRequest&& request) {
  ++counters_.requests_received;
  if (draining_) {
    ++counters_.jobs_refused_draining;
    send_error(conn, request.request_id, WireErrorCode::kDraining,
               "service is draining");
    return;
  }

  WireErrorCode codec_error = WireErrorCode::kNone;
  std::shared_ptr<CodecEntry> entry =
      codecs_->resolve(request.codec, &codec_error);
  if (!entry) {
    send_error(conn, request.request_id, codec_error,
               to_string(request.codec) + " names no bundled code");
    return;
  }
  if (request.llr.size() != entry->code().n()) {
    send_error(conn, request.request_id, WireErrorCode::kLlrCountMismatch,
               "expected " + std::to_string(entry->code().n()) + " LLRs, got " +
                   std::to_string(request.llr.size()));
    return;
  }

  const auto now = Clock::now();
  std::optional<Clock::time_point> deadline;
  if (request.deadline_us > 0)
    deadline = now + std::chrono::microseconds(request.deadline_us);
  const bool dead_on_arrival = deadline && now >= *deadline;

  const AdmitDecision decision =
      admission_.admit(request.tenant_id, now, dead_on_arrival);
  switch (decision) {
    case AdmitDecision::kDeadlineExpired:
      ++counters_.jobs_deadline_refused;
      send_error(conn, request.request_id, WireErrorCode::kDeadlineUnmeetable,
                 "deadline expired before admission");
      return;
    case AdmitDecision::kRateLimited:
      ++counters_.jobs_rate_limited;
      send_error(conn, request.request_id, WireErrorCode::kRateLimited,
                 "tenant over its request rate");
      return;
    case AdmitDecision::kQuotaExceeded:
      ++counters_.jobs_quota_rejected;
      send_error(conn, request.request_id, WireErrorCode::kQuotaExceeded,
                 "tenant in-flight quota exhausted");
      return;
    case AdmitDecision::kAdmit:
    case AdmitDecision::kPark:
    case AdmitDecision::kParkShedOldest:
      break;
  }

  auto job = std::make_shared<PendingJob>();
  job->serial = next_serial_++;
  job->request_id = request.request_id;
  job->tenant_id = request.tenant_id;
  job->conn_fd = conn.fd;
  job->codec = std::move(entry);
  job->llr = std::move(request.llr);
  job->deadline = deadline;
  pending_.emplace(job->serial, job);
  conn.pending_serials.insert(job->serial);

  if (decision == AdmitDecision::kAdmit) {
    submit_to_engine(job);
    return;
  }

  if (decision == AdmitDecision::kParkShedOldest) {
    // The tenant's wait line is at its cap: evict its *oldest* parked
    // request (answered with a typed shed error — never silence) to make
    // room. Only this tenant's line is touched.
    auto& queue = parked_[request.tenant_id];
    while (!queue.empty()) {
      const std::uint64_t victim_serial = queue.front();
      queue.pop_front();
      const auto it = pending_.find(victim_serial);
      if (it == pending_.end()) continue;
      const auto& victim = it->second;
      admission_.on_shed(request.tenant_id);
      ++counters_.jobs_shed;
      const auto conn_it = conns_.find(victim->conn_fd);
      if (conn_it != conns_.end()) {
        Connection* c = conn_it->second.get();
        send_error(*c, victim->request_id, WireErrorCode::kShedOverload,
                   "evicted by a newer request (shed-oldest)");
        c->pending_serials.erase(victim_serial);
      }
      pending_.erase(it);
      break;
    }
  }
  ++counters_.jobs_parked;
  parked_[request.tenant_id].push_back(job->serial);
  // kBlock is wire-level backpressure: the tenant is over capacity and now
  // owes this connection a parked answer, so stop reading from it — an
  // open-loop sender backs up in its own socket buffers instead of burning
  // the event loop on work that would only park. kShedOldest keeps reading:
  // newest-wins is that policy's contract, and its self-degradation
  // mechanism is the shed, not the pause. (A connection interleaving
  // tenants shares a kBlock pause — per-connection ordering makes that
  // coupling inherent.)
  if (admission_.tenant_policy(request.tenant_id) == OverloadPolicy::kBlock)
    throttle_connection(conn, request.tenant_id);
}

void DecodeService::throttle_connection(Connection& conn,
                                        std::uint32_t tenant_id) {
  if (conn.throttled) return;
  conn.throttled = true;
  conn.throttle_tenant = tenant_id;
  throttled_fds_[tenant_id].insert(conn.fd);
  ++counters_.read_throttle_events;
  update_epoll(conn);
}

void DecodeService::unthrottle_tenant(std::uint32_t tenant_id) {
  const auto it = throttled_fds_.find(tenant_id);
  if (it == throttled_fds_.end()) return;
  const std::vector<int> fds(it->second.begin(), it->second.end());
  throttled_fds_.erase(it);
  for (const int fd : fds) {
    const auto conn_it = conns_.find(fd);
    if (conn_it == conns_.end()) continue;
    Connection* c = conn_it->second.get();
    c->throttled = false;
    update_epoll(*c);
    // Frames that arrived before the pause are still buffered; epoll will
    // not re-announce them, so replay now. This may re-throttle or even
    // close the connection — both paths re-record their own state.
    process_frames(*c);
  }
}

void DecodeService::maybe_unthrottle(std::uint32_t tenant_id) {
  if (throttled_fds_.find(tenant_id) == throttled_fds_.end()) return;
  const auto parked_it = parked_.find(tenant_id);
  const bool line_empty =
      parked_it == parked_.end() || parked_it->second.empty();
  if (line_empty || admission_.has_capacity(tenant_id))
    unthrottle_tenant(tenant_id);
}

void DecodeService::submit_to_engine(const std::shared_ptr<PendingJob>& job) {
  job->submitted = true;
  if (job->deadline) job->token.arm_deadline(*job->deadline);
  DecodeService* service = this;
  JobOptions options;
  options.deadline = job->deadline;
  auto task = [service, job](Decoder& worker_decoder) -> DecodeResult {
    DecodeResult result;
    SaturationStats saturation;
    try {
      auto& cache = dynamic_cast<WorkerDecoderCache&>(worker_decoder);
      cache.clear();
      if (job->token.expired()) {
        // Expired while queued: resolve without touching a codec decoder.
        result.status = DecodeStatus::kDeadlineExpired;
      } else {
        Decoder& decoder = cache.decoder_for(job->codec);
        decoder.set_cancel_token(&job->token);
        result = decoder.decode(job->llr);
        saturation = decoder.saturation();
        decoder.set_cancel_token(nullptr);
        cache.record(decoder);
      }
    } catch (...) {
      // The task must never throw (a throwing task strikes the worker and
      // would leave the request unresolved): surface as a watchdog abort.
      result = DecodeResult{};
      result.status = DecodeStatus::kWatchdogAbort;
    }
    service->post_completion(job->serial, result, saturation);
    return result;
  };
  const SubmitStatus status =
      engine_->submit_task(job->serial, std::move(task), options, nullptr);
  if (!submit_accepted(status)) {
    // Engine queue full (global backstop) or engine stopped: resolve now.
    ++counters_.jobs_engine_rejected;
    admission_.on_admit_failed(job->tenant_id);
    maybe_unthrottle(job->tenant_id);
    const auto conn_it = conns_.find(job->conn_fd);
    if (conn_it != conns_.end()) {
      Connection* c = conn_it->second.get();
      send_error(*c, job->request_id, WireErrorCode::kOverloaded,
                 "decode queue full");
      c->pending_serials.erase(job->serial);
    }
    pending_.erase(job->serial);
    return;
  }
  ++counters_.jobs_admitted;
}

void DecodeService::process_completions() {
  std::vector<Completion> batch;
  {
    const MutexLock lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (const Completion& completion : batch) {
    const auto it = pending_.find(completion.serial);
    if (it == pending_.end()) continue;
    const std::shared_ptr<PendingJob> job = it->second;
    pending_.erase(it);
    ++counters_.jobs_completed;
    if (completion.result.status == DecodeStatus::kDeadlineExpired)
      ++counters_.jobs_deadline_expired;
    const auto conn_it = conns_.find(job->conn_fd);
    if (conn_it != conns_.end()) {
      Connection* c = conn_it->second.get();
      DecodeResponse response;
      response.request_id = job->request_id;
      response.status = static_cast<std::uint8_t>(completion.result.status);
      response.flags = completion.result.converged ? 1 : 0;
      response.iterations =
          static_cast<std::uint16_t>(completion.result.iterations);
      response.bit_count =
          static_cast<std::uint32_t>(completion.result.hard_bits.size());
      response.packed_bits = pack_bits(completion.result.hard_bits);
      send_bytes(*c, encode_decode_response(response));
      c->pending_serials.erase(job->serial);
      ++counters_.responses_sent;
    }
    if (admission_.on_complete(job->tenant_id)) unpark_tenant(job->tenant_id);
    maybe_unthrottle(job->tenant_id);
  }
}

void DecodeService::unpark_tenant(std::uint32_t tenant_id) {
  const auto queue_it = parked_.find(tenant_id);
  if (queue_it == parked_.end()) return;
  auto& queue = queue_it->second;
  while (!queue.empty() && admission_.has_capacity(tenant_id)) {
    const std::uint64_t serial = queue.front();
    queue.pop_front();
    const auto it = pending_.find(serial);
    if (it == pending_.end()) continue;
    const std::shared_ptr<PendingJob> job = it->second;
    if (job->conn_fd < 0 ||
        (job->deadline && Clock::now() >= *job->deadline)) {
      admission_.on_park_abandoned(tenant_id);
      const auto conn_it = conns_.find(job->conn_fd);
      if (conn_it != conns_.end()) {
        Connection* c = conn_it->second.get();
        DecodeResponse response;
        response.request_id = job->request_id;
        response.status =
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired);
        send_bytes(*c, encode_decode_response(response));
        c->pending_serials.erase(serial);
        ++counters_.responses_sent;
        ++counters_.jobs_completed;
        ++counters_.jobs_deadline_expired;
      }
      pending_.erase(it);
      continue;
    }
    admission_.on_unparked(tenant_id);
    submit_to_engine(job);
  }
}

void DecodeService::flush_for_drain() {
  // Deadline passed with work still pending. Parked requests have never
  // touched the engine: answer them kDeadlineExpired directly. Submitted
  // jobs get their cancel token tripped so cooperative decoders bail at the
  // next layer boundary and resolve through the normal completion path.
  for (auto& [tenant_id, queue] : parked_) {
    for (const std::uint64_t serial : queue) {
      const auto it = pending_.find(serial);
      if (it == pending_.end()) continue;
      const auto& job = it->second;
      admission_.on_park_abandoned(tenant_id);
      const auto conn_it = conns_.find(job->conn_fd);
      if (conn_it != conns_.end()) {
        Connection* c = conn_it->second.get();
        DecodeResponse response;
        response.request_id = job->request_id;
        response.status =
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired);
        send_bytes(*c, encode_decode_response(response));
        c->pending_serials.erase(serial);
        ++counters_.responses_sent;
      }
      ++counters_.jobs_completed;
      ++counters_.jobs_deadline_expired;
      ++counters_.jobs_flushed_at_drain;
      pending_.erase(it);
    }
    queue.clear();
  }
  for (auto& [serial, job] : pending_) {
    job->token.cancel();
    ++drain_cancelled_;
  }
  // Resume every paused connection: the wait lines are gone, and requests
  // still buffered on the wire deserve a typed kDraining refusal rather
  // than a silent close.
  std::vector<std::uint32_t> paused;
  paused.reserve(throttled_fds_.size());
  for (const auto& [tenant_id, fds] : throttled_fds_) paused.push_back(tenant_id);
  for (const std::uint32_t tenant_id : paused) unthrottle_tenant(tenant_id);
}

void DecodeService::send_error(Connection& conn, std::uint64_t request_id,
                               WireErrorCode code, const std::string& detail) {
  ErrorResponse error;
  error.request_id = request_id;
  error.code = code;
  error.detail = detail;
  send_bytes(conn, encode_error_response(error));
  ++counters_.errors_sent;
}

void DecodeService::send_bytes(Connection& conn,
                               std::vector<std::uint8_t> bytes) {
  if (conn.queued_bytes() + bytes.size() > config_.max_write_buffer) {
    // A client that stopped reading does not get to grow our heap: evict.
    close_connection(conn.fd, /*evicted=*/true, /*by_peer=*/false);
    return;
  }
  if (conn.write_off > 0 && conn.write_off >= conn.write_buf.size() / 2) {
    conn.write_buf.erase(
        conn.write_buf.begin(),
        conn.write_buf.begin() + static_cast<std::ptrdiff_t>(conn.write_off));
    conn.write_off = 0;
  }
  conn.write_buf.insert(conn.write_buf.end(), bytes.begin(), bytes.end());
  handle_writable(conn);
}

void DecodeService::handle_writable(Connection& conn) {
  while (conn.queued_bytes() > 0) {
    const ssize_t n = ::write(conn.fd, conn.write_buf.data() + conn.write_off,
                              conn.queued_bytes());
    if (n > 0) {
      conn.write_off += static_cast<std::size_t>(n);
      counters_.bytes_written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_connection(conn.fd, /*evicted=*/false, /*by_peer=*/true);
    return;
  }
  if (conn.queued_bytes() == 0) {
    conn.write_buf.clear();
    conn.write_off = 0;
    if (conn.closing) {
      close_connection(conn.fd, /*evicted=*/false, /*by_peer=*/false);
      return;
    }
  }
  update_epoll(conn);
}

void DecodeService::update_epoll(Connection& conn) {
  const std::uint32_t desired =
      ((conn.throttled || conn.read_closed) ? 0U : EPOLLIN) |
      (conn.queued_bytes() > 0 ? EPOLLOUT : 0U);
  if (desired == conn.epoll_events) return;
  conn.epoll_events = desired;
  epoll_event ev{};
  ev.events = desired;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void DecodeService::close_connection(int fd, bool evicted, bool by_peer) {
  (void)by_peer;
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (evicted) ++counters_.connections_evicted_slow;
  if (conn.throttled) {
    const auto paused_it = throttled_fds_.find(conn.throttle_tenant);
    if (paused_it != throttled_fds_.end()) {
      paused_it->second.erase(fd);
      if (paused_it->second.empty()) throttled_fds_.erase(paused_it);
    }
  }
  // Orphan this connection's jobs. Parked ones are swept out of the wait
  // lines lazily (the sweep sees conn_fd == -1); submitted ones complete
  // normally with the response dropped.
  for (const std::uint64_t serial : conn.pending_serials) {
    const auto pending_it = pending_.find(serial);
    if (pending_it != pending_.end()) pending_it->second->conn_fd = -1;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conn.fd = -1;
  // Defer destruction one tick: a handler higher in the call stack may
  // still hold a reference to this Connection (send_bytes evicting the very
  // connection it was writing to).
  graveyard_.push_back(std::move(it->second));
  conns_.erase(it);
  if (counters_.connections_active > 0) --counters_.connections_active;
}

std::string DecodeService::build_stats_json() {
  // counters_ and friends are already under state_mutex_ (we are on the
  // loop thread); the engine snapshot is internally consistent (tear-free
  // by construction — see BatchEngine::snapshot()).
  const EngineMetrics engine = engine_->snapshot();
  const CodecCacheStats codec = codecs_->stats();
  std::ostringstream os;
  os << "{";
  os << "\"jobs_admitted\": " << counters_.jobs_admitted
     << ", \"jobs_completed\": " << counters_.jobs_completed
     << ", \"jobs_deadline_expired\": " << counters_.jobs_deadline_expired
     << ", \"jobs_shed\": " << counters_.jobs_shed
     << ", \"jobs_rate_limited\": " << counters_.jobs_rate_limited
     << ", \"jobs_quota_rejected\": " << counters_.jobs_quota_rejected
     << ", \"malformed_frames\": " << counters_.malformed_frames
     << ", \"connections_active\": " << counters_.connections_active;
  os << ", \"engine\": {\"jobs_completed\": " << engine.jobs_completed
     << ", \"queue_mean_occupancy\": " << engine.queue_mean_occupancy
     << ", \"latency_p50_us\": " << engine.latency.p50_us
     << ", \"latency_p95_us\": " << engine.latency.p95_us
     << ", \"latency_p99_us\": " << engine.latency.p99_us << "}";
  os << ", \"codec_cache\": {\"entries\": " << codec.entries
     << ", \"hits\": " << codec.hits << ", \"misses\": " << codec.misses
     << ", \"coalesced_waits\": " << codec.coalesced_waits << "}";
  os << ", \"tenants\": [";
  bool first = true;
  for (const TenantStats& t : admission_.stats()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"tenant\": " << t.tenant_id << ", \"policy\": \""
       << ldpc::to_string(t.policy) << "\", \"admitted\": " << t.admitted
       << ", \"in_flight\": " << t.in_flight << ", \"parked\": " << t.parked
       << ", \"rate_limited\": " << t.rate_limited
       << ", \"quota_rejected\": " << t.quota_rejected
       << ", \"shed\": " << t.shed << ", \"completed\": " << t.completed
       << "}";
  }
  os << "]}";
  return os.str();
}

ServiceStats DecodeService::stats() const {
  ServiceStats out;
  {
    const MutexLock lock(state_mutex_);
    out = counters_;
    out.tenants = admission_.stats();
  }
  if (codecs_) out.codec = codecs_->stats();
  if (engine_) out.engine = engine_->snapshot();
  return out;
}

ShutdownReport DecodeService::shutdown(Clock::time_point deadline) {
  const MutexLock shutdown_lock(shutdown_mutex_);
  if (shutdown_done_) return shutdown_report_;
  ShutdownReport report;
  if (!loop_thread_.joinable()) {
    shutdown_done_ = true;
    shutdown_report_ = report;
    return report;
  }

  {
    const MutexLock lock(state_mutex_);
    draining_ = true;
  }
  wake_loop();
  {
    MutexLock lock(state_mutex_);
    while (!pending_.empty()) {
      if (lock.wait_until(drained_cv_, deadline) == std::cv_status::timeout)
        break;
    }
    report.drained_clean = pending_.empty();
    if (!report.drained_clean) flush_requested_ = true;
  }
  if (!report.drained_clean) {
    wake_loop();
    MutexLock lock(state_mutex_);
    const auto grace_deadline = Clock::now() + kCancelGrace;
    while (!pending_.empty()) {
      if (lock.wait_until(drained_cv_, grace_deadline) ==
          std::cv_status::timeout)
        break;
    }
    report.parked_flushed = counters_.jobs_flushed_at_drain;
    report.cancelled_in_flight = drain_cancelled_;
  }
  // Engine-level drain: any job still running ignored its cancel token (or
  // is wedged); report it instead of hanging.
  const DrainReport engine_drain =
      engine_->drain_until(Clock::now() + std::chrono::milliseconds(100));
  report.stragglers = engine_drain.outstanding;
  report.straggler_frames = engine_drain.straggler_frames;

  {
    const MutexLock lock(state_mutex_);
    stop_requested_ = true;
  }
  wake_loop();
  loop_thread_.join();
  shutdown_done_ = true;
  shutdown_report_ = report;
  return report;
}

}  // namespace ldpc::service
