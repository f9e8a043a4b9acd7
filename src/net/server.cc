#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/strutil.h"

namespace ode {
namespace net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kPollTimeoutMs = 200;
}  // namespace

IngestServer::IngestServer(runtime::IngestRuntime* rt, ServerOptions options)
    : rt_(rt), options_(std::move(options)) {}

IngestServer::~IngestServer() { Stop(); }

Status IngestServer::Start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("ingest server cannot be restarted");
  }
  Result<Socket> listener =
      TcpListen(options_.host, options_.port, options_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  ODE_RETURN_IF_ERROR(SetNonBlocking(listener_.fd(), true));
  ODE_ASSIGN_OR_RETURN(port_, LocalPort(listener_.fd()));
  ODE_RETURN_IF_ERROR(OpenWakePipe(&accept_wake_read_, &accept_wake_write_));

  // Only kBlock runtimes turn a TryPost bounce into a parked frame; the
  // other policies never block a Post, so a bounce is a real rejection.
  defer_on_full_ =
      rt_->options().backpressure == runtime::BackpressurePolicy::kBlock;

  const size_t n = options_.io_threads == 0 ? 1 : options_.io_threads;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    ODE_RETURN_IF_ERROR(OpenWakePipe(&w->wake_read, &w->wake_write));
    workers_.push_back(std::move(w));
  }
  // Shard-capacity wakeups: when a previously-full queue frees space,
  // every worker gets a kick so parked connections retry their deferred
  // frames promptly (the poll timeout is the lost-wakeup backstop). The
  // listener runs on shard worker threads; WakePipe is non-blocking.
  rt_->SetCapacityListener([this](size_t) {
    for (const auto& w : workers_) WakePipe(w->wake_write.fd());
  });

  running_.store(true, std::memory_order_release);
  drain_thread_ = std::thread([this] { DrainServiceLoop(); });
  for (auto& w : workers_) {
    Worker* raw = w.get();
    raw->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void IngestServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unhook the capacity listener first: it synchronizes on the shard queue
  // mutexes, so once it returns no shard thread can touch the worker wake
  // pipes we are about to close.
  rt_->SetCapacityListener(nullptr);
  WakePipe(accept_wake_write_.fd());
  for (const auto& w : workers_) WakePipe(w->wake_write.fd());
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_stop_ = true;
  }
  drain_cv_.notify_all();
  if (drain_thread_.joinable()) drain_thread_.join();

  // Single-threaded teardown: every thread is joined, so the connection
  // tables are ours. Send each connection the ACK watermark it has earned
  // (best-effort — a clean shutdown must not strand acked-but-unsent
  // watermarks), flush, and retire its producer.
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      for (auto& conn : w->incoming) w->conns.push_back(std::move(conn));
      w->incoming.clear();
      w->completions.clear();
    }
    for (const auto& conn : w->conns) {
      if (conn->sock.valid()) {
        MaybeAck(conn.get(), /*force=*/true);
        (void)FlushWrites(conn.get());
      }
      RetireConn(conn.get());
    }
    w->conns.clear();
    w->wake_read.Reset();
    w->wake_write.Reset();
  }
  listener_.Reset();
  accept_wake_read_.Reset();
  accept_wake_write_.Reset();
  live_conns_.store(0, std::memory_order_relaxed);
}

void IngestServer::AcceptLoop() {
  std::array<pollfd, 2> fds;
  while (running_.load(std::memory_order_acquire)) {
    fds[0] = pollfd{accept_wake_read_.fd(), POLLIN, 0};
    fds[1] = pollfd{listener_.fd(), POLLIN, 0};
    int rc = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (!running_.load(std::memory_order_acquire)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // Unrecoverable poll failure; drop the acceptor.
    }
    if (fds[0].revents & POLLIN) DrainWakePipe(accept_wake_read_.fd());
    if (!(fds[1].revents & POLLIN)) continue;
    // Drain the accept backlog (the listener is edge-ish under poll: one
    // POLLIN may cover several pending connections).
    while (true) {
      std::string peer;
      Result<Socket> accepted = Accept(listener_.fd(), &peer);
      if (!accepted.ok()) break;  // EAGAIN or transient failure.
      // Non-blocking *before* any courtesy traffic: the fresh socket
      // inherits blocking mode, and a reject ERR sent blocking would let
      // one peer with a full receive window stall all accepting.
      if (!SetNonBlocking(accepted->fd(), true).ok()) continue;
      if (live_conns_.load(std::memory_order_relaxed) >=
          options_.max_connections) {
        // Reject politely but best-effort: one ERR frame if the socket
        // takes it immediately, then close either way.
        std::string reply;
        AppendErr(&reply, 0, WireError::kInternal, "connection limit reached");
        (void)!::send(accepted->fd(), reply.data(), reply.size(),
                      MSG_NOSIGNAL);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
      conn->sock = std::move(accepted).value();
      conn->peer = peer;
      conn->producer = rt_->RegisterProducer(
          StrFormat("conn%llu[%s]", static_cast<unsigned long long>(conn->id),
                    peer.c_str()));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      live_conns_.fetch_add(1, std::memory_order_relaxed);
      DispatchConn(std::move(conn));
    }
  }
}

void IngestServer::DispatchConn(std::unique_ptr<Conn> conn) {
  Worker* best = workers_[0].get();
  size_t best_load = best->load.load(std::memory_order_relaxed);
  for (size_t i = 1; i < workers_.size(); ++i) {
    size_t load = workers_[i]->load.load(std::memory_order_relaxed);
    if (load < best_load) {
      best = workers_[i].get();
      best_load = load;
    }
  }
  conn->worker = best->index;
  best->load.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(best->mu);
    best->incoming.push_back(std::move(conn));
  }
  WakePipe(best->wake_write.fd());
}

void IngestServer::WorkerLoop(Worker* w) {
  std::vector<pollfd> fds;
  std::vector<DrainDone> done;
  while (running_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back(pollfd{w->wake_read.fd(), POLLIN, 0});
    for (const auto& conn : w->conns) {
      short events = 0;
      // Reads are masked while frames are parked (strict FIFO — nothing
      // newer may be handled first) and once the connection is closing.
      if (!conn->closing && conn->deferred.empty()) events |= POLLIN;
      if (conn->out_pos < conn->out.size()) events |= POLLOUT;
      fds.push_back(pollfd{conn->sock.fd(), events, 0});
    }
    int rc = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (!running_.load(std::memory_order_acquire)) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // Unrecoverable poll failure; drop this worker.
    }
    if (fds[0].revents & POLLIN) DrainWakePipe(w->wake_read.fd());

    // Mailbox: adopt fresh connections, collect drain-barrier completions.
    done.clear();
    {
      std::lock_guard<std::mutex> lock(w->mu);
      for (auto& conn : w->incoming) w->conns.push_back(std::move(conn));
      w->incoming.clear();
      done.swap(w->completions);
    }
    for (DrainDone& d : done) {
      Conn* conn = nullptr;
      for (const auto& c : w->conns) {
        if (c->id == d.conn_id) {
          conn = c.get();
          break;
        }
      }
      if (conn == nullptr) continue;  // Died while the barrier ran.
      --conn->pending_drains;
      if (d.status.ok()) {
        AppendDrainOk(&conn->out, d.seq);
      } else {
        AppendErr(&conn->out, d.seq, WireErrorFromStatus(d.status),
                  d.status.message());
        if (d.status.code() == StatusCode::kShutdown) conn->closing = true;
      }
    }

    // fds[i + 1] belongs to conns[i] only for the connections that were
    // polled this round; just-adopted ones (appended above, so earlier
    // indices are stable) get revents 0 and only take the deferred/flush
    // passes.
    for (size_t i = 0; i < w->conns.size(); ++i) {
      Conn* conn = w->conns[i].get();
      short revents = i + 1 < fds.size() ? fds[i + 1].revents : 0;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Peer is gone; pending replies are undeliverable.
        alive = false;
      } else {
        if (alive && (revents & POLLIN)) alive = HandleReadable(w, conn);
        // Retry parked frames every round: capacity wakeups are a latency
        // optimization, the poll timeout guarantees progress.
        if (alive && !conn->deferred.empty()) alive = PumpDeferred(w, conn);
        if (alive && conn->out_pos < conn->out.size()) {
          alive = FlushWrites(conn);
        }
      }
      // A closing connection dies once its replies are flushed and no
      // drain barrier is still in flight for it. Parked frames on a
      // closing connection are dropped un-ACKed — an identified client
      // replays them, which is exactly the at-least-once contract.
      if (alive && conn->closing && conn->out_pos >= conn->out.size() &&
          conn->pending_drains == 0) {
        alive = false;
      }
      if (!alive) {
        RetireConn(conn);
        live_conns_.fetch_sub(1, std::memory_order_relaxed);
        w->load.fetch_sub(1, std::memory_order_relaxed);
        w->conns[i] = nullptr;
      }
    }
    std::erase(w->conns, nullptr);
  }
}

void IngestServer::DrainServiceLoop() {
  while (true) {
    std::pair<size_t, DrainDone> req;
    {
      std::unique_lock<std::mutex> lock(drain_mu_);
      drain_cv_.wait(lock,
                     [&] { return drain_stop_ || !drain_requests_.empty(); });
      // Pending barriers die with their connections at Stop.
      if (drain_stop_) return;
      req = std::move(drain_requests_.front());
      drain_requests_.pop_front();
    }
    req.second.status = rt_->Drain();
    Worker* w = workers_[req.first].get();
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->completions.push_back(std::move(req.second));
    }
    WakePipe(w->wake_write.fd());
  }
}

void IngestServer::SubmitDrain(Conn* conn, uint64_t seq) {
  DrainDone job;
  job.conn_id = conn->id;
  job.seq = seq;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_requests_.emplace_back(conn->worker, std::move(job));
  }
  drain_cv_.notify_one();
}

bool IngestServer::HandleReadable(Worker* w, Conn* conn) {
  char chunk[kReadChunk];
  ssize_t n = ::recv(conn->sock.fd(), chunk, sizeof(chunk), 0);
  if (n == 0) return false;  // EOF.
  if (n < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
  conn->decoder.Append(chunk, static_cast<size_t>(n));
  DecodeBuffered(w, conn);
  if (conn->out.size() - conn->out_pos > options_.max_write_buffer) {
    // The peer is not reading its replies: cut it loose — but attempt the
    // final flush first, so a closing connection's promised ERR (and any
    // earned ACKs) get their one chance on the wire.
    (void)FlushWrites(conn);
    return false;
  }
  return true;
}

void IngestServer::DecodeBuffered(Worker* w, Conn* conn) {
  Frame frame;
  while (!conn->closing &&
         conn->deferred.size() < options_.max_deferred_frames) {
    FrameDecoder::State state = conn->decoder.Next(&frame);
    if (state == FrameDecoder::State::kNeedMore) return;
    if (state == FrameDecoder::State::kError) {
      // Framing is lost: report once, flush, close.
      AppendErr(&conn->out, 0, WireError::kMalformed, conn->decoder.error());
      conn->closing = true;
      return;
    }
    frames_handled_.fetch_add(1, std::memory_order_relaxed);
    FrameResult r = FrameResult::kContinue;
    if (frame.type == FrameType::kPost) {
      runtime::IngestEvent event;
      event.oid = frame.oid;
      event.method = std::move(frame.method);
      event.args = std::move(frame.args);
      event.producer_id = conn->identity;
      event.producer_seq = frame.seq;
      // Strict FIFO: with frames already parked, this post queues behind
      // them whatever the shard occupancy — handling it early would let a
      // cumulative ACK cover a still-parked predecessor.
      r = conn->deferred.empty() ? HandlePost(conn, &event)
                                 : FrameResult::kParked;
      if (r == FrameResult::kParked) {
        frames_deferred_.fetch_add(1, std::memory_order_relaxed);
        DeferredFrame parked;
        parked.is_post = true;
        parked.event = std::move(event);
        conn->deferred.push_back(std::move(parked));
        continue;
      }
    } else if (!conn->deferred.empty()) {
      // Control frames queue behind parked posts too: their replies (a
      // DRAIN barrier especially) must observe the connection's frame
      // order.
      frames_deferred_.fetch_add(1, std::memory_order_relaxed);
      DeferredFrame parked;
      parked.frame = std::move(frame);
      conn->deferred.push_back(std::move(parked));
      continue;
    } else {
      r = DispatchFrame(w, conn, std::move(frame));
    }
    if (r == FrameResult::kClose) {
      conn->closing = true;
      return;
    }
  }
}

bool IngestServer::PumpDeferred(Worker* w, Conn* conn) {
  while (!conn->deferred.empty() && !conn->closing) {
    DeferredFrame& head = conn->deferred.front();
    FrameResult r;
    if (head.is_post) {
      r = HandlePost(conn, &head.event);
      if (r == FrameResult::kParked) return true;  // Still full; stay parked.
    } else {
      r = DispatchFrame(w, conn, std::move(head.frame));
    }
    conn->deferred.pop_front();
    if (r == FrameResult::kClose) conn->closing = true;
  }
  if (conn->closing) return true;  // The close logic reaps once flushed.
  // Reads were masked while frames were parked; bytes that piled up in the
  // decoder meanwhile are decodable again now.
  DecodeBuffered(w, conn);
  if (conn->out.size() - conn->out_pos > options_.max_write_buffer) {
    (void)FlushWrites(conn);
    return false;
  }
  return true;
}

IngestServer::FrameResult IngestServer::HandlePost(
    Conn* conn, runtime::IngestEvent* event) {
  const uint64_t seq = event->producer_seq;
  bool duplicate = false;
  Status s = rt_->TryPost(event, conn->producer, &duplicate);
  if (s.ok()) {
    // Exactly-once replay dedup: the runtime's atomic applied-seq check
    // reports a seq an earlier connection already applied (possibly in a
    // previous server process, recovered from the WAL, or a predecessor
    // connection still draining on another worker). It is ACKed so the
    // client trims its retry buffer, but not posted again.
    if (duplicate) posts_deduped_.fetch_add(1, std::memory_order_relaxed);
    conn->last_accepted_seq = seq;
    ++conn->accepted_since_ack;
    MaybeAck(conn, /*force=*/false);
    return FrameResult::kContinue;
  }
  if (defer_on_full_ && s.code() == StatusCode::kWouldBlock) {
    // The shard queue (or the checkpoint gate) is full/held; *event came
    // back intact. Park it instead of blocking the worker.
    return FrameResult::kParked;
  }
  // Acknowledge what preceded the failure, then report it with the
  // failing seq so the client can retarget exactly that event.
  MaybeAck(conn, /*force=*/true);
  AppendErr(&conn->out, seq, WireErrorFromStatus(s), s.message());
  return s.code() == StatusCode::kShutdown ? FrameResult::kClose
                                           : FrameResult::kContinue;
}

IngestServer::FrameResult IngestServer::DispatchFrame(Worker* w, Conn* conn,
                                                      Frame&& frame) {
  (void)w;
  switch (frame.type) {
    case FrameType::kPost:
      // Posts are turned into IngestEvents at decode (DecodeBuffered) and
      // retried through HandlePost; they never reach here.
      return FrameResult::kClose;
    case FrameType::kDrain: {
      // One forced ACK before the barrier reply, as documented — then hand
      // the potentially long Drain() to the drain-service thread so this
      // worker keeps serving its other connections meanwhile.
      MaybeAck(conn, /*force=*/true);
      ++conn->pending_drains;
      SubmitDrain(conn, frame.seq);
      return FrameResult::kContinue;
    }
    case FrameType::kMetrics: {
      runtime::RuntimeMetricsSnapshot snap = rt_->Metrics();
      RemoteMetrics remote;
      remote.total = snap.total;
      remote.shards = std::move(snap.shards);
      remote.producers = std::move(snap.producers);
      remote.sequencer = std::move(snap.sequencer);
      AppendMetricsReply(&conn->out, frame.seq, remote);
      return FrameResult::kContinue;
    }
    case FrameType::kPing:
      AppendPong(&conn->out, frame.seq);
      return FrameResult::kContinue;
    case FrameType::kHello: {
      // The decoder already enforced a non-empty identity within the cap.
      conn->identity = std::move(frame.identity);
      AppendHelloOk(&conn->out, frame.seq,
                    rt_->AppliedSeqs(conn->identity).max_seq());
      return FrameResult::kContinue;
    }
    default:
      // Reply frame types are not valid requests.
      AppendErr(&conn->out, frame.seq, WireError::kUnsupported,
                StrFormat("%s is not a request", FrameTypeName(frame.type)));
      return FrameResult::kClose;
  }
}

void IngestServer::RetireConn(Conn* conn) {
  // Fold the connection's producer counters into the runtime's retired
  // aggregate so connection churn cannot grow Metrics() without bound.
  rt_->RetireProducer(conn->producer);
  conn->producer = nullptr;
}

void IngestServer::MaybeAck(Conn* conn, bool force) {
  if (conn->accepted_since_ack == 0) return;
  if (!force && conn->accepted_since_ack < options_.ack_every) return;
  AppendAck(&conn->out, conn->last_accepted_seq);
  conn->accepted_since_ack = 0;
}

bool IngestServer::FlushWrites(Conn* conn) {
  while (conn->out_pos < conn->out.size()) {
    ssize_t n = ::send(conn->sock.fd(), conn->out.data() + conn->out_pos,
                       conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return errno == EINTR;
    }
    conn->out_pos += static_cast<size_t>(n);
  }
  conn->out.clear();
  conn->out_pos = 0;
  return true;
}

}  // namespace net
}  // namespace ode
