#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "common/strutil.h"

namespace ode {
namespace net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;

bool IsReplyTo(const Frame& frame, uint64_t seq) {
  switch (frame.type) {
    case FrameType::kDrainOk:
    case FrameType::kPong:
    case FrameType::kMetricsReply:
    case FrameType::kErr:
      return frame.seq == seq;
    default:
      return false;
  }
}
}  // namespace

IngestClient::IngestClient(ClientOptions options)
    : options_(std::move(options)) {}

IngestClient::~IngestClient() {
  if (connected() && !outbuf_.empty()) (void)WriteAll();  // Best effort.
  Close();
}

Status IngestClient::Connect() {
  if (connected()) return Status::OK();
  Result<Socket> sock = TcpConnect(options_.host, options_.port);
  if (!sock.ok()) return sock.status();
  sock_ = std::move(sock).value();
  if (options_.recv_timeout_ms > 0) {
    ODE_RETURN_IF_ERROR(SetRecvTimeout(sock_.fd(), options_.recv_timeout_ms));
  }
  decoder_ = FrameDecoder();
  server_shutting_down_ = false;
  if (!options_.identity.empty()) {
    // Open the session with the identity announcement. It rides in the
    // send buffer ahead of whatever is posted (or replayed) next; the
    // HELLO_OK reply is informational and consumed like any other frame.
    ODE_RETURN_IF_ERROR(AppendHello(&outbuf_, next_seq_++, options_.identity));
  }
  return Status::OK();
}

void IngestClient::Close() {
  sock_.Reset();
  outbuf_.clear();
}

Status IngestClient::EncodePost(Oid oid, std::string_view method,
                                std::vector<Value> args) {
  // Validate-then-commit: the seq is consumed and the post tracked only
  // once AppendPost accepted it (a rejected post leaves no state behind).
  ODE_RETURN_IF_ERROR(AppendPost(&outbuf_, next_seq_, oid, method, args));
  uint64_t seq = next_seq_++;
  unacked_.push_back(
      PendingPost{seq, oid, std::string(method), std::move(args)});
  ++stats_.posted;
  return Status::OK();
}

Status IngestClient::Post(Oid oid, std::string_view method,
                          const std::vector<Value>& args) {
  if (!connected()) {
    if (!options_.auto_reconnect) {
      return Status::FailedPrecondition("client is not connected");
    }
    ODE_RETURN_IF_ERROR(Reconnect());
  }
  ODE_RETURN_IF_ERROR(EncodePost(oid, method, args));
  if (outbuf_.size() >= options_.flush_threshold) return Flush();
  return Status::OK();
}

Status IngestClient::Flush() {
  ODE_RETURN_IF_ERROR(WriteAll());
  bool saw = false;
  return PumpReplies(/*block=*/false, /*wait_seq=*/0, &saw);
}

Status IngestClient::WriteAll() {
  if (!connected()) {
    if (!options_.auto_reconnect) {
      return Status::FailedPrecondition("client is not connected");
    }
    // Reconnect rebuilds outbuf_ from the unacked posts, so resuming after
    // a lost connection replays the pipeline even if outbuf_ was cleared.
    ODE_RETURN_IF_ERROR(Reconnect());
  }
  size_t off = 0;
  int reconnect_cycles = 0;
  while (off < outbuf_.size()) {
    ssize_t n = ::send(sock_.fd(), outbuf_.data() + off, outbuf_.size() - off,
                       MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    // Broken pipe / reset: redial and replay the unacked pipeline.
    if (!options_.auto_reconnect ||
        ++reconnect_cycles > options_.max_reconnect_attempts) {
      const int send_errno = errno;
      // A server that is shutting down answers a post with
      // ERR_SHUTTING_DOWN and closes; bytes sent after that close are
      // answered with a reset. Its reply may still be unread: read it so
      // the caller learns why the connection went away.
      bool saw = false;
      (void)PumpReplies(/*block=*/false, /*wait_seq=*/0, &saw);
      Close();
      if (server_shutting_down_) {
        return Status::Shutdown("server is shutting down");
      }
      return Status::Unavailable(
          StrFormat("send: %s", std::strerror(send_errno)));
    }
    ODE_RETURN_IF_ERROR(Reconnect());
    off = 0;  // Reconnect rebuilt outbuf_ from the unacked posts.
  }
  outbuf_.clear();
  return Status::OK();
}

Status IngestClient::Reconnect() {
  Close();
  Status last = Status::Unavailable("reconnect disabled");
  for (int attempt = 0; attempt < options_.max_reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(options_.reconnect_backoff * attempt);
    }
    Status s = Connect();
    if (s.ok()) {
      ++stats_.reconnects;
      // Replay everything in flight (original seqs) behind the HELLO that
      // Connect just queued: the server may or may not have seen these
      // before the cut — at-least-once across redials, exactly-once when
      // an identity lets the server dedup the replay. Close() emptied
      // outbuf_, so the pipeline rebuilds from scratch here.
      for (const PendingPost& p : unacked_) {
        // Cannot fail: every unacked post already passed AppendPost's
        // validation when it was first encoded.
        (void)AppendPost(&outbuf_, p.seq, p.oid, p.method, p.args);
      }
      return Status::OK();
    }
    last = s;
  }
  return last;
}

void IngestClient::ApplyReply(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kAck:
      while (!unacked_.empty() && unacked_.front().seq <= frame.seq) {
        unacked_.pop_front();
        ++stats_.acked;
      }
      break;
    case FrameType::kErr: {
      if (frame.error == WireError::kShuttingDown) {
        server_shutting_down_ = true;
      }
      auto it = std::lower_bound(
          unacked_.begin(), unacked_.end(), frame.seq,
          [](const PendingPost& p, uint64_t seq) { return p.seq < seq; });
      if (it != unacked_.end() && it->seq == frame.seq) {
        if (frame.error == WireError::kWouldBlock) {
          bounced_.push_back(std::move(*it));
          ++stats_.rejected;
        } else {
          ++stats_.errors;
          if (hard_error_.ok()) {
            hard_error_ = StatusFromWireError(frame.error, frame.message);
          }
        }
        unacked_.erase(it);
      } else if (frame.error != WireError::kWouldBlock && hard_error_.ok()) {
        hard_error_ = StatusFromWireError(frame.error, frame.message);
      }
      break;
    }
    default:
      break;  // kDrainOk/kPong/kMetricsReply are consumed via wait_seq.
  }
}

Status IngestClient::PumpReplies(bool block, uint64_t wait_seq,
                                 bool* saw_wait_seq, Frame* reply) {
  *saw_wait_seq = false;
  Frame frame;
  while (true) {
    FrameDecoder::State state = decoder_.Next(&frame);
    if (state == FrameDecoder::State::kError) {
      Close();
      return Status::InvalidArgument("protocol error from server: " +
                                     decoder_.error());
    }
    if (state == FrameDecoder::State::kFrame) {
      ApplyReply(frame);
      if (wait_seq != 0 && IsReplyTo(frame, wait_seq)) {
        *saw_wait_seq = true;
        if (reply != nullptr) *reply = std::move(frame);
        // Keep draining whatever is already buffered, but stop blocking.
        block = false;
      }
      continue;
    }
    // kNeedMore.
    if (!connected()) {
      return block ? Status::Unavailable("connection closed") : Status::OK();
    }
    char chunk[kReadChunk];
    ssize_t n =
        ::recv(sock_.fd(), chunk, sizeof(chunk), block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      decoder_.Append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      Close();
      if (!block || *saw_wait_seq) return Status::OK();
      return server_shutting_down_
                 ? Status::Shutdown("server closed the connection")
                 : Status::Unavailable("connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!block) return Status::OK();
      return Status::Unavailable("timed out waiting for server reply");
    }
    // A reset rather than an orderly close: every reply received before it
    // has been decoded above, so ERR_SHUTTING_DOWN is known by now.
    const int recv_errno = errno;
    Close();
    if (server_shutting_down_) {
      return Status::Shutdown("server closed the connection");
    }
    return Status::Unavailable(
        StrFormat("recv: %s", std::strerror(recv_errno)));
  }
}

Status IngestClient::Roundtrip(void (*append)(std::string*, uint64_t),
                               Frame* reply) {
  ODE_RETURN_IF_ERROR(WriteAll());  // Flush posts; a reconnect replays them.
  for (int attempt = 0; attempt <= options_.max_reconnect_attempts;
       ++attempt) {
    uint64_t seq = next_seq_++;
    append(&outbuf_, seq);
    uint64_t reconnects_before = stats_.reconnects;
    ODE_RETURN_IF_ERROR(WriteAll());
    if (stats_.reconnects != reconnects_before) {
      // The reconnect rebuilt the pipeline from the unacked POSTs, which
      // drops the control frame we just appended — send a fresh one.
      continue;
    }
    bool saw = false;
    ODE_RETURN_IF_ERROR(PumpReplies(/*block=*/true, seq, &saw, reply));
    if (!saw) return Status::Unavailable("reply lost");
    if (reply->type == FrameType::kErr) {
      return StatusFromWireError(reply->error, reply->message);
    }
    return Status::OK();
  }
  return Status::Unavailable("connection kept dropping mid-request");
}

Status IngestClient::Drain() {
  std::chrono::microseconds backoff = options_.initial_backoff;
  int stalls = 0;
  size_t last_bounced = 0;
  bool first_round = true;
  while (true) {
    if (!first_round) {
      std::this_thread::sleep_for(backoff);
      std::vector<PendingPost> resend = std::move(bounced_);
      bounced_.clear();
      for (PendingPost& p : resend) {
        // Cannot fail: a bounced post already passed validation once.
        (void)EncodePost(p.oid, p.method, std::move(p.args));
        ++stats_.resent;
        --stats_.posted;  // A resend is not a new logical post.
      }
    }
    first_round = false;
    Frame reply;
    ODE_RETURN_IF_ERROR(Roundtrip(AppendDrain, &reply));
    if (server_shutting_down_) {
      return Status::Shutdown("server is shutting down");
    }
    if (!hard_error_.ok()) {
      Status s = hard_error_;
      hard_error_ = Status::OK();
      return s;
    }
    if (bounced_.empty()) return Status::OK();
    // Retry while the rounds make progress; back off (and eventually give
    // up) only across consecutive rounds where nothing got through.
    if (last_bounced == 0 || bounced_.size() < last_bounced) {
      stalls = 0;
      backoff = options_.initial_backoff;
    } else if (++stalls > options_.max_drain_retries) {
      return Status::WouldBlock(
          StrFormat("%zu posts still rejected after %d stalled drain rounds",
                    bounced_.size(), options_.max_drain_retries));
    } else {
      backoff *= 2;
    }
    last_bounced = bounced_.size();
  }
}

Result<RemoteMetrics> IngestClient::Metrics() {
  Frame reply;
  ODE_RETURN_IF_ERROR(Roundtrip(AppendMetricsRequest, &reply));
  return std::move(reply.metrics);
}

Status IngestClient::Ping() {
  Frame reply;
  return Roundtrip(AppendPing, &reply);
}

}  // namespace net
}  // namespace ode
