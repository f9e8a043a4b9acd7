#ifndef ODE_NET_SERVER_H_
#define ODE_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/ingest_runtime.h"

namespace ode {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the choice back with port().
  uint16_t port = 0;
  int backlog = 64;
  size_t max_connections = 256;
  /// Cumulative-ACK cadence: one kAck frame per this many accepted posts
  /// (plus one before every kDrainOk). Lower = tighter client retry
  /// buffers, higher = fewer reply bytes.
  uint64_t ack_every = 1024;
  /// A connection whose pending reply bytes exceed this is dropped — it is
  /// not reading its errors/acks. (A closing connection still gets one
  /// best-effort flush first, so the promised final ERR is attempted.)
  size_t max_write_buffer = 8 * 1024 * 1024;
  /// IO worker threads (clamped to >= 1). The acceptor thread dispatches
  /// each fresh connection to the least-loaded worker; each worker runs
  /// its own poll(2) loop over its own connection table.
  size_t io_threads = 1;
  /// Per-connection cap on frames parked while the posting shard's queue
  /// is full (kBlock runtimes, see the threading model below). While any
  /// frame is parked the connection's reads are masked, so once the park
  /// budget is spent TCP flow control paces that one peer.
  size_t max_deferred_frames = 256;
};

/// Multi-threaded poll(2) server bridging the wire protocol onto an
/// IngestRuntime.
///
/// Threading model (docs/NETWORK.md#threading-model):
///
///  * One acceptor thread owns the listener: it accepts, sets the socket
///    non-blocking, registers the per-connection producer, and hands the
///    connection to the least-loaded of `io_threads` IO workers through a
///    mutex-protected mailbox + self-pipe wakeup.
///  * Each IO worker owns its connections outright — pollfd set, decoder
///    state, write buffers, ACK watermarks — so the data path needs no
///    locking. Per-worker activity folds into the shared server counters
///    (relaxed atomics) and METRICS_REPLY.
///  * One drain-service thread serializes kDrain barriers, so a
///    seconds-long Drain() never wedges an IO worker; DRAIN_OK is routed
///    back to the owning worker by connection id.
///
/// Runtime backpressure maps onto the wire as:
///
///  * kBlock      — the handoff is IngestRuntime::TryPost: a full shard
///                  queue parks the posting frame (and everything after
///                  it, FIFO) in the connection's bounded deferred queue
///                  and masks that connection's reads; shard capacity
///                  wakeups (plus the poll timeout) retry the deferral.
///                  Only the posting connection stalls — no head-of-line
///                  blocking across connections or workers.
///  * kReject     — Post returns kWouldBlock; the client gets
///                  ERR_WOULD_BLOCK with the post's seq and does its own
///                  retry/backoff (IngestClient resends at Drain).
///  * kDropNewest — Post returns OK; losses are visible in metrics only.
///
/// A Post after IngestRuntime::Stop() returns kShutdown, which becomes a
/// clean ERR_SHUTTING_DOWN reply, after which the connection is flushed
/// and closed. A malformed frame gets ERR_MALFORMED and the connection is
/// closed (framing is lost). Stop() flushes each connection's earned ACK
/// watermark best-effort before closing, so a clean shutdown does not
/// strand acked-but-unsent watermarks.
///
/// Each connection registers a producer with the runtime, so Metrics()
/// attributes accepted/rejected/failed posts per connection. On
/// disconnect the producer is retired: its counters fold into the
/// runtime's aggregate "retired[n]" entry, so the producer list (and the
/// METRICS_REPLY payload) stays bounded by the live connection count even
/// under heavy connection churn.
///
/// Exactly-once: a client that announces a durable identity (kHello)
/// gets replay dedup. Every identified POST goes through the runtime's
/// atomic applied-seq check-and-record (IngestRuntime::TryPost); a seq
/// already applied by a previous connection (or a previous server
/// *process*, when the runtime is durable) is ACKed without re-posting.
/// HELLO_OK carries the identity's applied watermark. Combined with
/// the client's replay-unacked-on-reconnect, delivery for identified
/// sessions is exactly-once across reconnects and crash-recovery restarts
/// (docs/DURABILITY.md). The guarantees are per connection and therefore
/// hold unchanged per worker: deferral is strict FIFO, so a cumulative ACK
/// can never cover a still-parked post.
class IngestServer {
 public:
  IngestServer(runtime::IngestRuntime* rt, ServerOptions options = {});
  ~IngestServer();  ///< Stops if still running.

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds, listens, and launches the acceptor + IO worker + drain-service
  /// threads. Call after the runtime's Start() (the capacity listener
  /// registers against the live shards). kFailedPrecondition on a second
  /// Start.
  Status Start();

  /// Closes the listener and every connection and joins all threads. Each
  /// connection's pending ACK watermark is flushed best-effort first.
  /// Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }
  /// IO worker count actually running (options.io_threads clamped).
  size_t io_threads() const { return workers_.size(); }

  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_handled() const {
    return frames_handled_.load(std::memory_order_relaxed);
  }
  /// Posts ACKed via the exactly-once dedup path (seq already applied for
  /// the connection's identity) without being queued again.
  uint64_t posts_deduped() const {
    return posts_deduped_.load(std::memory_order_relaxed);
  }
  /// Frames parked at least once behind a full shard queue (kBlock).
  uint64_t frames_deferred() const {
    return frames_deferred_.load(std::memory_order_relaxed);
  }

 private:
  /// A frame parked behind a full shard queue. Posts are held as the
  /// ready-to-enqueue IngestEvent (TryPost hands it back intact on a
  /// bounce); anything else keeps the decoded frame. FIFO discipline over
  /// *all* frame kinds is what keeps the ACK watermark truthful: a later
  /// frame must never be handled while an earlier post is still parked.
  struct DeferredFrame {
    bool is_post = false;
    runtime::IngestEvent event;  ///< Valid when is_post.
    Frame frame;                 ///< Valid when !is_post.
  };

  struct Conn {
    uint64_t id = 0;            ///< Server-unique; drain completions route by it.
    size_t worker = 0;          ///< Owning worker index.
    Socket sock;
    std::string peer;
    FrameDecoder decoder;
    std::string out;      ///< Pending reply bytes.
    size_t out_pos = 0;   ///< Flushed prefix of out.
    runtime::ProducerMetrics* producer = nullptr;
    uint64_t last_accepted_seq = 0;  ///< ACK watermark: accepted posts only.
    uint64_t accepted_since_ack = 0;
    /// Durable identity announced by kHello; empty = anonymous session
    /// (no dedup, plain at-least-once).
    std::string identity;
    /// Frames parked behind a full shard queue, strict arrival order.
    /// Non-empty ⇒ reads are masked (undecoded bytes wait in the decoder).
    std::deque<DeferredFrame> deferred;
    uint64_t pending_drains = 0;  ///< kDrain barriers in flight.
    bool closing = false;  ///< Flush remaining replies, then close.
  };

  /// A kDrain barrier outcome travelling back to the owning worker.
  struct DrainDone {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    Status status;
  };

  /// One IO worker: its thread, wake pipe, thread-owned connection table,
  /// and the mailbox other threads feed (under mu).
  struct Worker {
    size_t index = 0;
    std::thread thread;
    Socket wake_read, wake_write;
    std::mutex mu;  ///< Guards incoming + completions.
    std::vector<std::unique_ptr<Conn>> incoming;  ///< From the acceptor.
    std::vector<DrainDone> completions;           ///< From the drain service.
    std::vector<std::unique_ptr<Conn>> conns;     ///< Worker-thread only.
    /// Connections owned (live + mailbox); the acceptor's load-balance key.
    std::atomic<size_t> load{0};
  };

  enum class FrameResult {
    kContinue,  ///< Handled (reply appended or post accepted).
    kParked,    ///< Full shard: frame sits in conn->deferred, retry later.
    kClose,     ///< Enter closing state (flush, then drop).
  };

  void AcceptLoop();
  void WorkerLoop(Worker* w);
  void DrainServiceLoop();

  /// Reads once; decodes and handles every complete frame. False when the
  /// connection should be dropped now (EOF/error, or reply backlog over
  /// max_write_buffer after a best-effort flush).
  bool HandleReadable(Worker* w, Conn* conn);
  /// Decodes buffered bytes until out of data, the deferral budget is
  /// spent, or the connection enters closing.
  void DecodeBuffered(Worker* w, Conn* conn);
  /// Retries the connection's parked frames in FIFO order; on progress to
  /// empty, resumes decoding the bytes that arrived while reads were
  /// masked. False when the connection should be dropped.
  bool PumpDeferred(Worker* w, Conn* conn);
  /// Handles one decoded non-reply frame (posts go through HandlePost).
  FrameResult DispatchFrame(Worker* w, Conn* conn, Frame&& frame);
  /// The TryPost handoff: a non-blocking, deduplicating post. kParked
  /// leaves *event intact for the caller to park.
  FrameResult HandlePost(Conn* conn, runtime::IngestEvent* event);
  /// Writes as much pending output as the socket accepts. False on a dead
  /// socket.
  bool FlushWrites(Conn* conn);
  void MaybeAck(Conn* conn, bool force);
  /// Retires the connection's producer with the runtime (folding its
  /// counters into the retired aggregate). Called on every path that
  /// destroys a connection.
  void RetireConn(Conn* conn);
  /// Hands a fresh connection to the least-loaded worker.
  void DispatchConn(std::unique_ptr<Conn> conn);
  /// Queues a kDrain barrier for the drain-service thread.
  void SubmitDrain(Conn* conn, uint64_t seq);

  runtime::IngestRuntime* const rt_;
  const ServerOptions options_;
  /// kBlock runtimes defer bounced posts; kReject/kDropNewest never bounce
  /// a TryPost that a blocking Post would have absorbed.
  bool defer_on_full_ = false;
  Socket listener_;
  Socket accept_wake_read_, accept_wake_write_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> started_{false};
  std::atomic<size_t> live_conns_{0};  ///< Across all workers (limit check).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_handled_{0};
  std::atomic<uint64_t> posts_deduped_{0};
  std::atomic<uint64_t> frames_deferred_{0};
  std::atomic<uint64_t> next_conn_id_{0};

  // Drain service: requests in, completions routed to the owning worker.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::deque<std::pair<size_t, DrainDone>> drain_requests_;  ///< worker, job.
  bool drain_stop_ = false;
  std::thread drain_thread_;
};

}  // namespace net
}  // namespace ode

#endif  // ODE_NET_SERVER_H_
