// End-to-end loopback tests for the network ingest front end: an
// IngestServer over a real IngestRuntime, talked to by real IngestClients
// over TCP.
//
// The headline test drives >= 100k events from 4 concurrent client
// threads and checks oracle parity: each thread owns a disjoint set of
// objects, so a single-threaded Database replaying each thread's stream
// in order must produce the identical attribute state and trigger-firing
// counts. The remaining tests cover the wire-level contracts: kReject
// backpressure with retry-to-exactly-once delivery, the kShutdown
// handshake, malformed-frame handling, metrics/producer attribution,
// ping, and client reconnect.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/socket.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "ode/database.h"
#include "runtime/ingest_runtime.h"
#include "test_util.h"

namespace ode {
namespace net {
namespace {

using runtime::BackpressurePolicy;
using runtime::IngestOptions;
using runtime::IngestRuntime;

// `count` bumps `touches` — the standard observable action.
Status CountAction(const ActionContext& ctx) {
  ODE_ASSIGN_OR_RETURN(Value t, ctx.db->PeekAttr(ctx.self, "touches"));
  ODE_ASSIGN_OR_RETURN(Value next, t.Add(Value(1)));
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", next);
}

// Parity class (same construction as runtime_ingest_test): all three
// triggers are insensitive to how events are batched into transactions,
// so concurrent sharded ingest must reproduce the single-threaded outcome
// exactly.
ClassDef ParityClass() {
  ClassDef def("cell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddMethod(MethodDef{"peek", {}, MethodKind::kReadOnly, nullptr});
  def.AddTrigger("T1(): perpetual every 3 (after add) ==> count");
  def.AddTrigger("T2(): perpetual after add (d) && d > 50 ==> count");
  def.AddTrigger("T3(): perpetual relative(after add, after peek) ==> count");
  return def;
}

std::vector<Oid> SetupParityDb(Database* db, size_t num_objects) {
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterClass(ParityClass()).status().ok());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < num_objects; ++i) {
    Result<Oid> oid = db->New(t, "cell");
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    oids.push_back(*oid);
    for (const char* trig : {"T1", "T2", "T3"}) {
      ODE_EXPECT_OK(db->ActivateTrigger(t, *oid, trig));
    }
  }
  ODE_EXPECT_OK(db->Commit(t));
  return oids;
}

struct WorkItem {
  size_t obj;   ///< Index into the owning thread's object slice.
  bool is_add;
  int delta;
};

std::vector<WorkItem> MakeWorkload(size_t num_objects, size_t num_events,
                                   uint32_t seed) {
  // Deterministic xorshift so the oracle can replay the exact stream.
  uint64_t state = seed * 2654435761u + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<WorkItem> work;
  work.reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    WorkItem w;
    w.obj = next() % num_objects;
    w.is_add = next() % 4 != 0;
    w.delta = static_cast<int>(next() % 100);
    work.push_back(w);
  }
  return work;
}

/// Full server+runtime fixture over the parity schema.
struct Rig {
  explicit Rig(IngestOptions ingest_options = {}, size_t num_objects = 16,
               ServerOptions server_options = {})
      : oids(SetupParityDb(&db, num_objects)),
        rt(&db, ingest_options),
        server(&rt, server_options) {
    ODE_EXPECT_OK(rt.Start());
    ODE_EXPECT_OK(server.Start());
  }

  ClientOptions Client() const {
    ClientOptions options;
    options.port = server.port();
    options.recv_timeout_ms = 30000;
    return options;
  }

  Database db;
  std::vector<Oid> oids;
  IngestRuntime rt;
  IngestServer server;
};

// >= 100k events from 4 concurrent clients, each owning a disjoint slice
// of objects. Parity oracle: replay each thread's stream single-threaded,
// in order, and demand identical per-object state (v, touches).
TEST(NetE2eTest, FourClientsLoopbackMatchesOracle) {
  constexpr size_t kThreads = 4;
  constexpr size_t kObjectsPerThread = 4;
  constexpr size_t kEventsPerThread = 25000;  // 100k total.

  IngestOptions ingest_options;
  ingest_options.num_shards = 4;
  ingest_options.queue_capacity = 4096;
  ingest_options.max_batch = 256;
  Rig rig(ingest_options, kThreads * kObjectsPerThread);

  std::vector<std::vector<WorkItem>> work(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    work[t] = MakeWorkload(kObjectsPerThread, kEventsPerThread,
                           static_cast<uint32_t>(t + 1));
  }

  std::vector<IngestClient::Stats> stats(kThreads);
  std::vector<Status> results(kThreads, Status::OK());
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        IngestClient client(rig.Client());
        Status s = client.Connect();
        for (const WorkItem& w : work[t]) {
          if (!s.ok()) break;
          Oid oid = rig.oids[t * kObjectsPerThread + w.obj];
          s = w.is_add ? client.Post(oid, "add", {Value(w.delta)})
                       : client.Post(oid, "peek");
        }
        if (s.ok()) s = client.Drain();
        results[t] = s;
        stats[t] = client.stats();
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].ok())
        << "thread " << t << ": " << results[t].ToString();
    EXPECT_EQ(stats[t].posted, kEventsPerThread) << "thread " << t;
    EXPECT_EQ(stats[t].errors, 0u) << "thread " << t;
  }

  // Runtime totals match the client-side counts exactly.
  runtime::RuntimeMetricsSnapshot snap = rig.rt.Metrics();
  EXPECT_EQ(snap.total.enqueued, kThreads * kEventsPerThread);
  EXPECT_EQ(snap.total.processed, kThreads * kEventsPerThread);
  EXPECT_EQ(snap.total.dropped, 0u);
  EXPECT_EQ(snap.total.dead_lettered, 0u);
  uint64_t producer_accepted = 0;
  for (const auto& p : snap.producers) producer_accepted += p.accepted;
  EXPECT_EQ(producer_accepted, kThreads * kEventsPerThread);

  // Oracle: one transaction per event, fully single-threaded, respecting
  // each thread's post order (threads own disjoint objects, so per-object
  // order is exactly the owning thread's order).
  Database oracle;
  std::vector<Oid> oracle_oids =
      SetupParityDb(&oracle, kThreads * kObjectsPerThread);
  for (size_t t = 0; t < kThreads; ++t) {
    for (const WorkItem& w : work[t]) {
      TxnId txn = oracle.Begin().value();
      Oid oid = oracle_oids[t * kObjectsPerThread + w.obj];
      Result<Value> r = w.is_add
                            ? oracle.Call(txn, oid, "add", {Value(w.delta)})
                            : oracle.Call(txn, oid, "peek");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ODE_ASSERT_OK(oracle.Commit(txn));
    }
  }
  for (size_t i = 0; i < rig.oids.size(); ++i) {
    Result<Value> v = rig.db.PeekAttr(rig.oids[i], "v");
    Result<Value> ov = oracle.PeekAttr(oracle_oids[i], "v");
    Result<Value> touches = rig.db.PeekAttr(rig.oids[i], "touches");
    Result<Value> otouches = oracle.PeekAttr(oracle_oids[i], "touches");
    ASSERT_TRUE(v.ok() && ov.ok() && touches.ok() && otouches.ok());
    EXPECT_EQ(v->AsInt().value(), ov->AsInt().value()) << "object " << i;
    EXPECT_EQ(touches->AsInt().value(), otouches->AsInt().value())
        << "object " << i;
  }
}

// kReject backpressure: tiny queues bounce posts with ERR_WOULD_BLOCK;
// Drain's retry rounds must deliver every event exactly once.
TEST(NetE2eTest, RejectBackpressureRetriesToExactlyOnce) {
  constexpr size_t kEvents = 5000;
  IngestOptions ingest_options;
  ingest_options.num_shards = 2;
  ingest_options.queue_capacity = 16;
  ingest_options.max_batch = 8;
  ingest_options.backpressure = BackpressurePolicy::kReject;
  Rig rig(ingest_options, 4);

  ClientOptions client_options = rig.Client();
  client_options.flush_threshold = 4096;  // Burst hard at the small queues.
  client_options.max_drain_retries = 16;
  IngestClient client(client_options);
  ODE_ASSERT_OK(client.Connect());
  for (size_t i = 0; i < kEvents; ++i) {
    ODE_ASSERT_OK(client.Post(rig.oids[i % 4], "add", {Value(1)}));
  }
  ODE_ASSERT_OK(client.Drain());

  // Exactly-once: every add landed exactly once, regardless of how many
  // times kReject bounced it on the way in.
  int64_t total = 0;
  for (const Oid& oid : rig.oids) {
    total += rig.db.PeekAttr(oid, "v").value().AsInt().value();
  }
  EXPECT_EQ(total, static_cast<int64_t>(kEvents));
  runtime::RuntimeMetricsSnapshot snap = rig.rt.Metrics();
  EXPECT_EQ(snap.total.processed, kEvents);
  const IngestClient::Stats& st = client.stats();
  EXPECT_EQ(st.posted, kEvents);
  EXPECT_EQ(st.resent, st.rejected);  // Every bounce was retried.
}

// Post after IngestRuntime::Stop(): the server replies ERR_SHUTTING_DOWN
// and closes; the client surfaces kShutdown.
TEST(NetE2eTest, ShutdownHandshake) {
  Rig rig;
  ClientOptions client_options = rig.Client();
  client_options.auto_reconnect = false;
  IngestClient client(client_options);
  ODE_ASSERT_OK(client.Connect());
  ODE_ASSERT_OK(client.Post(rig.oids[0], "add", {Value(1)}));
  ODE_ASSERT_OK(client.Drain());

  ODE_ASSERT_OK(rig.rt.Stop());
  ODE_ASSERT_OK(client.Post(rig.oids[0], "add", {Value(2)}));
  Status s = client.Drain();
  EXPECT_EQ(s.code(), StatusCode::kShutdown) << s.ToString();
  EXPECT_FALSE(client.connected());
}

// A server that stopped answers a post with ERR_SHUTTING_DOWN and closes.
// Bytes the client sends after that close draw a reset instead of an
// orderly end of stream. A raw server makes the reset certain (SO_LINGER
// 0): the client must still report kShutdown, from the reply it had
// already received, not kUnavailable from the reset.
TEST(NetE2eTest, ShutdownReplyFollowedByResetIsShutdown) {
  Result<Socket> listener = TcpListen("127.0.0.1", 0, 4);
  ODE_ASSERT_OK(listener.status());
  Result<uint16_t> port = LocalPort(listener->fd());
  ODE_ASSERT_OK(port.status());

  std::promise<void> posted;
  std::thread server([&] {
    Result<Socket> conn = Accept(listener->fd(), nullptr);
    if (!conn.ok()) return;
    FrameDecoder decoder;
    Frame frame;
    uint64_t post_seq = 0;
    char chunk[4096];
    while (post_seq == 0) {
      ssize_t n = ::recv(conn->fd(), chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      decoder.Append(chunk, static_cast<size_t>(n));
      while (decoder.Next(&frame) == FrameDecoder::State::kFrame) {
        if (frame.type == FrameType::kPost) post_seq = frame.seq;
      }
    }
    posted.get_future().wait();  // The client's Flush has returned.
    std::string reply;
    AppendErr(&reply, post_seq, WireError::kShuttingDown, "runtime stopped");
    (void)::send(conn->fd(), reply.data(), reply.size(), MSG_NOSIGNAL);
    linger abortive{1, 0};
    ::setsockopt(conn->fd(), SOL_SOCKET, SO_LINGER, &abortive,
                 sizeof(abortive));
    conn->Reset();
  });

  ClientOptions options;
  options.host = "127.0.0.1";
  options.port = *port;
  options.auto_reconnect = false;
  IngestClient client(options);
  ODE_ASSERT_OK(client.Connect());
  ODE_ASSERT_OK(client.Post(Oid{1}, "add", {Value(1)}));
  ODE_ASSERT_OK(client.Flush());
  posted.set_value();
  server.join();

  Status s = client.Drain();
  EXPECT_EQ(s.code(), StatusCode::kShutdown) << s.ToString();
  EXPECT_FALSE(client.connected());
}

// Garbage bytes on a raw socket: the server answers with one
// ERR_MALFORMED frame and closes the connection.
TEST(NetE2eTest, MalformedFrameGetsErrAndClose) {
  Rig rig;
  Result<Socket> sock = TcpConnect("127.0.0.1", rig.server.port());
  ODE_ASSERT_OK(sock.status());
  // A header declaring a payload far beyond kMaxFramePayload.
  const unsigned char garbage[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ASSERT_EQ(::send(sock->fd(), garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));

  FrameDecoder decoder;
  Frame frame;
  bool got_err = false;
  bool closed = false;
  char chunk[4096];
  while (!closed) {
    ssize_t n = ::recv(sock->fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    decoder.Append(chunk, static_cast<size_t>(n));
    while (decoder.Next(&frame) == FrameDecoder::State::kFrame) {
      EXPECT_EQ(frame.type, FrameType::kErr);
      EXPECT_EQ(frame.error, WireError::kMalformed);
      got_err = true;
    }
  }
  EXPECT_TRUE(got_err);
  EXPECT_TRUE(closed);
}

TEST(NetE2eTest, PingAndRemoteMetrics) {
  Rig rig;
  IngestClient client(rig.Client());
  ODE_ASSERT_OK(client.Connect());
  ODE_ASSERT_OK(client.Ping());
  for (int i = 0; i < 10; ++i) {
    ODE_ASSERT_OK(client.Post(rig.oids[0], "add", {Value(1)}));
  }
  ODE_ASSERT_OK(client.Drain());

  Result<RemoteMetrics> metrics = client.Metrics();
  ODE_ASSERT_OK(metrics.status());
  EXPECT_EQ(metrics->total.enqueued, 10u);
  EXPECT_EQ(metrics->total.processed, 10u);
  EXPECT_EQ(metrics->shards.size(), rig.rt.num_shards());
  ASSERT_FALSE(metrics->producers.empty());
  uint64_t accepted = 0;
  for (const auto& p : metrics->producers) accepted += p.accepted;
  EXPECT_EQ(accepted, 10u);
  // The remote snapshot agrees with the in-process one.
  runtime::RuntimeMetricsSnapshot local = rig.rt.Metrics();
  EXPECT_EQ(metrics->total.enqueued, local.total.enqueued);
  EXPECT_EQ(metrics->total.fired, local.total.fired);
}

// Connection churn: each disconnect retires the connection's producer
// into the aggregate "retired[n]" entry, so the producer list (and the
// METRICS_REPLY payload) stays bounded on a long-running daemon while the
// totals are preserved.
TEST(NetE2eTest, DisconnectRetiresProducers) {
  Rig rig;
  constexpr int kChurn = 8;
  for (int i = 0; i < kChurn; ++i) {
    IngestClient client(rig.Client());
    ODE_ASSERT_OK(client.Connect());
    ODE_ASSERT_OK(client.Post(rig.oids[0], "add", {Value(1)}));
    ODE_ASSERT_OK(client.Drain());
    client.Close();
  }
  // Retirement happens when the server's loop observes the disconnect;
  // poll briefly for the list to collapse to the aggregate entry.
  runtime::RuntimeMetricsSnapshot snap;
  for (int spin = 0; spin < 200; ++spin) {
    snap = rig.rt.Metrics();
    if (snap.producers.size() == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(snap.producers.size(), 1u);
  EXPECT_EQ(snap.producers[0].name, "retired[8]");
  EXPECT_EQ(snap.producers[0].posted, static_cast<uint64_t>(kChurn));
  EXPECT_EQ(snap.producers[0].accepted, static_cast<uint64_t>(kChurn));
}

// The server survives a mid-stream disconnect, and a client reconnects to
// a fresh server on the same port and replays its pipeline.
TEST(NetE2eTest, ClientReconnectsAndReplays) {
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, 4);
  IngestRuntime rt(&db, {});
  ODE_ASSERT_OK(rt.Start());
  auto server1 = std::make_unique<IngestServer>(&rt);
  ODE_ASSERT_OK(server1->Start());
  uint16_t port = server1->port();

  ClientOptions client_options;
  client_options.port = port;
  client_options.recv_timeout_ms = 30000;
  client_options.max_reconnect_attempts = 20;
  client_options.reconnect_backoff = std::chrono::milliseconds(50);
  IngestClient client(client_options);
  ODE_ASSERT_OK(client.Connect());
  ODE_ASSERT_OK(client.Post(oids[0], "add", {Value(1)}));
  ODE_ASSERT_OK(client.Drain());

  server1->Stop();
  server1.reset();
  IngestServer server2(&rt, [port] {
    ServerOptions o;
    o.port = port;
    return o;
  }());
  ODE_ASSERT_OK(server2.Start());

  // Posts queue locally; Drain hits the dead socket, reconnects (possibly
  // on a later attempt), and replays the pipeline to server2.
  ODE_ASSERT_OK(client.Post(oids[1], "add", {Value(5)}));
  Status s;
  for (int attempt = 0; attempt < 10; ++attempt) {
    s = client.Drain();
    if (s.ok()) break;
  }
  ODE_ASSERT_OK(s);
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_EQ(db.PeekAttr(oids[1], "v").value().AsInt().value(), 5);
  ODE_ASSERT_OK(rt.Stop());
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/ode-net-e2e-XXXXXX";
    char* got = mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : "";
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::string cmd = "rm -rf '" + path_ + "'";
      (void)!system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Posts `n` add(1)s to `oid` and waits until the runtime has accepted
/// them all, WITHOUT draining — the server's cumulative-ACK cadence
/// (default every 1024) means the client still holds every post unacked,
/// which is exactly the duplicate-delivery hazard on reconnect.
void PostUnacked(IngestClient* client, IngestRuntime* rt, Oid oid, int n,
                 uint64_t expect_enqueued) {
  for (int i = 0; i < n; ++i) {
    ODE_ASSERT_OK(client->Post(oid, "add", {Value(1)}));
  }
  ODE_ASSERT_OK(client->Flush());
  for (int spin = 0; spin < 500; ++spin) {
    if (rt->Metrics().total.enqueued >= expect_enqueued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(rt->Metrics().total.enqueued, expect_enqueued);
  EXPECT_EQ(client->stats().acked, 0u);
}

// A client with a durable identity replays its unacked pipeline across a
// server swap; the server's applied-seq snapshot recognizes every replayed
// seq and ACKs without re-posting — exactly-once with no WAL involved.
TEST(NetE2eTest, IdentityDedupsReplayAcrossServerSwap) {
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, 4);
  IngestRuntime rt(&db, {});
  ODE_ASSERT_OK(rt.Start());
  auto server1 = std::make_unique<IngestServer>(&rt);
  ODE_ASSERT_OK(server1->Start());
  uint16_t port = server1->port();

  ClientOptions client_options;
  client_options.port = port;
  client_options.recv_timeout_ms = 30000;
  client_options.max_reconnect_attempts = 20;
  client_options.reconnect_backoff = std::chrono::milliseconds(50);
  client_options.identity = "e2e-swap-client";
  IngestClient client(client_options);
  ODE_ASSERT_OK(client.Connect());
  constexpr int kFirst = 10;
  PostUnacked(&client, &rt, oids[0], kFirst, kFirst);

  // Swap servers: the applied posts are gone from no one's memory — the
  // runtime keeps the identity's applied set.
  server1->Stop();
  server1.reset();
  IngestServer server2(&rt, [port] {
    ServerOptions o;
    o.port = port;
    return o;
  }());
  ODE_ASSERT_OK(server2.Start());

  ODE_ASSERT_OK(client.Post(oids[0], "add", {Value(1)}));
  Status s;
  for (int attempt = 0; attempt < 10; ++attempt) {
    s = client.Drain();
    if (s.ok()) break;
  }
  ODE_ASSERT_OK(s);
  EXPECT_GE(client.stats().reconnects, 1u);

  // Exactly-once: kFirst + 1 applications, not kFirst*2 + 1.
  EXPECT_EQ(db.PeekAttr(oids[0], "v").value().AsInt().value(), kFirst + 1);
  EXPECT_EQ(server2.posts_deduped(), static_cast<uint64_t>(kFirst));
  ODE_ASSERT_OK(rt.Stop());
}

// The shutdown-path complement to the swap test: a clean Stop() flushes
// each connection's earned ACK watermark, so a client that pumps its
// replies before redialing has an empty replay pipeline — the follow-up
// session posts only new work and the dedup path never fires.
TEST(NetE2eTest, StopFlushedAcksKeepReplayExactlyOnce) {
  Database db;
  std::vector<Oid> oids = SetupParityDb(&db, 4);
  IngestRuntime rt(&db, {});
  ODE_ASSERT_OK(rt.Start());
  auto server1 = std::make_unique<IngestServer>(&rt);
  ODE_ASSERT_OK(server1->Start());
  uint16_t port = server1->port();

  ClientOptions client_options;
  client_options.port = port;
  client_options.recv_timeout_ms = 30000;
  client_options.max_reconnect_attempts = 20;
  client_options.reconnect_backoff = std::chrono::milliseconds(50);
  client_options.identity = "e2e-stop-flush-client";
  IngestClient client(client_options);
  ODE_ASSERT_OK(client.Connect());
  constexpr int kFirst = 10;
  PostUnacked(&client, &rt, oids[0], kFirst, kFirst);

  // Stop() sends the watermark before closing (the data precedes the FIN,
  // so one reply pump is enough); the ACK empties the client's unacked
  // pipeline.
  server1->Stop();
  server1.reset();
  ODE_ASSERT_OK(client.Flush());
  EXPECT_EQ(client.stats().acked, static_cast<uint64_t>(kFirst));

  IngestServer server2(&rt, [port] {
    ServerOptions o;
    o.port = port;
    return o;
  }());
  ODE_ASSERT_OK(server2.Start());

  ODE_ASSERT_OK(client.Post(oids[0], "add", {Value(1)}));
  Status s;
  for (int attempt = 0; attempt < 10; ++attempt) {
    s = client.Drain();
    if (s.ok()) break;
  }
  ODE_ASSERT_OK(s);
  EXPECT_GE(client.stats().reconnects, 1u);

  // Exactly-once with zero replay: only the new post crossed the wire.
  EXPECT_EQ(db.PeekAttr(oids[0], "v").value().AsInt().value(), kFirst + 1);
  EXPECT_EQ(server2.posts_deduped(), 0u);
  ODE_ASSERT_OK(rt.Stop());
}

// The tentpole end-to-end: server AND runtime restart over the same WAL
// directory (crash-recovery), and a reconnecting identified client still
// observes exactly-once — its replayed posts are recognized from the
// recovered applied-seq state and ACKed without re-posting.
TEST(NetE2eTest, ExactlyOnceAcrossServerRestartWithWal) {
  TempDir wal_dir;
  IngestOptions durable;
  durable.num_shards = 2;
  durable.durability.dir = wal_dir.path();
  durable.durability.fsync = wal::FsyncPolicy::kAlways;

  ClientOptions client_options;
  client_options.recv_timeout_ms = 30000;
  client_options.max_reconnect_attempts = 20;
  client_options.reconnect_backoff = std::chrono::milliseconds(50);
  client_options.identity = "e2e-restart-client";

  constexpr int kFirst = 12;
  constexpr int kSecond = 5;
  uint16_t port = 0;

  auto db1 = std::make_unique<Database>();
  std::vector<Oid> oids = SetupParityDb(db1.get(), 4);
  auto rt1 = std::make_unique<IngestRuntime>(db1.get(), durable);
  ODE_ASSERT_OK(rt1->Start());
  auto server1 = std::make_unique<IngestServer>(rt1.get());
  ODE_ASSERT_OK(server1->Start());
  port = server1->port();

  client_options.port = port;
  IngestClient client(client_options);
  ODE_ASSERT_OK(client.Connect());
  PostUnacked(&client, rt1.get(), oids[0], kFirst, kFirst);
  ODE_ASSERT_OK(rt1->Drain());  // Server-side: process what arrived.

  // "Restart": tear down the whole process state except the WAL dir.
  // (Stop() fsyncs; the kill-without-fsync case is wal_crash_test's.)
  server1->Stop();
  server1.reset();
  ODE_ASSERT_OK(rt1->Stop());
  rt1.reset();
  db1.reset();

  Database db2;
  std::vector<Oid> oids2 = SetupParityDb(&db2, 4);
  IngestRuntime rt2(&db2, durable);
  ODE_ASSERT_OK(rt2.Start());  // Recovers snapshot + replays the WAL.
  EXPECT_EQ(rt2.AppliedSeqs(client_options.identity).count(),
            static_cast<uint64_t>(kFirst));
  IngestServer server2(&rt2, [port] {
    ServerOptions o;
    o.port = port;
    return o;
  }());
  ODE_ASSERT_OK(server2.Start());

  // The client never saw an ACK for its first pipeline: on the next
  // Drain it reconnects, HELLOs, and replays all kFirst + kSecond posts.
  for (int i = 0; i < kSecond; ++i) {
    ODE_ASSERT_OK(client.Post(oids2[0], "add", {Value(1)}));
  }
  Status s;
  for (int attempt = 0; attempt < 10; ++attempt) {
    s = client.Drain();
    if (s.ok()) break;
  }
  ODE_ASSERT_OK(s);
  EXPECT_GE(client.stats().reconnects, 1u);

  // Exactly-once across the restart: every one of the kFirst pre-restart
  // posts was applied exactly once (recovered), every post-restart post
  // exactly once, duplicates ACKed away.
  EXPECT_EQ(db2.PeekAttr(oids2[0], "v").value().AsInt().value(),
            kFirst + kSecond);
  EXPECT_EQ(server2.posts_deduped(), static_cast<uint64_t>(kFirst));
  ODE_ASSERT_OK(rt2.Stop());
}

// A POST carrying a value the WAL cannot hold (its text over 65,535
// bytes) is a legal frame; a durable server answers it with
// ERR_INVALID_ARGUMENT, applies nothing for it, and keeps logging every
// other post.
TEST(NetE2eTest, OversizedValueGetsInvalidArgumentFromDurableServer) {
  TempDir wal_dir;
  IngestOptions durable;
  durable.num_shards = 1;
  durable.durability.dir = wal_dir.path();
  durable.durability.fsync = wal::FsyncPolicy::kAlways;
  Rig rig(durable, 1);

  IngestClient client(rig.Client());
  ODE_ASSERT_OK(client.Connect());
  ODE_ASSERT_OK(client.Post(rig.oids[0], "add", {Value(1)}));
  ODE_ASSERT_OK(
      client.Post(rig.oids[0], "add", {Value(std::string(70000, 'x'))}));
  ODE_ASSERT_OK(client.Post(rig.oids[0], "add", {Value(1)}));
  EXPECT_EQ(client.Drain().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.stats().errors, 1u);
  ODE_ASSERT_OK(rig.rt.Drain());
  EXPECT_FALSE(rig.rt.wal_degraded());
  EXPECT_EQ(rig.db.PeekAttr(rig.oids[0], "v").value().AsInt().value(), 2);
  EXPECT_EQ(rig.rt.Metrics().wal.appends, 2u);
  rig.server.Stop();
  ODE_ASSERT_OK(rig.rt.Stop());
}

}  // namespace
}  // namespace net
}  // namespace ode
