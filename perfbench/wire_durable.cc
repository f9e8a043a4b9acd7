// wire_durable: the ode-ingestd configuration. One client connection with a
// durable identity posts `add` frames to an in-process IngestServer over an
// IngestRuntime with the WAL on; one cheap counting trigger per object.
// After the run a fresh runtime recovers the WAL directory. See README.md.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <thread>

#include "analyze/analyzer.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "wal/log_writer.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Nominal saturation throughput on a 4-vCPU host; sizes the phase.
constexpr size_t kSaturationEps = 80000;
/// Recoveries per untraced pass (a traced pass does one); recovery_s is
/// their mean. Recovery replays through both shards, so it is not pinned.
constexpr int kRecoveryRepeats = 9;
constexpr char kIdentity[] = "perfbench";
constexpr char kTrigger[] = "T1(): perpetual every 3 (after add) ==> count";

struct Event {
  uint32_t obj = 0;
  int64_t d = 0;
  int64_t t = 0;
};

/// Deterministic event source; also the closed form of the committed state:
/// v is the sum of an object's `d`s and touches is its add count / 3.
class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed), v_(kObjects, 0), n_(kObjects, 0) {}

  Event Next() {
    Event e;
    e.obj = static_cast<uint32_t>(rng_() % kObjects);
    e.d = 1 + static_cast<int64_t>(rng_() % 100);
    v_[e.obj] += e.d;
    ++n_[e.obj];
    return e;
  }
  int64_t v(size_t obj) const { return v_[obj]; }
  int64_t touches(size_t obj) const { return n_[obj] / 3; }

 private:
  std::mt19937_64 rng_;
  std::vector<int64_t> v_;
  std::vector<int64_t> n_;
};

std::vector<ode::Value> Args(const Event& e) {
  return {ode::Value(e.d), ode::Value(e.t)};
}

ode::Status Add(ode::MethodContext* ctx) {
  SpanScope span(SpanName::kBody, ArgT(*ctx));
  ODE_ASSIGN_OR_RETURN(ode::Value v, ctx->Get("v"));
  ODE_ASSIGN_OR_RETURN(ode::Value d, ctx->Arg("d"));
  ODE_ASSIGN_OR_RETURN(ode::Value next, v.Add(d));
  return ctx->Set("v", next);
}

ode::Status Count(const ode::ActionContext& ctx) {
  const int64_t t = EventT(ctx.event);
  SpanScope span(SpanName::kAction, t);
  RecordFire(t);
  ODE_ASSIGN_OR_RETURN(ode::Value n, ctx.db->PeekAttr(ctx.self, "touches"));
  ODE_ASSIGN_OR_RETURN(ode::Value next, n.Add(ode::Value(1)));
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", next);
}

/// The daemon's `cell` class, with `t` added to `add`.
ode::ClassDef CellClass() {
  ode::ClassDef def("cell");
  def.AddAttr("v", ode::Value(0));
  def.AddAttr("touches", ode::Value(0));
  def.AddMethod(ode::MethodDef{"add", {{"int", "d"}, {"int", "t"}},
                               ode::MethodKind::kUpdate, Add});
  def.AddTrigger(kTrigger);
  return def;
}

ode::Status RegisterSchema(ode::Database* db) {
  ODE_RETURN_IF_ERROR(db->RegisterAction("count", Count));
  return db->RegisterClass(CellClass()).status();
}

ode::Status Populate(ode::Database* db, size_t n, bool activate,
                     std::vector<ode::Oid>* oids) {
  oids->clear();
  oids->reserve(n);
  for (size_t begin = 0; begin < n; begin += 1024) {
    ODE_ASSIGN_OR_RETURN(ode::TxnId txn, db->Begin());
    for (size_t i = begin; i < std::min(n, begin + 1024); ++i) {
      ODE_ASSIGN_OR_RETURN(ode::Oid oid, db->New(txn, "cell"));
      if (activate) ODE_RETURN_IF_ERROR(db->ActivateTrigger(txn, oid, "T1"));
      oids->push_back(oid);
    }
    ODE_RETURN_IF_ERROR(db->Commit(txn));
  }
  return ode::Status::OK();
}

ode::runtime::IngestOptions DurableOptions(const std::string& dir) {
  ode::runtime::IngestOptions options = BaseIngestOptions();
  options.durability.dir = dir;  // Default group commit: fsync every 64.
  return options;
}

/// One set-up system. Members are destroyed bottom-up: client, server,
/// runtime, database.
struct System {
  std::unique_ptr<ode::Database> db;
  std::vector<ode::Oid> oids;
  std::unique_ptr<ode::runtime::IngestRuntime> rt;
  std::unique_ptr<ode::net::IngestServer> server;
  std::unique_ptr<ode::net::IngestClient> client;
  /// Mirrors the client's frame sequence numbers: HELLO took 1, then every
  /// post and every drain takes the next.
  uint64_t last_seq = 1;
  ode::wal::SeqSet posted;  ///< Sequence numbers of every post.
  double register_ms = 0;
  double populate_s = 0;
  int64_t rss_per_object = 0;
};

ode::Status SetUp(System* sys, const std::string& dir) {
  RemoveDir(dir);
  sys->db = std::make_unique<ode::Database>();
  const int64_t t0 = NowNs();
  ODE_RETURN_IF_ERROR(RegisterSchema(sys->db.get()));
  const int64_t t1 = NowNs();
  const int64_t rss0 = RssBytes();
  ODE_RETURN_IF_ERROR(Populate(sys->db.get(), kObjects, true, &sys->oids));
  const int64_t t2 = NowNs();
  sys->register_ms = (t1 - t0) / 1e6;
  sys->populate_s = (t2 - t1) / 1e9;
  sys->rss_per_object = (RssBytes() - rss0) / static_cast<int64_t>(kObjects);
  sys->rt = std::make_unique<ode::runtime::IngestRuntime>(sys->db.get(),
                                                          DurableOptions(dir));
  {
    SpanScope span(SpanName::kStart, 0);
    ODE_RETURN_IF_ERROR(sys->rt->Start());
  }
  ode::net::ServerOptions server_options;  // 1 IO worker, ack_every 1024.
  sys->server = std::make_unique<ode::net::IngestServer>(sys->rt.get(),
                                                         server_options);
  ODE_RETURN_IF_ERROR(sys->server->Start());
  ode::net::ClientOptions client_options;
  client_options.port = sys->server->port();
  client_options.identity = kIdentity;
  sys->client = std::make_unique<ode::net::IngestClient>(client_options);
  sys->last_seq = 1;
  sys->posted = ode::wal::SeqSet();
  return sys->client->Connect();
}

/// Stops everything cleanly (the runtime fsyncs its logs) and frees the
/// database; the WAL directory stays.
void Stop(System* sys) {
  sys->client.reset();
  if (sys->server) sys->server->Stop();
  if (sys->rt) (void)sys->rt->Stop();
  sys->server.reset();
  sys->rt.reset();
  sys->db.reset();
  TrimHeap();
}

struct GenRun {
  std::vector<Event> log;
  std::vector<Segment> segments;
  std::vector<double> checkpoint_ms;
  ode::runtime::RuntimeMetricsSnapshot after_warmup;
  ode::runtime::RuntimeMetricsSnapshot after_saturation;
  /// Open-loop phase: due time to the client reading a cumulative ACK
  /// that covers the post. Posts still unacked when the phase ends are
  /// covered by the final drain and carry no sample.
  Samples ack;
  std::vector<std::string> errors;
};

/// The generator thread, which owns the client connection: warm-up,
/// saturation (pipelined; kSegments equal segments, each with a checkpoint
/// halfway and closed by a Drain; one more checkpoint after the last, so
/// the log a restart finds holds exactly the open-loop phase), then the
/// open-loop phase (one flush per post, no barrier).
void Generate(uint64_t seed, const PhaseSizes& sizes, int64_t open_rate,
              System* sys, OpenLoop* book, GenRun* out) {
  Generator gen(seed);
  ode::net::IngestClient* client = sys->client.get();
  out->log.reserve(sizes.total());
  int64_t last_t = 0;
  auto post = [&](const Event& e) {
    ode::Status s;
    {
      SpanScope span(SpanName::kGenPost, e.t);
      s = client->Post(sys->oids[e.obj], "add", Args(e));
    }
    if (!s.ok()) out->errors.push_back("post: " + s.ToString());
    sys->posted.Add(++sys->last_seq);
    out->log.push_back(e);
  };
  auto post_now = [&] {
    Event e = gen.Next();
    e.t = std::max(NowNs(), last_t + 1);  // Unique, like a due time.
    last_t = e.t;
    post(e);
  };
  auto drain = [&] {
    SpanScope span(SpanName::kDrain, 0);
    ode::Status s = client->Drain();
    ++sys->last_seq;
    if (!s.ok()) out->errors.push_back("drain: " + s.ToString());
  };

  for (size_t i = 0; i < sizes.warmup; ++i) post_now();
  drain();
  out->after_warmup = sys->rt->Metrics();

  auto checkpoint = [&] {
    SpanScope span(SpanName::kCheckpoint, 0);
    const int64_t c0 = NowNs();
    ode::Status s = sys->rt->Checkpoint();
    out->checkpoint_ms.push_back((NowNs() - c0) / 1e6);
    if (!s.ok()) out->errors.push_back("checkpoint: " + s.ToString());
  };
  for (int k = 0; k < kSegments; ++k) {
    Segment seg;
    seg.events = sizes.saturation / kSegments;
    const double cpu0 = CpuSeconds();
    seg.start_ns = NowNs();
    for (size_t i = 0; i < seg.events; ++i) {
      post_now();
      if (i + 1 == seg.events / 2) checkpoint();
    }
    const int64_t d0 = NowNs();
    drain();
    seg.end_ns = NowNs();
    seg.barrier_ms = (seg.end_ns - d0) / 1e6;
    seg.cpu_s = CpuSeconds() - cpu0;
    out->segments.push_back(seg);
  }
  checkpoint();
  out->after_saturation = sys->rt->Metrics();

  const uint64_t acked0 = client->stats().acked;
  size_t acked = 0;  // Open-loop posts covered by an ACK so far.
  book->period_ns = 1000000000 / open_rate;
  book->start_ns = NowNs() + 1000000;
  book->fire_ns.assign(sizes.open, 0);
  book->late_us.assign(sizes.open, 0);
  PublishOpenLoop(book);
  for (size_t i = 0; i < sizes.open; ++i) {
    Event e = gen.Next();
    e.t = book->Due(i);
    WaitUntil(e.t);
    book->late_us[i] = (NowNs() - e.t) / 1000.0;
    post(e);
    ode::Status s = client->Flush();
    if (!s.ok()) out->errors.push_back("flush: " + s.ToString());
    const uint64_t covered = client->stats().acked - acked0;
    if (covered > acked) {
      const int64_t now = NowNs();
      for (; acked < covered && acked <= i; ++acked) {
        out->ack.emplace_back(book->Due(acked) - book->start_ns,
                              (now - book->Due(acked)) / 1000.0);
      }
    }
  }
}

/// Compares every object's committed state with the closed form.
void CheckClosedForm(ode::Database* db, const std::vector<ode::Oid>& oids,
                     const Generator& model, size_t stride, const char* which,
                     Report* report, double* touches_sum) {
  for (size_t i = 0; i < oids.size(); ++i) {
    const size_t k = i * stride;  // oids[i] holds object k.
    ode::Result<ode::Value> v = db->PeekAttr(oids[i], "v");
    ode::Result<ode::Value> t = db->PeekAttr(oids[i], "touches");
    ode::Result<int64_t> vi = v.ok() ? v->AsInt() : ode::Result<int64_t>(v.status());
    ode::Result<int64_t> ti = t.ok() ? t->AsInt() : ode::Result<int64_t>(t.status());
    if (!vi.ok() || !ti.ok() || *vi != model.v(k) || *ti != model.touches(k)) {
      report->Mismatch(std::string(which) + " object " + std::to_string(k) +
                       " v/touches differ from the closed form " +
                       std::to_string(model.v(k)) + "/" +
                       std::to_string(model.touches(k)));
    }
    if (touches_sum != nullptr && ti.ok()) *touches_sum += static_cast<double>(*ti);
  }
}

/// Phase 7: a fresh database with the same objects, and a fresh runtime
/// that recovers `dir`. The recovered state must equal the closed form and
/// the recovered applied-seq set the posted one.
ode::Status Recover(const std::string& dir, const std::vector<ode::Oid>& oids,
                    const Generator& model, const ode::wal::SeqSet& posted,
                    Report* report, double* seconds, uint64_t* replayed) {
  ode::Database db;
  ODE_RETURN_IF_ERROR(RegisterSchema(&db));
  std::vector<ode::Oid> fresh;
  ODE_RETURN_IF_ERROR(Populate(&db, kObjects, true, &fresh));
  report->Expect(fresh == oids, "recovery database allocated other oids");
  ode::runtime::IngestRuntime rt(&db, DurableOptions(dir));
  const int64_t t0 = NowNs();
  {
    SpanScope span(SpanName::kStart, 0);
    ODE_RETURN_IF_ERROR(rt.Start());
  }
  ODE_RETURN_IF_ERROR(rt.Drain());
  *seconds = (NowNs() - t0) / 1e9;
  *replayed = rt.recovery().replayed_events;
  CheckClosedForm(&db, oids, model, 1, "recovered", report, nullptr);
  report->Expect(rt.AppliedSeqs(kIdentity) == posted,
                 "recovered applied seqs " +
                     rt.AppliedSeqs(kIdentity).ToString() + " != posted " +
                     posted.ToString());
  return rt.Stop();
}

/// Traced pass only: a single-threaded replay of the events of every 8th
/// object on a fresh database, one Database::Call per transaction, timed
/// per call.
struct Replay {
  uint64_t calls = 0;
  uint64_t aborted = 0;
  double seconds = 0;
  std::vector<double> call_us;
  std::vector<double> begin_commit_us;
  std::vector<std::string> errors;
};

ode::Status RunReplay(const std::vector<Event>& log, bool activate,
                      const Generator& model, Report* report, Replay* out) {
  constexpr size_t kStride = 8;
  ode::Database db;
  ODE_RETURN_IF_ERROR(RegisterSchema(&db));
  std::vector<ode::Oid> oids;
  ODE_RETURN_IF_ERROR(Populate(&db, kObjects / kStride, activate, &oids));
  const int64_t t0 = NowNs();
  for (const Event& e : log) {
    if (e.obj % kStride != 0) continue;
    ++out->calls;
    const int64_t b0 = NowNs();
    ode::Result<ode::TxnId> txn = ode::Status::OK();
    {
      SpanScope span(SpanName::kRefBegin, e.t);
      txn = db.Begin();
    }
    if (!txn.ok()) return txn.status();
    const int64_t b1 = NowNs();
    ode::Result<ode::Value> r = ode::Status::OK();
    {
      SpanScope span(SpanName::kRefCall, e.t);
      r = db.Call(*txn, oids[e.obj / kStride], "add", Args(e));
    }
    const int64_t c0 = NowNs();
    if (r.ok()) {
      SpanScope span(SpanName::kRefCommit, e.t);
      ode::Status s = db.Commit(*txn);
      if (!s.ok()) out->errors.push_back("commit: " + s.ToString());
    } else if (r.status().code() == ode::StatusCode::kAborted) {
      ++out->aborted;
    } else {
      out->errors.push_back("call: " + r.status().ToString());
      (void)db.Abort(*txn);
    }
    const int64_t c1 = NowNs();
    out->call_us.push_back((c0 - b1) / 1000.0);
    out->begin_commit_us.push_back(((b1 - b0) + (c1 - c0)) / 1000.0);
    if (out->calls % 4096 == 0) db.txns().GarbageCollect();
  }
  out->seconds = (NowNs() - t0) / 1e9;
  if (activate) {
    CheckClosedForm(&db, oids, model, kStride, "reference", report, nullptr);
  }
  return ode::Status::OK();
}

/// Traced pass only: the wire codec and the log writer timed on the run's
/// own frames and records.
struct Micro {
  double bytes_per_event = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double append_ns = 0;
  double sync_p50_us = 0;
};

ode::Status RunMicro(const std::vector<Event>& log,
                     const std::vector<ode::Oid>& oids, const std::string& dir,
                     Report* report, Micro* out) {
  std::string frames;
  frames.reserve(log.size() * 64);
  int64_t t0 = NowNs();
  {
    SpanScope span(SpanName::kEncode, 0);
    uint64_t seq = 1;
    for (const Event& e : log) {
      ODE_RETURN_IF_ERROR(
          ode::net::AppendPost(&frames, ++seq, oids[e.obj], "add", Args(e)));
    }
  }
  out->encode_ns = static_cast<double>(NowNs() - t0) / log.size();
  out->bytes_per_event = static_cast<double>(frames.size()) / log.size();
  size_t decoded = 0;
  t0 = NowNs();
  {
    SpanScope span(SpanName::kDecode, 0);
    ode::net::FrameDecoder decoder;
    ode::net::Frame frame;
    constexpr size_t kChunk = 64 * 1024;  // The client's read size.
    for (size_t off = 0; off < frames.size(); off += kChunk) {
      decoder.Append(frames.data() + off, std::min(kChunk, frames.size() - off));
      while (decoder.Next(&frame) == ode::net::FrameDecoder::State::kFrame) {
        ++decoded;
      }
    }
  }
  out->decode_ns = static_cast<double>(NowNs() - t0) / log.size();
  report->Expect(decoded == log.size(), "codec round trip lost frames");
  frames = std::string();

  // Appends under the runtime's own policy (group commit, fsync every 64).
  ODE_RETURN_IF_ERROR(MakeDirs(dir));
  {
    ode::wal::LogWriter writer;
    ODE_RETURN_IF_ERROR(writer.Open(ode::wal::ShardLogPath(dir, 0), 0,
                                    ode::wal::WalOptions{dir}));
    std::vector<ode::wal::WalRecord> records(log.size());
    for (size_t i = 0; i < log.size(); ++i) {
      records[i].oid = oids[log[i].obj];
      records[i].method = "add";
      records[i].args = Args(log[i]);
      records[i].producer_id = kIdentity;
      records[i].producer_seq = i + 2;
    }
    t0 = NowNs();
    {
      SpanScope span(SpanName::kLogAppend, 0);
      for (ode::wal::WalRecord& record : records) {
        ODE_RETURN_IF_ERROR(writer.Append(&record));
      }
    }
    out->append_ns = static_cast<double>(NowNs() - t0) / log.size();
    ODE_RETURN_IF_ERROR(writer.Sync());
  }
  RemoveDir(dir);

  // One fsync per 64-record group, written through (no flusher thread).
  ODE_RETURN_IF_ERROR(MakeDirs(dir));
  {
    ode::wal::WalOptions options{dir};
    options.fsync = ode::wal::FsyncPolicy::kNever;
    ode::wal::LogWriter writer;
    ODE_RETURN_IF_ERROR(writer.Open(ode::wal::ShardLogPath(dir, 0), 0, options));
    std::vector<double> sync_us;
    for (size_t group = 0; group < 200; ++group) {
      for (size_t i = 0; i < 64; ++i) {
        const Event& e = log[(group * 64 + i) % log.size()];
        ode::wal::WalRecord record;
        record.oid = oids[e.obj];
        record.method = "add";
        record.args = Args(e);
        ODE_RETURN_IF_ERROR(writer.Append(&record));
      }
      SpanScope span(SpanName::kLogSync, 0);
      const int64_t s0 = NowNs();
      ODE_RETURN_IF_ERROR(writer.Sync());
      sync_us.push_back((NowNs() - s0) / 1000.0);
    }
    out->sync_p50_us = Percentile(sync_us, 50);
  }
  RemoveDir(dir);
  return ode::Status::OK();
}

}  // namespace

ode::Status RunWireDurable(const RunOptions& opts, bool traced, Report* report,
                           EndToEnd* e2e) {
  const PhaseSizes sizes = SizePhases(opts, kSaturationEps);
  PrintRunHeader(opts, sizes,
                 "io_threads=1 ack_every=1024 wal=on fsync=every-n:64 "
                 "checkpoints=one per segment+one after the last drain "
                 "client=pipelined/flush-per-post");
  SetTracing(traced);
  const std::string dir = opts.out_dir + "/wal";

  const int repeats = traced ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::vector<double> populate_s;
  double first_rss_per_object = 0;
  System sys;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) Stop(&sys);
    const int64_t t0 = NowNs();
    ODE_RETURN_IF_ERROR(SetUp(&sys, dir));
    setup_s.push_back((NowNs() - t0) / 1e9);
    populate_s.push_back(sys.populate_s);
    if (i == 0) first_rss_per_object = static_cast<double>(sys.rss_per_object);
  }
  e2e->setup_s = Median(setup_s);
  const ode::DatabaseStats& stats = sys.db->stats();
  const uint64_t posted0 = stats.events_posted.load();
  const uint64_t masks0 = stats.mask_evaluations.load();
  const int64_t rss0 = RssBytes();

  OpenLoop book;
  GenRun gen;
  std::thread generator(Generate, opts.seed, std::cref(sizes), opts.open_rate,
                        &sys, &book, &gen);
  generator.join();
  {
    SpanScope span(SpanName::kDrain, 0);
    ode::Status s = sys.client->Drain();
    ++sys.last_seq;
    if (!s.ok()) gen.errors.push_back("final drain: " + s.ToString());
  }
  PublishOpenLoop(nullptr);
  const ode::runtime::RuntimeMetricsSnapshot end = sys.rt->Metrics();
  const std::vector<Span> run_spans = CollectSpans();

  report->Attempted(gen.log.size());
  for (const std::string& error : gen.errors) report->FailedOp(error);
  SummarizeSegments(gen.segments, e2e);
  e2e->fire = FireLatency(book, {});
  e2e->ack = Summarize(gen.ack);
  e2e->gen_late_p99_us = Percentile(book.late_us, 99);

  // Phase 6: exact output check against the closed form, plus the
  // exactly-once record of the client's identity.
  Generator model(opts.seed);
  for (size_t i = 0; i < gen.log.size(); ++i) model.Next();
  double touches = 0;
  CheckClosedForm(sys.db.get(), sys.oids, model, 1, "live", report, &touches);
  const ode::net::IngestClient::Stats& cs = sys.client->stats();
  report->Expect(cs.acked == gen.log.size() && cs.rejected == 0 &&
                     cs.errors == 0 && cs.reconnects == 0,
                 "client acked " + std::to_string(cs.acked) + " of " +
                     std::to_string(gen.log.size()) + " posts");
  report->Expect(sys.rt->AppliedSeqs(kIdentity) == sys.posted,
                 "applied seqs " + sys.rt->AppliedSeqs(kIdentity).ToString() +
                     " != posted " + sys.posted.ToString());
  report->Expect(end.total.processed == gen.log.size() && end.total.dead_lettered == 0,
                 "runtime processed " + std::to_string(end.total.processed) +
                     " of " + std::to_string(gen.log.size()));
  report->Expect(end.sequencer.published == 0, "sequencer published events");
  report->Expect(!end.wal.degraded, "wal degraded");
  const uint64_t frames_handled = sys.server->frames_handled();
  const uint64_t frames_deferred = sys.server->frames_deferred();
  const uint64_t posts_deduped = sys.server->posts_deduped();
  const double posted_per_event =
      static_cast<double>(stats.events_posted.load() - posted0) / gen.log.size();
  const double masks_per_event =
      static_cast<double>(stats.mask_evaluations.load() - masks0) / gen.log.size();
  const double rss_per_event =
      static_cast<double>(RssBytes() - rss0) / gen.log.size();
  const double register_ms = sys.register_ms;
  const size_t dfa_states =
      sys.db->classes().Find("cell")->triggers[0].ActiveDfa().num_states();
  const std::vector<ode::Oid> oids = sys.oids;
  const ode::wal::SeqSet posted = sys.posted;

  // Phase 7: clean stop, then a fresh runtime recovers the directory. The
  // first database is gone before the second exists.
  Stop(&sys);
  uint64_t log_bytes = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    log_bytes += FileBytes(ode::wal::ShardLogPath(dir, shard));
  }
  // Each restart recovers a pristine copy of the stopped directory
  // (recovery itself rewrites it: it checkpoints and truncates the logs).
  const std::string pristine = dir + ".stopped";
  RemoveDir(pristine);
  ODE_RETURN_IF_ERROR(CopyDir(dir, pristine));
  uint64_t replayed = 0;
  std::vector<double> recovery_s;
  const int restarts = traced ? 1 : kRecoveryRepeats;
  for (int i = 0; i < restarts; ++i) {
    if (i > 0) {
      RemoveDir(dir);
      ODE_RETURN_IF_ERROR(CopyDir(pristine, dir));
    }
    double seconds = 0;
    ODE_RETURN_IF_ERROR(
        Recover(dir, oids, model, posted, report, &seconds, &replayed));
    recovery_s.push_back(seconds);
    TrimHeap();
  }
  SummarizeRestarts(recovery_s, e2e);
  RemoveDir(pristine);
  RemoveDir(dir);
  const std::vector<Span> recovery_spans = CollectSpans();
  std::printf(
      "check: %zu events compared with the closed form on all %zu objects, "
      "live and recovered; applied seqs %s; replayed %llu\n",
      gen.log.size(), kObjects, posted.ToString().c_str(),
      static_cast<unsigned long long>(replayed));

  if (!traced) return ode::Status::OK();

  // --- Per-layer metrics (traced pass) ---
  const int64_t sat_start = gen.segments.front().start_ns;
  const int64_t sat_end = gen.segments.back().end_ns;
  const RunSpanStats spans = AnalyzeRunSpans(run_spans, sat_start, sat_end, book);
  Replay ref;
  ODE_RETURN_IF_ERROR(RunReplay(gen.log, true, model, report, &ref));
  const std::vector<Span> ref_spans = CollectSpans();
  Replay bare;
  ODE_RETURN_IF_ERROR(RunReplay(gen.log, false, model, report, &bare));
  const std::vector<Span> bare_spans = CollectSpans();
  for (const std::string& error : ref.errors) report->Mismatch("reference " + error);
  Micro micro;
  ODE_RETURN_IF_ERROR(RunMicro(gen.log, oids, opts.out_dir + "/scratch-wal", report, &micro));
  const std::vector<Span> micro_spans = CollectSpans();
  const int64_t a0 = NowNs();
  ode::AnalysisReport analysis = ode::AnalyzeSpecSource(kTrigger);
  const double analyze_ms = (NowNs() - a0) / 1e6;
  report->Expect(!analysis.has_errors(), "trigger analysis reports errors");

  const double sat_s = (sat_end - sat_start) / 1e9;
  std::vector<double> drain_ms;
  for (const Segment& seg : gen.segments) drain_ms.push_back(seg.barrier_ms);
  // The runtime's Post is called inside the server's IO worker here.
  report->Metric("runtime.post_blocked_share", 0);
  std::printf("unmeasured: runtime.post_blocked_share (the server's IO worker "
              "calls IngestRuntime::TryPost; no public hook times it from "
              "outside; net.client_blocked_share covers the producer side)\n");
  report->Metric("runtime.queue_wait_p50_us", Percentile(spans.queue_wait_us, 50));
  report->Metric("runtime.queue_wait_p99_us", Percentile(spans.queue_wait_us, 99));
  AddRuntimeCounters(gen.after_warmup, gen.after_saturation, end, report);
  report->Metric("runtime.drain_ms", Median(drain_ms));
  report->Metric("ode.body_runs_per_event",
                 static_cast<double>(spans.body_runs) / gen.log.size());
  report->Metric("ode.call_p50_us", Percentile(ref.call_us, 50));
  report->Metric("ode.postings_per_call", posted_per_event);
  report->Metric("ode.rss_b_per_event", rss_per_event);
  report->Metric("ode.rss_b_per_object", first_rss_per_object);
  report->Metric("ode.populate_s", Median(populate_s));
  report->Metric("trigger.detect_p50_us", Percentile(spans.detect_us, 50));
  report->Metric("trigger.detect_p99_us", Percentile(spans.detect_us, 99));
  report->Metric("trigger.fires_per_event", touches / gen.log.size());
  report->Metric("trigger.action_p50_us", Percentile(spans.action_us, 50));
  report->Metric("trigger.ns_per_event_per_trigger",
                 (ref.seconds - bare.seconds) * 1e9 / ref.calls);
  report->Metric("mask.evals_per_event", masks_per_event);
  report->Metric("txn.begin_commit_p50_us", Percentile(ref.begin_commit_us, 50));
  report->Metric("txn.rule_aborts", static_cast<double>(ref.aborted));
  report->Metric("compile.register_ms", register_ms);
  report->Metric("compile.dfa_states", static_cast<double>(dfa_states));
  report->Metric("analyze.rulebase_ms", analyze_ms);
  report->Metric("net.client_post_p50_us", Percentile(spans.post_us, 50));
  report->Metric("net.client_blocked_share", spans.post_busy_s / sat_s);
  report->Metric("net.wire_p50_us", Percentile(spans.queue_wait_us, 50));
  report->Metric("net.bytes_per_event", micro.bytes_per_event);
  report->Metric("net.encode_ns", micro.encode_ns);
  report->Metric("net.decode_ns", micro.decode_ns);
  report->Metric("net.frames_handled", static_cast<double>(frames_handled));
  report->Metric("net.frames_deferred", static_cast<double>(frames_deferred));
  report->Metric("net.posts_deduped", static_cast<double>(posts_deduped));
  report->Metric("wal.fsyncs", static_cast<double>(end.wal.fsyncs));
  report->Metric("wal.records_per_fsync",
                 end.wal.fsyncs == 0 ? 0 : static_cast<double>(end.wal.appends) / end.wal.fsyncs);
  report->Metric("wal.bytes_per_event",
                 end.wal.appends == 0 ? 0 : static_cast<double>(end.wal.bytes_written) / end.wal.appends);
  report->Metric("wal.append_ns", micro.append_ns);
  report->Metric("wal.checkpoint_p50_ms", Percentile(gen.checkpoint_ms, 50));
  report->Metric("wal.checkpoint_max_ms", Percentile(gen.checkpoint_ms, 100));
  report->Metric("wal.replayed_events", static_cast<double>(replayed));
  report->Metric("wal.log_bytes_at_restart", static_cast<double>(log_bytes));
  report->Metric("wal.sync_p50_us", micro.sync_p50_us);
  report->Metric("bench.gen_late_p99_us", e2e->gen_late_p99_us);

  PrintSelfTimes("run", run_spans);
  PrintSelfTimes("recovery", recovery_spans);
  PrintSelfTimes("ref", ref_spans);
  PrintSelfTimes("timing", bare_spans);
  PrintSelfTimes("micro", micro_spans);
  const std::string path = opts.out_dir + "/spans-wire_durable.bin";
  ODE_RETURN_IF_ERROR(WriteSpans(path, 0, run_spans, true));
  ODE_RETURN_IF_ERROR(WriteSpans(path, 3, recovery_spans, false));
  ODE_RETURN_IF_ERROR(WriteSpans(path, 1, ref_spans, false));
  ODE_RETURN_IF_ERROR(WriteSpans(path, 2, bare_spans, false));
  ODE_RETURN_IF_ERROR(WriteSpans(path, 4, micro_spans, false));
  std::printf("spans: %zu written to %s\n",
              run_spans.size() + recovery_spans.size() + ref_spans.size() +
                  bare_spans.size() + micro_spans.size(),
              path.c_str());
  return ode::Status::OK();
}

}  // namespace perfbench
