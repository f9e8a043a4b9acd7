// rules_mem: an embedded rules engine. One generator thread posts account
// operations straight into IngestRuntime::Post; eight perpetual
// committed-history triggers per object do the detection work. See
// README.md for why this workload exists and what it should move.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <thread>

#include "analyze/analyzer.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Large enough that no ordinary withdrawal (at most 200) can ever
/// overdraw an account, so only the planned ones trip the guard.
constexpr int64_t kInitialBalance = 1000000000;
/// Nominal saturation throughput on a 4-vCPU host; sizes the phase.
constexpr size_t kSaturationEps = 50000;
/// Snapshot restores per untraced pass (a traced pass does one);
/// recovery_s is their mean. One restore is a single thread parsing for
/// about a second, and on a shared host a thread that stays on a contended
/// vCPU runs up to 1.5x slower for seconds at a time. So restore i parses
/// pinned to the i-th CPU (modulo their number): a run samples every CPU.
constexpr int kRestartRepeats = 16;
/// Untraced passes check every 8th object against the reference replay
/// (objects are independent, so a subset check is exact for its members);
/// traced passes replay and check every object.
constexpr size_t kCheckStride = 8;

/// The rulebase: 8 perpetual triggers, all registered with the
/// committed-history view. None uses `;`/`sequence` adjacency or a
/// transaction event, so what fires does not depend on where the runtime
/// cuts its batch transactions. Every trigger but the guard counts its
/// firings in the attribute that carries its name.
struct Rule {
  const char* name;
  const char* text;
};
constexpr Rule kRules[] = {
    {"Guard", "Guard(): perpetual before withdraw(q, t) && q > bal ==> tabort"},
    {"BigWithdraw",
     "BigWithdraw(): perpetual after withdraw(q, t) && q > 120 ==> bump"},
    {"SmallDeposit",
     "SmallDeposit(): perpetual after deposit(q, t) && !(q > 20) ==> bump"},
    {"FifthDeposit", "FifthDeposit(): perpetual every 5 (after deposit) ==> bump"},
    {"FourthWithdraw",
     "FourthWithdraw(): perpetual every 4 (after withdraw) ==> bump"},
    {"WithdrawAfterAudit",
     "WithdrawAfterAudit(): perpetual "
     "fa(after audit, after withdraw, after deposit) ==> bump"},
    {"BigDepositAfterWithdraw",
     "BigDepositAfterWithdraw(): perpetual "
     "fa(after withdraw, (after deposit(q, t) && q > 150), after audit) "
     "==> bump"},
    {"AuditAfterBigDeposit",
     "AuditAfterBigDeposit(): perpetual "
     "prior((after deposit(q, t) && q > 100), after audit) ==> bump"},
};
constexpr size_t kRuleCount = sizeof(kRules) / sizeof(kRules[0]);
/// bal plus one counter per counting rule.
constexpr size_t kAttrCount = kRuleCount;

const char* AttrName(size_t i) { return i == 0 ? "bal" : kRules[i].name; }

enum Method : uint8_t { kDeposit, kWithdraw, kAudit };
const char* const kMethodNames[] = {"deposit", "withdraw", "audit"};

struct Event {
  uint32_t obj = 0;
  Method method = kDeposit;
  bool reject = false;  ///< A withdrawal the guard must refuse.
  int64_t q = 0;
  int64_t t = 0;
};

/// Deterministic event source: the same seed gives the same object,
/// method and amount sequence. It tracks each account's balance, which is
/// how it plants the 0.1% of withdrawals the guard rejects, and which is
/// also the closed form of the committed `bal`.
class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed), bal_(kObjects, kInitialBalance) {}

  Event Next() {
    Event e;
    e.obj = static_cast<uint32_t>(rng_() % kObjects);
    const uint64_t r = rng_() % 1000;
    const int64_t amount = 1 + static_cast<int64_t>(rng_() % 200);
    int64_t& bal = bal_[e.obj];
    if (r < 450) {  // 45% deposits
      e.method = kDeposit;
      e.q = amount;
      bal += amount;
    } else if (r < 899) {  // 44.9% ordinary withdrawals
      e.method = kWithdraw;
      e.q = amount;
      bal -= amount;
    } else if (r < 900) {  // 0.1% withdrawals over the balance
      e.method = kWithdraw;
      e.reject = true;
      e.q = bal + amount;
    } else {  // 10% audits
      e.method = kAudit;
    }
    return e;
  }

  int64_t balance(size_t obj) const { return bal_[obj]; }

 private:
  std::mt19937_64 rng_;
  std::vector<int64_t> bal_;
};

std::vector<ode::Value> Args(const Event& e) {
  if (e.method == kAudit) return {ode::Value(e.t)};
  return {ode::Value(e.q), ode::Value(e.t)};
}

ode::Status AddToBalance(ode::MethodContext* ctx, bool subtract) {
  SpanScope span(SpanName::kBody, ArgT(*ctx));
  ODE_ASSIGN_OR_RETURN(ode::Value bal, ctx->Get("bal"));
  ODE_ASSIGN_OR_RETURN(ode::Value q, ctx->Arg("q"));
  ODE_ASSIGN_OR_RETURN(ode::Value next, subtract ? bal.Sub(q) : bal.Add(q));
  return ctx->Set("bal", next);
}

ode::Status Audit(ode::MethodContext* ctx) {
  SpanScope span(SpanName::kBody, ArgT(*ctx));
  ODE_ASSIGN_OR_RETURN(ode::Value bal, ctx->Get("bal"));
  ctx->SetResult(bal);
  return ode::Status::OK();
}

/// The counting action shared by the seven counting rules.
ode::Status Bump(const ode::ActionContext& ctx) {
  const int64_t t = EventT(ctx.event);
  SpanScope span(SpanName::kAction, t);
  RecordFire(t);
  ODE_ASSIGN_OR_RETURN(ode::Value n, ctx.db->PeekAttr(ctx.self, ctx.trigger_name));
  ODE_ASSIGN_OR_RETURN(ode::Value next, n.Add(ode::Value(1)));
  return ctx.db->SetAttr(ctx.txn, ctx.self, ctx.trigger_name, next);
}

ode::ClassDef AccountClass() {
  ode::ClassDef def("account");
  def.AddAttr("bal", ode::Value(kInitialBalance));
  for (size_t i = 1; i < kRuleCount; ++i) def.AddAttr(kRules[i].name, ode::Value(0));
  def.AddMethod(ode::MethodDef{
      "deposit", {{"int", "q"}, {"int", "t"}}, ode::MethodKind::kUpdate,
      [](ode::MethodContext* ctx) { return AddToBalance(ctx, false); }});
  def.AddMethod(ode::MethodDef{
      "withdraw", {{"int", "q"}, {"int", "t"}}, ode::MethodKind::kUpdate,
      [](ode::MethodContext* ctx) { return AddToBalance(ctx, true); }});
  def.AddMethod(ode::MethodDef{"audit", {{"int", "t"}},
                               ode::MethodKind::kReadOnly, Audit});
  for (const Rule& rule : kRules) {
    def.AddTrigger(rule.text, ode::HistoryView::kCommitted);
  }
  return def;
}

ode::DatabaseOptions RulesDatabaseOptions() {
  ode::DatabaseOptions options;
  options.analyze_triggers = ode::DatabaseOptions::TriggerAnalysisMode::kReject;
  return options;
}

ode::Status RegisterSchema(ode::Database* db) {
  // Declared pure: Bump only sets an attribute, it posts no event.
  ODE_RETURN_IF_ERROR(db->RegisterAction("bump", Bump, ode::ActionSignature{}));
  return db->RegisterClass(AccountClass()).status();
}

/// Creates `n` accounts in 1024-object transactions, arming every rule on
/// each when `activate` is set.
ode::Status Populate(ode::Database* db, size_t n, bool activate,
                     std::vector<ode::Oid>* oids) {
  oids->clear();
  oids->reserve(n);
  for (size_t begin = 0; begin < n; begin += 1024) {
    ODE_ASSIGN_OR_RETURN(ode::TxnId txn, db->Begin());
    for (size_t i = begin; i < std::min(n, begin + 1024); ++i) {
      ODE_ASSIGN_OR_RETURN(ode::Oid oid, db->New(txn, "account"));
      if (activate) {
        for (const Rule& rule : kRules) {
          ODE_RETURN_IF_ERROR(db->ActivateTrigger(txn, oid, rule.name));
        }
      }
      oids->push_back(oid);
    }
    ODE_RETURN_IF_ERROR(db->Commit(txn));
  }
  return ode::Status::OK();
}

/// One set-up system: database, objects, and a started runtime.
struct System {
  std::unique_ptr<ode::Database> db;
  std::vector<ode::Oid> oids;
  DeadLetters dead;  // Outlives rt, whose hook writes into it.
  std::unique_ptr<ode::runtime::IngestRuntime> rt;
  double register_ms = 0;
  double populate_s = 0;
  int64_t rss_per_object = 0;
};

ode::Status SetUp(System* sys) {
  sys->db = std::make_unique<ode::Database>(RulesDatabaseOptions());
  const int64_t t0 = NowNs();
  ODE_RETURN_IF_ERROR(RegisterSchema(sys->db.get()));
  const int64_t t1 = NowNs();
  const int64_t rss0 = RssBytes();
  ODE_RETURN_IF_ERROR(Populate(sys->db.get(), kObjects, true, &sys->oids));
  const int64_t t2 = NowNs();
  sys->register_ms = (t1 - t0) / 1e6;
  sys->populate_s = (t2 - t1) / 1e9;
  sys->rss_per_object = (RssBytes() - rss0) / static_cast<int64_t>(kObjects);
  ode::runtime::IngestOptions options = BaseIngestOptions();
  DeadLetters* dead = &sys->dead;
  options.dead_letter = [dead](const ode::runtime::IngestEvent& event,
                               const ode::Status&) {
    const ode::Result<int64_t> t = event.args.back().AsInt();
    std::lock_guard<std::mutex> lock(dead->mu);
    dead->ts.push_back(t.ok() ? *t : 0);
  };
  sys->rt = std::make_unique<ode::runtime::IngestRuntime>(sys->db.get(), options);
  SpanScope span(SpanName::kStart, 0);
  return sys->rt->Start();
}

void TearDown(System* sys) {
  if (sys->rt) (void)sys->rt->Stop();
  sys->rt.reset();
  sys->db.reset();
  TrimHeap();
}

/// What the generator thread did, phase by phase.
struct GenRun {
  std::vector<Event> log;  ///< Every posted event, in post order.
  std::vector<Segment> segments;
  ode::runtime::RuntimeMetricsSnapshot after_warmup;
  ode::runtime::RuntimeMetricsSnapshot after_saturation;
  std::vector<std::string> errors;
};

/// The generator thread: warm-up, saturation (kSegments equal segments,
/// each closed by a Drain), then the open-loop phase at the fixed rate (no
/// Drain, no waiting).
void Generate(uint64_t seed, const PhaseSizes& sizes, int64_t open_rate,
              System* sys, OpenLoop* book, GenRun* out) {
  Generator gen(seed);
  out->log.reserve(sizes.total());
  int64_t last_t = 0;
  auto post = [&](Event e) {
    ode::Status s;
    {
      SpanScope span(SpanName::kGenPost, e.t);
      s = sys->rt->Post(sys->oids[e.obj], kMethodNames[e.method], Args(e));
    }
    if (!s.ok()) out->errors.push_back(s.ToString());
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
    ode::Status s = sys->rt->Drain();
    if (!s.ok()) out->errors.push_back("drain: " + s.ToString());
  };

  for (size_t i = 0; i < sizes.warmup; ++i) post_now();
  drain();
  out->after_warmup = sys->rt->Metrics();

  for (int k = 0; k < kSegments; ++k) {
    Segment seg;
    seg.events = sizes.saturation / kSegments;
    const double cpu0 = CpuSeconds();
    seg.start_ns = NowNs();
    for (size_t i = 0; i < seg.events; ++i) post_now();
    const int64_t d0 = NowNs();
    drain();
    seg.end_ns = NowNs();
    seg.barrier_ms = (seg.end_ns - d0) / 1e6;
    seg.cpu_s = CpuSeconds() - cpu0;
    out->segments.push_back(seg);
  }
  out->after_saturation = sys->rt->Metrics();

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
  }
}

/// Phase 7. rules_mem keeps no log, so its restart path is the database
/// snapshot taken after the final drain: restore it into a fresh database
/// and start a fresh runtime over it. The restored attributes must equal
/// the live ones.
ode::Status Restart(int index, const std::string& snapshot,
                    const std::vector<ode::Oid>& oids,
                    const std::vector<std::vector<int64_t>>& live,
                    Report* report, double* seconds) {
  ode::Database db(RulesDatabaseOptions());
  ODE_RETURN_IF_ERROR(RegisterSchema(&db));
  ode::runtime::IngestRuntime rt(&db, BaseIngestOptions());
  int64_t t0 = 0;
  {
    CpuPin pin(index);
    t0 = NowNs();
    ODE_RETURN_IF_ERROR(db.LoadSnapshotText(snapshot));
  }
  {
    SpanScope span(SpanName::kStart, 0);
    ODE_RETURN_IF_ERROR(rt.Start());
  }
  ODE_RETURN_IF_ERROR(rt.Drain());
  *seconds = (NowNs() - t0) / 1e9;
  for (size_t k = 0; k < oids.size(); ++k) {
    for (size_t a = 0; a < kAttrCount; ++a) {
      ode::Result<ode::Value> v = db.PeekAttr(oids[k], AttrName(a));
      ode::Result<int64_t> n = v.ok() ? v->AsInt() : ode::Result<int64_t>(v.status());
      if (!n.ok() || *n != live[k][a]) {
        report->Mismatch("restored object " + std::to_string(k) + " " +
                         AttrName(a) + " differs from the live database");
      }
    }
  }
  return rt.Stop();
}

/// A single-threaded replay of the events of every `stride`-th object on a
/// fresh database: one Database::Call per transaction.
struct Replay {
  std::vector<std::vector<int64_t>> attrs;  ///< [object / stride][attr]
  std::vector<int64_t> aborted_ts;          ///< Calls a rule aborted.
  std::vector<std::string> errors;
  uint64_t calls = 0;
  double seconds = 0;  ///< The replay loop alone.
  std::vector<double> call_us;
  std::vector<double> begin_commit_us;
};

ode::Status RunReplay(const std::vector<Event>& log, size_t stride,
                      bool activate, Replay* out) {
  ode::Database db(RulesDatabaseOptions());
  ODE_RETURN_IF_ERROR(RegisterSchema(&db));
  std::vector<ode::Oid> oids;
  ODE_RETURN_IF_ERROR(Populate(&db, kObjects / stride, activate, &oids));
  const bool timed = Tracing();
  const int64_t t0 = NowNs();
  for (const Event& e : log) {
    if (e.obj % stride != 0) continue;
    const ode::Oid oid = oids[e.obj / stride];
    ++out->calls;
    const int64_t b0 = timed ? NowNs() : 0;
    ode::Result<ode::TxnId> txn = ode::Status::OK();
    {
      SpanScope span(SpanName::kRefBegin, e.t);
      txn = db.Begin();
    }
    if (!txn.ok()) return txn.status();
    const int64_t b1 = timed ? NowNs() : 0;
    ode::Result<ode::Value> r = ode::Status::OK();
    {
      SpanScope span(SpanName::kRefCall, e.t);
      r = db.Call(*txn, oid, kMethodNames[e.method], Args(e));
    }
    const int64_t c0 = timed ? NowNs() : 0;
    if (r.ok()) {
      SpanScope span(SpanName::kRefCommit, e.t);
      ode::Status s = db.Commit(*txn);
      if (!s.ok()) out->errors.push_back("commit: " + s.ToString());
    } else if (r.status().code() == ode::StatusCode::kAborted) {
      out->aborted_ts.push_back(e.t);  // Call already rolled back.
    } else {
      out->errors.push_back("call: " + r.status().ToString());
      (void)db.Abort(*txn);
    }
    if (timed) {
      const int64_t c1 = NowNs();
      out->call_us.push_back((c0 - b1) / 1000.0);
      out->begin_commit_us.push_back(((b1 - b0) + (c1 - c0)) / 1000.0);
    }
    // Finished transaction records are only reclaimed on request; the
    // runtime does it at each Drain.
    if (out->calls % 4096 == 0) db.txns().GarbageCollect();
  }
  out->seconds = (NowNs() - t0) / 1e9;
  out->attrs.resize(oids.size());
  for (size_t k = 0; k < oids.size(); ++k) {
    for (size_t a = 0; a < kAttrCount; ++a) {
      ode::Result<ode::Value> v = db.PeekAttr(oids[k], AttrName(a));
      if (!v.ok()) return v.status();
      ODE_ASSIGN_OR_RETURN(int64_t n, v->AsInt());
      out->attrs[k].push_back(n);
    }
  }
  return ode::Status::OK();
}

std::string RulebaseSource() {
  std::string source;
  for (const Rule& rule : kRules) {
    source += rule.text;
    source += "\n\n";
  }
  return source;
}

}  // namespace

ode::Status RunRulesMem(const RunOptions& opts, bool traced, Report* report,
                        EndToEnd* e2e) {
  const PhaseSizes sizes = SizePhases(opts, kSaturationEps);
  PrintRunHeader(opts, sizes,
                 "triggers_per_object=8 view=committed analyze=reject "
                 "mix=45%deposit/45%withdraw(0.1%rejected)/10%audit");
  SetTracing(traced);

  // Setup, repeated; setup_s is the median. Only the last system runs.
  const int repeats = traced ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  System sys;
  double first_rss_per_object = 0;
  std::vector<double> populate_s;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) TearDown(&sys);
    const int64_t t0 = NowNs();
    ODE_RETURN_IF_ERROR(SetUp(&sys));
    setup_s.push_back((NowNs() - t0) / 1e9);
    populate_s.push_back(sys.populate_s);
    if (i == 0) first_rss_per_object = static_cast<double>(sys.rss_per_object);
  }
  e2e->setup_s = Median(setup_s);
  const ode::DatabaseStats& stats = sys.db->stats();
  const uint64_t posted0 = stats.events_posted.load();
  const uint64_t masks0 = stats.mask_evaluations.load();
  const int64_t rss0 = RssBytes();

  // Phases 2-4 on the generator thread; phase 5 here.
  OpenLoop book;
  GenRun gen;
  std::thread generator(Generate, opts.seed, std::cref(sizes), opts.open_rate,
                        &sys, &book, &gen);
  generator.join();
  {
    SpanScope span(SpanName::kDrain, 0);
    ODE_RETURN_IF_ERROR(sys.rt->Drain());
  }
  PublishOpenLoop(nullptr);
  const ode::runtime::RuntimeMetricsSnapshot end = sys.rt->Metrics();
  const std::vector<Span> run_spans = CollectSpans();

  report->Attempted(gen.log.size());
  for (const std::string& error : gen.errors) report->FailedOp("post: " + error);
  SummarizeSegments(gen.segments, e2e);
  std::vector<int64_t> dead_ts;
  {
    std::lock_guard<std::mutex> lock(sys.dead.mu);
    dead_ts = sys.dead.ts;
  }
  e2e->fire = FireLatency(book, dead_ts);
  e2e->gen_late_p99_us = Percentile(book.late_us, 99);

  // Phase 6: exact output check. Guard rejections are correct outcomes when
  // they are exactly the planned ones; anything else dead-lettered failed.
  std::vector<int64_t> planned;
  for (const Event& e : gen.log) {
    if (e.reject) planned.push_back(e.t);
  }
  std::sort(planned.begin(), planned.end());
  std::sort(dead_ts.begin(), dead_ts.end());
  for (int64_t t : dead_ts) {
    if (!std::binary_search(planned.begin(), planned.end(), t)) {
      report->FailedOp("unplanned dead letter t=" + std::to_string(t));
    }
  }
  report->Expect(dead_ts.size() == planned.size(),
                 "dead letters " + std::to_string(dead_ts.size()) +
                     " != planned rejections " + std::to_string(planned.size()));
  report->Expect(end.total.processed == gen.log.size(),
                 "runtime processed " + std::to_string(end.total.processed) +
                     " != posted " + std::to_string(gen.log.size()));
  report->Expect(end.sequencer.published == 0, "sequencer published events");

  Generator model(opts.seed);
  for (size_t i = 0; i < gen.log.size(); ++i) model.Next();
  std::vector<std::vector<int64_t>> live(kObjects);
  double fires = 0;
  for (size_t k = 0; k < kObjects; ++k) {
    for (size_t a = 0; a < kAttrCount; ++a) {
      ode::Result<ode::Value> v = sys.db->PeekAttr(sys.oids[k], AttrName(a));
      ode::Result<int64_t> n = v.ok() ? v->AsInt() : ode::Result<int64_t>(v.status());
      live[k].push_back(n.ok() ? *n : -1);
      if (a > 0) fires += static_cast<double>(live[k].back());
    }
    if (live[k][0] != model.balance(k)) {
      report->Mismatch("object " + std::to_string(k) + " bal " +
                       std::to_string(live[k][0]) + " != closed form " +
                       std::to_string(model.balance(k)));
    }
  }
  const double posted_per_event =
      static_cast<double>(stats.events_posted.load() - posted0) / gen.log.size();
  const double masks_per_event =
      static_cast<double>(stats.mask_evaluations.load() - masks0) / gen.log.size();
  const double rss_per_event =
      static_cast<double>(RssBytes() - rss0) / gen.log.size();
  const double register_ms = sys.register_ms;
  size_t dfa_states = 0;
  for (const ode::TriggerProgram& program :
       sys.db->classes().Find("account")->triggers) {
    dfa_states += program.ActiveDfa().num_states();
  }
  ode::Result<std::string> snapshot = sys.db->SaveSnapshotText();
  if (!snapshot.ok()) return snapshot.status();
  const std::vector<ode::Oid> oids = sys.oids;
  TearDown(&sys);  // Only one database is alive at a time.
  std::vector<double> restart_s(traced ? 1 : kRestartRepeats);
  for (size_t i = 0; i < restart_s.size(); ++i) {
    ODE_RETURN_IF_ERROR(
        Restart(static_cast<int>(i), *snapshot, oids, live, report, &restart_s[i]));
    TrimHeap();
  }
  SummarizeRestarts(restart_s, e2e);
  snapshot = std::string();
  const std::vector<Span> restart_spans = CollectSpans();

  const size_t stride = traced ? 1 : kCheckStride;
  Replay ref;
  ODE_RETURN_IF_ERROR(RunReplay(gen.log, stride, true, &ref));
  const std::vector<Span> ref_spans = CollectSpans();
  for (const std::string& error : ref.errors) report->Mismatch("reference " + error);
  std::vector<int64_t> planned_subset;
  for (const Event& e : gen.log) {
    if (e.reject && e.obj % stride == 0) planned_subset.push_back(e.t);
  }
  report->Expect(ref.aborted_ts == planned_subset,
                 "reference aborts " + std::to_string(ref.aborted_ts.size()) +
                     " != planned rejections " +
                     std::to_string(planned_subset.size()));
  for (size_t k = 0; k < ref.attrs.size(); ++k) {
    if (live[k * stride] != ref.attrs[k]) {
      std::string what = "object " + std::to_string(k * stride) + ":";
      for (size_t a = 0; a < kAttrCount; ++a) {
        what += " " + std::string(AttrName(a)) + "=" +
                std::to_string(live[k * stride][a]) + "/" +
                std::to_string(ref.attrs[k][a]);
      }
      report->Mismatch(what + " (runtime/reference)");
    }
  }
  std::printf(
      "check: %zu events, %zu planned rejections, %zu dead letters, %zu "
      "objects compared with the reference (stride %zu), all %zu objects "
      "compared after the restart\n",
      gen.log.size(), planned.size(), dead_ts.size(), ref.attrs.size(), stride,
      oids.size());

  if (!traced) return ode::Status::OK();

  // --- Per-layer metrics (traced pass) ---
  const int64_t sat_start = gen.segments.front().start_ns;
  const int64_t sat_end = gen.segments.back().end_ns;
  const RunSpanStats spans = AnalyzeRunSpans(run_spans, sat_start, sat_end, book);
  // The rulebase's cost per event: one subset of events replayed with the
  // rules active and without, on equal-sized databases.
  Replay active;
  ODE_RETURN_IF_ERROR(RunReplay(gen.log, kCheckStride, true, &active));
  Replay bare;
  ODE_RETURN_IF_ERROR(RunReplay(gen.log, kCheckStride, false, &bare));
  const std::vector<Span> bare_spans = CollectSpans();
  std::string source = RulebaseSource();
  const int64_t a0 = NowNs();
  ode::AnalysisReport analysis = ode::AnalyzeSpecSource(source);
  const double analyze_ms = (NowNs() - a0) / 1e6;
  report->Expect(!analysis.has_errors(), "rulebase analysis reports errors");

  const double sat_s = (sat_end - sat_start) / 1e9;
  std::vector<double> drain_ms;
  for (const Segment& seg : gen.segments) drain_ms.push_back(seg.barrier_ms);
  report->Metric("runtime.post_blocked_share", spans.post_busy_s / sat_s);
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
  report->Metric("trigger.fires_per_event", fires / gen.log.size());
  report->Metric("trigger.action_p50_us", Percentile(spans.action_us, 50));
  report->Metric("trigger.ns_per_event_per_trigger",
                 (active.seconds - bare.seconds) * 1e9 / bare.calls / kRuleCount);
  report->Metric("mask.evals_per_event", masks_per_event);
  report->Metric("txn.begin_commit_p50_us", Percentile(ref.begin_commit_us, 50));
  report->Metric("txn.rule_aborts", static_cast<double>(ref.aborted_ts.size()));
  report->Expect(ref.aborted_ts.size() == end.total.dead_lettered,
                 "txn.rule_aborts != runtime.dead_lettered");
  report->Metric("compile.register_ms", register_ms);
  report->Metric("compile.dfa_states", static_cast<double>(dfa_states));
  report->Metric("analyze.rulebase_ms", analyze_ms);
  // The network and the log are bypassed: nothing crosses them.
  for (const char* name :
       {"net.client_post_p50_us", "net.client_blocked_share", "net.wire_p50_us",
        "net.bytes_per_event", "net.encode_ns", "net.decode_ns",
        "net.frames_handled", "net.frames_deferred", "net.posts_deduped"}) {
    report->Metric(name, 0);
  }
  report->Expect(!end.wal.enabled && end.wal.appends == 0 && end.wal.fsyncs == 0,
                 "wal used on rules_mem");
  for (const char* name :
       {"wal.fsyncs", "wal.records_per_fsync", "wal.bytes_per_event",
        "wal.append_ns", "wal.checkpoint_p50_ms", "wal.checkpoint_max_ms",
        "wal.replayed_events", "wal.log_bytes_at_restart", "wal.sync_p50_us"}) {
    report->Metric(name, 0);
  }
  report->Metric("bench.gen_late_p99_us", e2e->gen_late_p99_us);
  std::printf("bypassed: net.* and wal.* are 0 (rules_mem posts in-process "
              "with the WAL off)\n");

  PrintSelfTimes("run", run_spans);
  PrintSelfTimes("restart", restart_spans);
  PrintSelfTimes("ref", ref_spans);
  PrintSelfTimes("timing", bare_spans);
  const std::string path = opts.out_dir + "/spans-rules_mem.bin";
  ODE_RETURN_IF_ERROR(WriteSpans(path, 0, run_spans, true));
  ODE_RETURN_IF_ERROR(WriteSpans(path, 1, ref_spans, false));
  ODE_RETURN_IF_ERROR(WriteSpans(path, 2, bare_spans, false));
  ODE_RETURN_IF_ERROR(WriteSpans(path, 3, restart_spans, false));
  std::printf("spans: %zu written to %s\n",
              run_spans.size() + ref_spans.size() + bare_spans.size() +
                  restart_spans.size(),
              path.c_str());
  return ode::Status::OK();
}

}  // namespace perfbench
