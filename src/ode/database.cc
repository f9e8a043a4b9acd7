#include "ode/database.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "analyze/analyzer.h"
#include "common/strutil.h"
#include "seq/seq_event.h"
#include "seq/sequencer.h"
#include "trigger/trigger_engine.h"

namespace ode {

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      engine_(std::make_unique<TriggerEngine>(this)) {}

Database::~Database() = default;

// --- Schema ------------------------------------------------------------

Result<ClassId> Database::RegisterClass(ClassDef def) {
  std::string name = def.name();

  std::optional<ClassTriggerSet> trigger_set;
  if (options_.analyze_triggers != DatabaseOptions::TriggerAnalysisMode::kOff) {
    AnalyzeOptions aopts;
    aopts.compile = options_.compile;
    AnalysisReport report = AnalyzeClassDef(def, std::move(aopts));
    std::vector<Diagnostic> diags = report.AllDiagnostics();
    std::string first_error;
    for (const Diagnostic& d : diags) {
      if (first_error.empty() && d.severity == Severity::kError) {
        first_error = d.ToString();
      }
      analysis_diagnostics_.push_back(std::move(d));
    }
    if (!first_error.empty() &&
        options_.analyze_triggers ==
            DatabaseOptions::TriggerAnalysisMode::kReject) {
      return Status::InvalidArgument(
          StrFormat("class '%s' rejected by trigger analysis: %s",
                    name.c_str(), first_error.c_str()));
    }
    // Cross-class sweep: this class's triggers against every previously
    // analyzed class that declares the referenced method events with the
    // same names and arities (A004/A005/A007 with class-qualified names).
    trigger_set = CollectClassTriggerSet(def);
    for (const ClassTriggerSet& prior : analyzed_trigger_sets_) {
      for (Diagnostic& d : CompareTriggerSetsAcrossClasses(
               prior, *trigger_set, options_.compile)) {
        analysis_diagnostics_.push_back(std::move(d));
      }
    }
    // Cascade/termination sweep (analyze/cascade.h) across the whole
    // rulebase including the class being registered. Opt-in: it runs only
    // once some action has declared an effect signature (RegisterAction
    // with an ActionSignature), since without signatures every edge would
    // be an assumed opaque edge. Under kReject a T001-error rulebase
    // (statically diverging cascade) fails the registration; T004 validates
    // the acyclic cascade depth against max_posting_depth.
    if (actions_.has_declared_signatures()) {
      std::vector<const ClassTriggerSet*> sets;
      sets.reserve(analyzed_trigger_sets_.size() + 1);
      for (const ClassTriggerSet& prior : analyzed_trigger_sets_) {
        sets.push_back(&prior);
      }
      sets.push_back(&*trigger_set);
      EffectMap effects = actions_.SignatureMap();
      CascadeOptions copts;
      copts.compile = options_.compile;
      copts.effects = &effects;
      copts.runtime_depth_limit = options_.max_posting_depth;
      CascadeResult cascade = AnalyzeCascadeOverClassSets(sets, copts);
      std::string cascade_error;
      for (Diagnostic& d : cascade.diagnostics) {
        if (cascade_error.empty() && d.severity == Severity::kError) {
          cascade_error = d.ToString();
        }
        analysis_diagnostics_.push_back(std::move(d));
      }
      if (!cascade_error.empty() &&
          options_.analyze_triggers ==
              DatabaseOptions::TriggerAnalysisMode::kReject) {
        return Status::InvalidArgument(
            StrFormat("class '%s' rejected by cascade analysis: %s",
                      name.c_str(), cascade_error.c_str()));
      }
    }
  }

  Result<ClassId> id = classes_.Register(std::move(def), options_.compile);
  if (!id.ok()) return id;
  if (trigger_set) analyzed_trigger_sets_.push_back(std::move(*trigger_set));

  // §3 database-scope events: announce the schema modification to the
  // schema object (from a system transaction, like other global events).
  if (!schema_oid_.IsNull() && name != "__schema") {
    Status posted = RunSystemTxn([&](Transaction* sys) -> Status {
      // The ordinary invocation path posts the full §3.1 event set around
      // the (body-less) classRegistered method.
      return Call(sys->id(), schema_oid_, "classRegistered",
                  {Value(name)})
          .status();
    });
    if (!posted.ok()) return posted;
  }
  return id;
}

Status Database::AddSchemaTrigger(std::string dsl_text) {
  if (!schema_oid_.IsNull()) {
    return Status::FailedPrecondition(
        "schema triggers must be declared before EnableSchemaEvents");
  }
  pending_schema_triggers_.push_back(std::move(dsl_text));
  return Status::OK();
}

Status Database::EnableSchemaEvents() {
  if (!schema_oid_.IsNull()) return Status::OK();  // Idempotent.
  ClassDef def("__schema");
  def.AddAttr("classes_registered", Value(0));
  def.AddMethod(MethodDef{
      "classRegistered", {{"string", "name"}}, MethodKind::kUpdate, nullptr});
  for (std::string& dsl : pending_schema_triggers_) {
    def.AddTrigger(std::move(dsl), HistoryView::kFull,
                   /*auto_activate=*/true);
  }
  pending_schema_triggers_.clear();
  ODE_RETURN_IF_ERROR(classes_.Register(std::move(def), options_.compile)
                          .status());
  return RunSystemTxn([&](Transaction* sys) -> Status {
    const RegisteredClass* cls = classes_.Find("__schema");
    Object* stored = nullptr;
    {
      std::unique_lock<std::shared_mutex> lock(objects_mu_);
      Oid oid{next_oid_++};
      Object obj(oid, cls->id);
      for (const AttrDecl& attr : cls->def.attrs()) {
        obj.InitAttr(attr.name, attr.default_value);
      }
      auto [it, inserted] = objects_.emplace(oid, std::move(obj));
      schema_oid_ = oid;
      stored = &it->second;
    }
    for (size_t i = 0; i < cls->triggers.size(); ++i) {
      if (!cls->auto_activate[i]) continue;
      ODE_RETURN_IF_ERROR(ActivateTriggerInternal(sys, stored, *cls,
                                                  static_cast<int>(i), {}));
    }
    return Status::OK();
  });
}

Status Database::RegisterAction(std::string name, TriggerAction action) {
  return actions_.Register(std::move(name), std::move(action));
}

Status Database::RegisterAction(std::string name, TriggerAction action,
                                ActionSignature signature) {
  return actions_.Register(std::move(name), std::move(action),
                           std::move(signature));
}

Status Database::RegisterHostFunction(std::string name, HostFn fn) {
  auto [it, inserted] = host_fns_.emplace(std::move(name), std::move(fn));
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("host function '%s' already registered",
                  it->first.c_str()));
  }
  return Status::OK();
}

Result<Value> Database::CallHostFunction(std::string_view name,
                                         const std::vector<Value>& args,
                                         const HostContext& ctx) const {
  auto it = host_fns_.find(name);
  if (it == host_fns_.end()) {
    return Status::NotFound(StrFormat("unknown host function '%s'",
                                      std::string(name).c_str()));
  }
  return it->second(args, ctx);
}

// --- Internal helpers -----------------------------------------------------

Result<Object*> Database::GetObject(Oid oid) {
  std::shared_lock<std::shared_mutex> lock(objects_mu_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound(StrFormat(
        "no object @%llu", static_cast<unsigned long long>(oid.id)));
  }
  return &it->second;
}

bool Database::Exists(Oid oid) const {
  std::shared_lock<std::shared_mutex> lock(objects_mu_);
  return objects_.count(oid) > 0;
}

void Database::RecordHistory(const PostedEvent& event) {
  if (!options_.record_histories) return;
  EventHistory* history = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(aux_mu_);
    auto it = histories_.find(event.object);
    if (it != histories_.end()) history = &it->second;
  }
  if (history == nullptr) {
    std::unique_lock<std::shared_mutex> lock(aux_mu_);
    history = &histories_[event.object];
  }
  history->Append(event);
}

void Database::ReleaseAlphabetTimers(Oid oid, const Alphabet& alphabet) {
  for (const BasicEvent& te : alphabet.TimeEvents()) {
    (void)clock_.RemoveTimer(oid, te);  // Best effort.
  }
}

void Database::AcquireAlphabetTimers(Oid oid, const Alphabet& alphabet) {
  for (const BasicEvent& te : alphabet.TimeEvents()) {
    (void)clock_.AddTimer(oid, te);
  }
}

void Database::ReleaseTriggerTimers(Oid oid, const TriggerProgram& program) {
  ReleaseAlphabetTimers(oid, program.event.alphabet);
}

void Database::AcquireTriggerTimers(Oid oid, const TriggerProgram& program) {
  AcquireAlphabetTimers(oid, program.event.alphabet);
}

Status Database::TouchObject(Transaction* txn, Oid oid, LockMode mode,
                             Object** obj) {
  ODE_RETURN_IF_ERROR(locks_.Acquire(txn->id(), oid, mode));
  // Until the lock was held another transaction could delete the object
  // (or delete it and abort, which restores a copy), so a pointer the
  // caller resolved before is dropped; the next posting resolves it.
  Object* resolved = nullptr;
  if (obj == nullptr) obj = &resolved;
  *obj = nullptr;
  if (txn->RecordAccess(oid) && !txn->is_system()) {
    // "The 'after tbegin' event is posted to an object only immediately
    // before the object is first accessed by the transaction" (§3.1).
    PostedEvent tbegin =
        MakePosted(BasicEventKind::kTbegin, EventQualifier::kAfter, txn->id());
    Result<int> posted = PostTo(txn, oid, obj, tbegin);
    if (!posted.ok()) return posted.status();
  }
  return Status::OK();
}

Result<int> Database::PostTo(Transaction* txn, Oid oid, Object** obj,
                             PostedEvent& event) {
  if (*obj == nullptr) {
    Result<Object*> resolved = GetObject(oid);
    if (!resolved.ok()) return resolved.status();
    *obj = *resolved;
  }
  const RegisteredClass* cls = classes_.FindById((*obj)->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  Result<int> fired = engine_->Post(txn, *obj, *cls, event);
  if (!fired.ok() || *fired > 0) *obj = nullptr;
  return fired;
}

Status Database::RunSystemTxn(const std::function<Status(Transaction*)>& fn) {
  Transaction* sys = txns_.Begin(/*is_system=*/true);
  stats_.system_txns.fetch_add(1, std::memory_order_relaxed);
  // Once a transaction leaves the active state it is eligible for
  // TxnManager::GarbageCollect, so no member may be touched after
  // set_state — copy what the epilogue needs first.
  TxnId sys_id = sys->id();
  Status s = fn(sys);
  if (s.ok()) {
    sys->ReleaseForCommit();
    sys->set_state(TxnState::kCommitted);
    locks_.Release(sys_id);
    return Status::OK();
  }
  // Roll the system transaction back. A trigger action aborting a *system*
  // transaction affects only that transaction; the user-level operation
  // that spawned it has already completed (§5).
  std::vector<UndoEntry> log = sys->TakeUndoLog();
  sys->set_state(TxnState::kAborted);
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    (void)ApplyUndo(*it);
  }
  locks_.Release(sys_id);
  if (s.code() == StatusCode::kAborted) return Status::OK();
  return s;
}

// --- Transactions ----------------------------------------------------------

Result<TxnId> Database::Begin() { return txns_.Begin(/*is_system=*/false)->id(); }

Status Database::AddCommitDependency(TxnId txn_id, TxnId dep) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  if (txn_id == dep) {
    return Status::InvalidArgument("transaction cannot depend on itself");
  }
  txn->AddCommitDependency(dep);
  return Status::OK();
}

Status Database::Commit(TxnId txn_id, CommitOutcome* outcome) {
  if (outcome != nullptr) *outcome = CommitOutcome::kNotCommitted;
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  return CommitInternal(txn, outcome);
}

bool Database::AcquireEpilogueLock(TxnId sys, Oid oid) {
  // Conflicting holders under multi-shard ingestion are worker
  // transactions, which finish in well under the ~50ms bound: spin with a
  // small sleep. A hold-out past the bound is a cooperative caller keeping
  // a transaction open across this commit (the legacy single-threaded
  // model, where posting unlocked is safe) — don't hang or fail on it.
  constexpr int kMaxAttempts = 1000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Status s = locks_.Acquire(sys, oid, LockMode::kExclusive);
    if (s.ok()) return true;
    if (s.code() != StatusCode::kWouldBlock) return false;  // kDeadlock.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return false;
}

Status Database::CommitInternal(Transaction* txn, CommitOutcome* outcome) {
  if (outcome != nullptr) *outcome = CommitOutcome::kNotCommitted;
  // Commit dependencies (§7): wait for dependees; abort if any aborted.
  for (TxnId dep : txn->commit_deps()) {
    const Transaction* t = txns_.Get(dep);
    // GarbageCollect keeps a depended-on record, so a missing one was
    // collected before the dependency was declared: treated as committed.
    if (t == nullptr) continue;
    if (t->state() == TxnState::kAborted) {
      (void)AbortInternal(txn);
      return Status::Aborted(StrFormat(
          "commit dependency on aborted transaction %llu",
          static_cast<unsigned long long>(dep)));
    }
    if (t->state() == TxnState::kActive) {
      return Status::WouldBlock(StrFormat(
          "commit dependency on still-active transaction %llu",
          static_cast<unsigned long long>(dep)));
    }
  }

  // `before tcomplete` fixpoint (§6): keep posting until no trigger fires.
  for (int round = 0;; ++round) {
    if (round >= options_.max_tcomplete_rounds) {
      (void)AbortInternal(txn);
      return Status::ResourceExhausted(
          "before-tcomplete trigger cascade did not quiesce");
    }
    stats_.tcomplete_rounds.fetch_add(1, std::memory_order_relaxed);
    int fired = 0;
    for (size_t i = 0; i < txn->accessed().size(); ++i) {
      Oid oid = txn->accessed()[i];
      Result<Object*> obj = GetObject(oid);
      if (!obj.ok()) continue;
      PostedEvent e = MakePosted(BasicEventKind::kTcomplete,
                                 EventQualifier::kBefore, txn->id());
      Result<int> f = PostTo(txn, oid, &*obj, e);
      if (!f.ok()) {
        if (f.status().code() == StatusCode::kAborted) {
          (void)AbortInternal(txn);
        }
        return f.status();
      }
      fired += *f;
    }
    if (fired == 0) break;
  }

  // Take everything the epilogue needs before set_state: a non-active
  // transaction is eligible for TxnManager::GarbageCollect. The undo log
  // goes now, not at the next GarbageCollect: a commit never rolls back.
  std::vector<Oid> accessed = txn->ReleaseForCommit();
  TxnId committed_id = txn->id();
  txn->set_state(TxnState::kCommitted);
  txns_.CountCommit();
  locks_.Release(committed_id);
  if (outcome != nullptr) *outcome = CommitOutcome::kCommitted;

  // `after tcommit` events are posted by a system transaction (§5); any
  // actions they fire execute as part of that transaction. The system
  // transaction re-acquires each object's lock before posting to it —
  // releasing the user locks above may have handed an accessed object to
  // another shard's worker, and posting advances its trigger slots.
  Status epilogue = RunSystemTxn([&](Transaction* sys) -> Status {
    for (Oid oid : accessed) {
      // Look the object up only once its lock is held: the worker holding
      // it meanwhile may delete it.
      const bool locked = AcquireEpilogueLock(sys->id(), oid);
      Result<Object*> obj = GetObject(oid);
      Result<int> f = 0;
      if (obj.ok()) {
        PostedEvent e = MakePosted(BasicEventKind::kTcommit,
                                   EventQualifier::kAfter, committed_id);
        f = PostTo(sys, oid, &*obj, e);
      }
      // Release per object so concurrent epilogues never hold two locks
      // (no lock-order cycles between them); actions keep their own locks
      // until the system transaction finishes.
      if (locked) locks_.Release(sys->id(), oid);
      if (!f.ok()) return f.status();
    }
    return Status::OK();
  });
  if (!epilogue.ok() && outcome != nullptr) {
    *outcome = CommitOutcome::kEpilogueFailed;
  }
  return epilogue;
}

Status Database::Abort(TxnId txn_id) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  return AbortInternal(txn);
}

Status Database::AbortInternal(Transaction* txn) {
  if (txn->state() != TxnState::kActive || txn->aborting()) {
    return Status::OK();
  }
  txn->set_aborting(true);

  // `before tabort` (§3.1) — posted while the transaction's effects are
  // still visible and the transaction can still execute actions (their
  // writes are undo-logged below and rolled back with everything else).
  // Action failures during abort are swallowed: the abort must complete.
  for (size_t i = 0; i < txn->accessed().size(); ++i) {
    Oid oid = txn->accessed()[i];
    Result<Object*> obj = GetObject(oid);
    if (!obj.ok()) continue;
    PostedEvent e = MakePosted(BasicEventKind::kTabort,
                               EventQualifier::kBefore, txn->id());
    (void)PostTo(txn, oid, &*obj, e);
  }
  // Copy everything the rollback and epilogue need before set_state: a
  // non-active transaction is eligible for TxnManager::GarbageCollect.
  std::vector<UndoEntry> log = txn->TakeUndoLog();
  std::vector<Oid> accessed = txn->accessed();
  TxnId aborted_id = txn->id();
  txn->set_state(TxnState::kAborted);

  // Undo in reverse order: attributes, trigger states (committed view),
  // activations, creations, deletions.
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    ODE_RETURN_IF_ERROR(ApplyUndo(*it));
  }

  txns_.CountAbort();
  locks_.Release(aborted_id);

  // `after tabort` via system transaction (§5), re-locking each object
  // before posting (see the commit epilogue for why).
  return RunSystemTxn([&](Transaction* sys) -> Status {
    for (Oid oid : accessed) {
      const bool locked = AcquireEpilogueLock(sys->id(), oid);
      Result<Object*> obj = GetObject(oid);
      Result<int> f = 0;
      if (obj.ok()) {
        PostedEvent e = MakePosted(BasicEventKind::kTabort,
                                   EventQualifier::kAfter, aborted_id);
        f = PostTo(sys, oid, &*obj, e);
      }
      if (locked) locks_.Release(sys->id(), oid);
      if (!f.ok()) return f.status();
    }
    return Status::OK();
  });
}

Status Database::ApplyUndo(const UndoEntry& entry) {
  switch (entry.kind) {
    case UndoEntry::Kind::kAttr: {
      Result<Object*> obj = GetObject(entry.oid);
      if (!obj.ok()) return Status::OK();
      return (*obj)->SetAttr(entry.attr, entry.old_value);
    }
    case UndoEntry::Kind::kTriggerState: {
      Result<Object*> obj = GetObject(entry.oid);
      if (!obj.ok()) return Status::OK();
      ActiveTrigger& slot = (*obj)->SlotFor(entry.trigger_idx);
      slot.state = entry.old_state;
      slot.gate_states = entry.old_gate_states;
      return Status::OK();
    }
    case UndoEntry::Kind::kTriggerActive: {
      Result<Object*> obj = GetObject(entry.oid);
      if (!obj.ok()) return Status::OK();
      ActiveTrigger& slot = (*obj)->SlotFor(entry.trigger_idx);
      if (slot.active == entry.old_active) return Status::OK();
      const RegisteredClass* cls = classes_.FindById((*obj)->class_id());
      if (cls != nullptr &&
          entry.trigger_idx < static_cast<int>(cls->triggers.size())) {
        const TriggerProgram& program = cls->triggers[entry.trigger_idx];
        if (entry.old_active) {
          AcquireTriggerTimers(entry.oid, program);
        } else {
          ReleaseTriggerTimers(entry.oid, program);
        }
      }
      slot.active = entry.old_active;
      return Status::OK();
    }
    case UndoEntry::Kind::kCreate: {
      std::unique_lock<std::shared_mutex> lock(objects_mu_);
      objects_.erase(entry.oid);
      return Status::OK();
    }
    case UndoEntry::Kind::kDelete:
      if (entry.deleted_object != nullptr) {
        std::unique_lock<std::shared_mutex> lock(objects_mu_);
        objects_[entry.oid] = *entry.deleted_object;
      }
      return Status::OK();
  }
  return Status::Internal("unknown undo entry kind");
}

// --- Objects -----------------------------------------------------------------

Result<Oid> Database::New(TxnId txn_id, std::string_view class_name,
                          const std::map<std::string, Value>& init) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  const RegisteredClass* cls = classes_.Find(class_name);
  if (cls == nullptr) {
    return Status::NotFound(StrFormat("unknown class '%s'",
                                      std::string(class_name).c_str()));
  }

  Oid oid;
  Object* stored = nullptr;
  {
    std::unique_lock<std::shared_mutex> lock(objects_mu_);
    oid = Oid{next_oid_++};
    Object obj(oid, cls->id);
    for (const AttrDecl& attr : cls->def.attrs()) {
      obj.InitAttr(attr.name, attr.default_value);
    }
    for (const auto& [name, value] : init) {
      if (!obj.HasAttr(name)) {
        return Status::InvalidArgument(StrFormat(
            "class '%s' has no attribute '%s'",
            std::string(class_name).c_str(), name.c_str()));
      }
      obj.InitAttr(name, value);
    }
    stored = &objects_.emplace(oid, std::move(obj)).first->second;
  }

  txn->PushUndo(UndoEntry::Kind::kCreate, oid);

  auto fail = [&](Status s) -> Status {
    if (s.code() == StatusCode::kAborted) (void)AbortInternal(txn);
    return s;
  };

  Status touched = TouchObject(txn, oid, LockMode::kExclusive, &stored);
  if (!touched.ok()) return fail(touched);

  // Constructor-time trigger activation (§3.5), before `after create` so
  // the new triggers observe the creation event.
  for (size_t i = 0; i < cls->triggers.size(); ++i) {
    if (!cls->auto_activate[i]) continue;
    if (stored == nullptr) {
      Result<Object*> resolved = GetObject(oid);
      if (!resolved.ok()) return fail(resolved.status());
      stored = *resolved;
    }
    Status s = ActivateTriggerInternal(txn, stored, *cls,
                                       static_cast<int>(i), {});
    if (!s.ok()) return fail(s);
  }

  PostedEvent created =
      MakePosted(BasicEventKind::kCreate, EventQualifier::kAfter, txn->id());
  Result<int> posted = PostTo(txn, oid, &stored, created);
  if (!posted.ok()) return fail(posted.status());
  return oid;
}

Status Database::Delete(TxnId txn_id, Oid oid) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));

  auto fail = [&](Status s) -> Status {
    if (s.code() == StatusCode::kAborted) (void)AbortInternal(txn);
    return s;
  };

  Status touched = TouchObject(txn, oid, LockMode::kExclusive, &obj);
  if (!touched.ok()) return fail(touched);

  PostedEvent deleting =
      MakePosted(BasicEventKind::kDelete, EventQualifier::kBefore, txn->id());
  Result<int> posted = PostTo(txn, oid, &obj, deleting);
  if (!posted.ok()) return fail(posted.status());

  // The posting pipeline may have mutated the object; snapshot now.
  std::unique_lock<std::shared_mutex> lock(objects_mu_);
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::FailedPrecondition("object vanished during before-delete");
  }
  txn->PushUndo(UndoEntry::Kind::kDelete, oid).deleted_object =
      std::make_unique<Object>(it->second);

  objects_.erase(it);
  return Status::OK();
}

const Object* Database::object(Oid oid) const {
  std::shared_lock<std::shared_mutex> lock(objects_mu_);
  auto it = objects_.find(oid);
  return it == objects_.end() ? nullptr : &it->second;
}

Result<Value> Database::Call(TxnId txn_id, Oid oid, std::string_view method,
                             std::vector<Value> args, int* triggers_fired) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  const MethodDef* def = cls->def.FindMethod(method);
  if (def == nullptr) {
    return Status::NotFound(StrFormat(
        "class '%s' has no method '%s'", cls->def.name().c_str(),
        std::string(method).c_str()));
  }
  if (args.size() != def->params.size()) {
    return Status::InvalidArgument(StrFormat(
        "method '%s' expects %zu arguments, got %zu",
        def->name.c_str(), def->params.size(), args.size()));
  }

  std::vector<EventArg> named;
  named.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    named.push_back(EventArg{def->params[i].name, std::move(args[i])});
  }

  auto fail = [&](Status s) -> Status {
    if (s.code() == StatusCode::kAborted) (void)AbortInternal(txn);
    return s;
  };

  LockMode mode = def->kind == MethodKind::kReadOnly ? LockMode::kShared
                                                     : LockMode::kExclusive;
  Status touched = TouchObject(txn, oid, mode, &obj);
  if (!touched.ok()) return fail(touched);

  const EventPostingPolicy& policy = cls->def.policy();
  BasicEventKind state_kind = def->kind == MethodKind::kReadOnly
                                  ? BasicEventKind::kRead
                                  : BasicEventKind::kUpdate;

  // One method event serves both qualifiers; the engine restamps its
  // position, time and id.
  const size_t method_idx =
      static_cast<size_t>(def - cls->def.methods().data());
  PostedEvent method_event;
  if (policy.method_events) {
    method_event = MakePostedMethod(EventQualifier::kBefore, def->name, named,
                                    txn->id());
  }
  auto post = [&](BasicEventKind kind, EventQualifier q) -> Status {
    PostedEvent simple;
    PostedEvent* event = &method_event;
    if (kind == BasicEventKind::kMethod) {
      method_event.qualifier = q;
      method_event.event_id = cls->events.MethodId(method_idx, q);
    } else {
      simple = MakePosted(kind, q, txn->id());
      event = &simple;
    }
    Result<int> f = PostTo(txn, oid, &obj, *event);
    if (!f.ok()) return f.status();
    if (triggers_fired != nullptr) *triggers_fired += *f;
    return Status::OK();
  };

  // Event order around a method execution (§3.1; order within one
  // invocation is a documented implementation choice):
  //   before f → before access → before read/update
  //   [body]
  //   after read/update → after access → after f
  if (policy.method_events) {
    Status s = post(BasicEventKind::kMethod, EventQualifier::kBefore);
    if (!s.ok()) return fail(s);
  }
  if (policy.access_events) {
    Status s = post(BasicEventKind::kAccess, EventQualifier::kBefore);
    if (!s.ok()) return fail(s);
  }
  if (policy.read_update_events) {
    Status s = post(state_kind, EventQualifier::kBefore);
    if (!s.ok()) return fail(s);
  }

  MethodContext ctx(this, txn_id, oid, std::move(named));
  if (def->body) {
    Status body_status = def->body(&ctx);
    if (!body_status.ok()) return fail(body_status);
    obj = nullptr;  // The body may have deleted the object.
  }

  if (policy.read_update_events) {
    Status s = post(state_kind, EventQualifier::kAfter);
    if (!s.ok()) return fail(s);
  }
  if (policy.access_events) {
    Status s = post(BasicEventKind::kAccess, EventQualifier::kAfter);
    if (!s.ok()) return fail(s);
  }
  if (policy.method_events) {
    Status s = post(BasicEventKind::kMethod, EventQualifier::kAfter);
    if (!s.ok()) return fail(s);
  }
  return ctx.result();
}

Result<Value> Database::GetAttr(TxnId txn_id, Oid oid, std::string_view attr) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_RETURN_IF_ERROR(TouchObject(txn, oid, LockMode::kShared));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));
  return obj->GetAttr(attr);
}

Status Database::SetAttr(TxnId txn_id, Oid oid, std::string_view attr,
                         Value v) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_RETURN_IF_ERROR(TouchObject(txn, oid, LockMode::kExclusive));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));
  ODE_ASSIGN_OR_RETURN(Value old_value, obj->GetAttr(attr));

  UndoEntry& undo = txn->PushUndo(UndoEntry::Kind::kAttr, oid);
  undo.attr = std::string(attr);
  undo.old_value = std::move(old_value);

  return obj->SetAttr(attr, std::move(v));
}

Result<Value> Database::PeekAttr(Oid oid, std::string_view attr) const {
  const Object* obj = object(oid);
  if (obj == nullptr) {
    return Status::NotFound(StrFormat(
        "no object @%llu", static_cast<unsigned long long>(oid.id)));
  }
  return obj->GetAttr(attr);
}

// --- Triggers -------------------------------------------------------------

Status Database::ActivateTrigger(TxnId txn_id, Oid oid,
                                 std::string_view trigger_name,
                                 std::vector<Value> params) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int idx = cls->TriggerIndex(trigger_name);
  if (idx < 0) {
    return Status::NotFound(StrFormat(
        "class '%s' has no trigger '%s'", cls->def.name().c_str(),
        std::string(trigger_name).c_str()));
  }
  const TriggerProgram& program = cls->triggers[idx];
  if (!program.spec.action.empty() &&
      actions_.Find(program.spec.action) == nullptr) {
    return Status::NotFound(StrFormat(
        "trigger '%s' names unregistered action '%s'",
        program.spec.name.c_str(), program.spec.action.c_str()));
  }
  if (params.size() != program.spec.params.size()) {
    return Status::InvalidArgument(StrFormat(
        "trigger '%s' expects %zu parameters, got %zu",
        program.spec.name.c_str(), program.spec.params.size(),
        params.size()));
  }

  auto fail = [&](Status s) -> Status {
    if (s.code() == StatusCode::kAborted) (void)AbortInternal(txn);
    return s;
  };
  Status touched = TouchObject(txn, oid, LockMode::kExclusive);
  if (!touched.ok()) return fail(touched);

  // TouchObject may have fired triggers; re-fetch.
  ODE_ASSIGN_OR_RETURN(obj, GetObject(oid));
  return ActivateTriggerInternal(txn, obj, *cls, idx, std::move(params));
}

Status Database::ActivateTriggerInternal(Transaction* txn, Object* obj,
                                         const RegisteredClass& cls, int idx,
                                         std::vector<Value> params) {
  const TriggerProgram& program = cls.triggers[idx];
  ActiveTrigger& slot = obj->SlotFor(idx);

  UndoEntry& active_undo =
      txn->PushUndo(UndoEntry::Kind::kTriggerActive, obj->oid());
  active_undo.trigger_idx = idx;
  active_undo.old_active = slot.active;

  UndoEntry& state_undo =
      txn->PushUndo(UndoEntry::Kind::kTriggerState, obj->oid());
  state_undo.trigger_idx = idx;
  state_undo.old_state = slot.state;
  state_undo.old_gate_states = slot.gate_states;

  bool was_active = slot.active;
  slot.active = true;
  slot.state = program.ActiveDfa().start();
  slot.witnesses.clear();
  slot.gate_states.assign(program.event.gates.size(), 0);
  for (size_t g = 0; g < program.event.gates.size(); ++g) {
    slot.gate_states[g] = program.event.gates[g].dfa.start();
  }
  slot.params.clear();
  for (size_t i = 0; i < params.size(); ++i) {
    slot.params[program.spec.params[i].name] = std::move(params[i]);
  }
  if (!was_active) {
    AcquireTriggerTimers(obj->oid(), program);
  }
  return Status::OK();
}

Status Database::DeactivateTrigger(TxnId txn_id, Oid oid,
                                   std::string_view trigger_name) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int idx = cls->TriggerIndex(trigger_name);
  if (idx < 0) {
    return Status::NotFound(StrFormat(
        "class '%s' has no trigger '%s'", cls->def.name().c_str(),
        std::string(trigger_name).c_str()));
  }
  auto fail = [&](Status s) -> Status {
    if (s.code() == StatusCode::kAborted) (void)AbortInternal(txn);
    return s;
  };
  Status touched = TouchObject(txn, oid, LockMode::kExclusive);
  if (!touched.ok()) return fail(touched);
  ODE_ASSIGN_OR_RETURN(obj, GetObject(oid));

  ActiveTrigger& slot = obj->SlotFor(idx);
  if (!slot.active) return Status::OK();

  UndoEntry& undo = txn->PushUndo(UndoEntry::Kind::kTriggerActive, oid);
  undo.trigger_idx = idx;
  undo.old_active = true;

  slot.active = false;
  ReleaseTriggerTimers(oid, cls->triggers[idx]);
  return Status::OK();
}

Result<bool> Database::TriggerActive(Oid oid,
                                     std::string_view trigger_name) const {
  const Object* obj = object(oid);
  if (obj == nullptr) return Status::NotFound("no such object");
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int idx = cls->TriggerIndex(trigger_name);
  if (idx < 0) return Status::NotFound("no such trigger");
  const ActiveTrigger* slot = obj->FindSlot(idx);
  return slot != nullptr && slot->active;
}

Result<int32_t> Database::TriggerState(Oid oid,
                                       std::string_view trigger_name) const {
  const Object* obj = object(oid);
  if (obj == nullptr) return Status::NotFound("no such object");
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int idx = cls->TriggerIndex(trigger_name);
  if (idx < 0) return Status::NotFound("no such trigger");
  const ActiveTrigger* slot = obj->FindSlot(idx);
  if (slot == nullptr) return Status::FailedPrecondition("never activated");
  return slot->state;
}

uint64_t Database::FireCount(Oid oid, std::string_view trigger_name) const {
  const Object* obj = object(oid);
  if (obj == nullptr) return 0;
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  int idx = cls == nullptr ? -1 : cls->TriggerIndex(trigger_name);
  return idx < 0 ? 0 : obj->fire_count(idx);
}

// --- Trigger groups (§5 footnote 5) -------------------------------------

Status Database::DefineTriggerGroup(
    std::string_view class_name, std::string group_name,
    const std::vector<std::string>& trigger_names) {
  RegisteredClass* cls = classes_.FindMutable(class_name);
  if (cls == nullptr) {
    return Status::NotFound(StrFormat("unknown class '%s'",
                                      std::string(class_name).c_str()));
  }
  if (cls->GroupIndex(group_name) >= 0) {
    return Status::AlreadyExists(
        StrFormat("group '%s' already defined", group_name.c_str()));
  }
  if (trigger_names.empty()) {
    return Status::InvalidArgument("a trigger group needs members");
  }

  TriggerGroup group;
  group.name = std::move(group_name);
  std::vector<TriggerSpec> specs;
  for (const std::string& name : trigger_names) {
    int idx = cls->TriggerIndex(name);
    if (idx < 0) {
      return Status::NotFound(StrFormat(
          "class '%s' has no trigger '%s'", cls->def.name().c_str(),
          name.c_str()));
    }
    const TriggerProgram& program = cls->triggers[idx];
    if (program.view != HistoryView::kFull) {
      return Status::InvalidArgument(StrFormat(
          "trigger '%s' is not full-history view; combined monitoring "
          "state is not undo-logged",
          name.c_str()));
    }
    if (!program.spec.params.empty()) {
      return Status::InvalidArgument(StrFormat(
          "trigger '%s' takes parameters; group members must be "
          "parameterless",
          name.c_str()));
    }
    group.member_idxs.push_back(idx);
    specs.push_back(program.spec);
  }

  CombinedProgram::Options opts;
  opts.compile = options_.compile;
  ODE_ASSIGN_OR_RETURN(group.program,
                       CombinedProgram::Build(std::move(specs), opts));
  const CombinedProgram& combined = group.program;
  group.dispatch = AutomatonDispatch::Build(
      combined.alphabet(), cls->events, combined.dfa(), /*gated=*/false,
      [&](Dfa::State s) { return combined.AcceptMask(s) != 0; });
  cls->groups.push_back(std::move(group));
  return Status::OK();
}

Status Database::ActivateTriggerGroup(TxnId txn_id, Oid oid,
                                      std::string_view group_name) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int gidx = cls->GroupIndex(group_name);
  if (gidx < 0) {
    return Status::NotFound(StrFormat("no trigger group '%s'",
                                      std::string(group_name).c_str()));
  }
  const TriggerGroup& group = cls->groups[gidx];
  for (int member : group.member_idxs) {
    const TriggerProgram& program = cls->triggers[member];
    if (!program.spec.action.empty() &&
        actions_.Find(program.spec.action) == nullptr) {
      return Status::NotFound(StrFormat(
          "trigger '%s' names unregistered action '%s'",
          program.spec.name.c_str(), program.spec.action.c_str()));
    }
  }

  auto fail = [&](Status s) -> Status {
    if (s.code() == StatusCode::kAborted) (void)AbortInternal(txn);
    return s;
  };
  Status touched = TouchObject(txn, oid, LockMode::kExclusive);
  if (!touched.ok()) return fail(touched);
  ODE_ASSIGN_OR_RETURN(obj, GetObject(oid));

  GroupSlot& slot = obj->GroupSlotFor(gidx);
  bool was_active = slot.active;
  slot.active = true;
  slot.state = group.program.dfa().start();
  slot.enabled = group.member_idxs.size() >= 64
                     ? ~uint64_t{0}
                     : (uint64_t{1} << group.member_idxs.size()) - 1;
  slot.witnesses.clear();
  if (!was_active) AcquireAlphabetTimers(oid, group.program.alphabet());
  return Status::OK();
}

Status Database::DeactivateTriggerGroup(TxnId txn_id, Oid oid,
                                        std::string_view group_name) {
  ODE_ASSIGN_OR_RETURN(Transaction * txn, txns_.GetActive(txn_id));
  ODE_ASSIGN_OR_RETURN(Object * obj, GetObject(oid));
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int gidx = cls->GroupIndex(group_name);
  if (gidx < 0) return Status::NotFound("no such trigger group");
  ODE_RETURN_IF_ERROR(TouchObject(txn, oid, LockMode::kExclusive));
  ODE_ASSIGN_OR_RETURN(obj, GetObject(oid));
  GroupSlot& slot = obj->GroupSlotFor(gidx);
  if (slot.active) {
    slot.active = false;
    ReleaseAlphabetTimers(oid, cls->groups[gidx].program.alphabet());
  }
  return Status::OK();
}

Result<bool> Database::TriggerGroupActive(
    Oid oid, std::string_view group_name) const {
  const Object* obj = object(oid);
  if (obj == nullptr) return Status::NotFound("no such object");
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int gidx = cls->GroupIndex(group_name);
  if (gidx < 0) return Status::NotFound("no such trigger group");
  const GroupSlot* slot = obj->FindGroupSlot(gidx);
  return slot != nullptr && slot->active;
}

Result<int32_t> Database::TriggerGroupState(
    Oid oid, std::string_view group_name) const {
  const Object* obj = object(oid);
  if (obj == nullptr) return Status::NotFound("no such object");
  const RegisteredClass* cls = classes_.FindById(obj->class_id());
  if (cls == nullptr) return Status::Internal("object with unknown class");
  int gidx = cls->GroupIndex(group_name);
  if (gidx < 0) return Status::NotFound("no such trigger group");
  const GroupSlot* slot = obj->FindGroupSlot(gidx);
  if (slot == nullptr) return Status::FailedPrecondition("never activated");
  return slot->state;
}

// --- Class-scope triggers (§9 extension) -------------------------------

void Database::BumpClassTriggersFired(ClassId cls,
                                      const std::string& trigger_name) {
  stats_.triggers_fired.fetch_add(1, std::memory_order_relaxed);
  auto key = std::make_pair(cls, trigger_name);
  {
    std::shared_lock<std::shared_mutex> lock(aux_mu_);
    auto it = class_fire_counts_.find(key);
    if (it != class_fire_counts_.end()) {
      // Atomic: class triggers fire from any shard worker, so unlike the
      // per-object counters there is no single-writer owner.
      it->second.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  std::unique_lock<std::shared_mutex> lock(aux_mu_);
  class_fire_counts_[key].fetch_add(1, std::memory_order_relaxed);
}

std::vector<ActiveTrigger>* Database::ClassSlots(ClassId cls) {
  std::shared_lock<std::shared_mutex> lock(aux_mu_);
  auto it = class_slots_.find(cls);
  return it == class_slots_.end() ? nullptr : &it->second;
}

uint64_t Database::ClassActiveMask(ClassId cls) const {
  std::shared_lock<std::shared_mutex> lock(aux_mu_);
  auto it = class_active_masks_.find(cls);
  return it == class_active_masks_.end()
             ? 0
             : it->second.load(std::memory_order_acquire);
}

void Database::SyncClassActiveMask(ClassId cls) {
  std::shared_lock<std::shared_mutex> lock(aux_mu_);
  auto slots_it = class_slots_.find(cls);
  auto mask_it = class_active_masks_.find(cls);
  if (slots_it == class_slots_.end() ||
      mask_it == class_active_masks_.end()) {
    return;
  }
  uint64_t mask = 0;
  const std::vector<ActiveTrigger>& slots = slots_it->second;
  for (size_t i = 0; i < slots.size() && i < 64; ++i) {
    if (slots[i].active) mask |= (uint64_t{1} << i);
  }
  mask_it->second.store(mask, std::memory_order_release);
}

void Database::AttachSequencer(seq::Sequencer* sequencer) {
  sequencer_.store(sequencer, std::memory_order_release);
}

void Database::DetachSequencer() {
  sequencer_.store(nullptr, std::memory_order_release);
}

int Database::ApplySequencedEvent(const seq::SeqEvent& event,
                                  const seq::FiringSink& sink) {
  return engine_->ApplySequenced(event, sink);
}

Status Database::RunClassFiring(const seq::Firing& firing) {
  seq::Sequencer::PendingPublications pending(sequencer());
  // RunSystemTxn rolls back and reports OK when the action demands an
  // abort; keep the action's own status so the caller sees the failure.
  Status action = Status::OK();
  ODE_RETURN_IF_ERROR(RunSystemTxn([&](Transaction* sys) -> Status {
    if (Exists(firing.oid)) {
      ODE_RETURN_IF_ERROR(TouchObject(sys, firing.oid, LockMode::kExclusive));
    }
    action = engine_->RunFiringAction(sys, firing);
    return action;
  }));
  if (action.ok()) pending.Commit();
  return action;
}

Status Database::ActivateClassTrigger(std::string_view class_name,
                                      std::string_view trigger_name,
                                      std::vector<Value> params) {
  const RegisteredClass* cls = classes_.Find(class_name);
  if (cls == nullptr) {
    return Status::NotFound(StrFormat("unknown class '%s'",
                                      std::string(class_name).c_str()));
  }
  int idx = cls->TriggerIndex(trigger_name);
  if (idx < 0) {
    return Status::NotFound(StrFormat(
        "class '%s' has no trigger '%s'", cls->def.name().c_str(),
        std::string(trigger_name).c_str()));
  }
  const TriggerProgram& program = cls->triggers[idx];
  if (program.view != HistoryView::kFull) {
    return Status::InvalidArgument(
        "class-scope activation requires a full-history trigger: the "
        "merged instance stream interleaves transactions, so committed-"
        "view rollback is not well-defined at class scope");
  }
  if (!program.event.alphabet.TimeEvents().empty()) {
    return Status::Unimplemented(
        "class-scope triggers with time events are not supported (timers "
        "are registered per object)");
  }
  if (!program.event.gates.empty() ||
      !program.event.composite_masks.empty()) {
    return Status::Unimplemented(
        "class-scope triggers with composite masks are not supported (the "
        "sequencer steps class automata without reading database state)");
  }
  if (!program.spec.action.empty() &&
      actions_.Find(program.spec.action) == nullptr) {
    return Status::NotFound(StrFormat(
        "trigger '%s' names unregistered action '%s'",
        program.spec.name.c_str(), program.spec.action.c_str()));
  }
  if (params.size() != program.spec.params.size()) {
    return Status::InvalidArgument(StrFormat(
        "trigger '%s' expects %zu parameters, got %zu",
        program.spec.name.c_str(), program.spec.params.size(),
        params.size()));
  }

  // The slot vector's *structure* lives under aux_mu_; its *contents* are
  // shared mutable state with the posting path. Standalone, mutating under
  // class_post_mu_ suffices. With a sequencer attached, posting no longer
  // takes that mutex — the mutation instead runs quiesced: publishers
  // gated out, the merge pipeline drained, so no reader exists anywhere.
  std::unique_lock<std::shared_mutex> structure_lock(aux_mu_);
  std::vector<ActiveTrigger>& slots = class_slots_[cls->id];
  class_active_masks_[cls->id];  // Ensure the mask entry exists alongside.
  structure_lock.unlock();
  cls->class_scope_armed.store(true, std::memory_order_release);

  auto mutate = [&]() -> Status {
    ActiveTrigger* slot = nullptr;
    for (ActiveTrigger& s : slots) {
      if (s.trigger_idx == idx) slot = &s;
    }
    if (slot == nullptr) {
      if (slots.size() >= 64) {
        return Status::ResourceExhausted(
            "a class supports at most 64 class-scope trigger slots (the "
            "publish path's active bitmask)");
      }
      // Growth also under aux_mu_: introspection reads the vector shape
      // under a shared lock while we are quiesced.
      std::unique_lock<std::shared_mutex> grow_lock(aux_mu_);
      slots.emplace_back();
      slot = &slots.back();
      slot->trigger_idx = idx;
    }
    slot->active = true;
    slot->state = program.ActiveDfa().start();
    slot->witnesses.clear();
    slot->gate_states.assign(program.event.gates.size(), 0);
    for (size_t g = 0; g < program.event.gates.size(); ++g) {
      slot->gate_states[g] = program.event.gates[g].dfa.start();
    }
    slot->params.clear();
    for (size_t i = 0; i < params.size(); ++i) {
      slot->params[program.spec.params[i].name] = std::move(params[i]);
    }
    SyncClassActiveMask(cls->id);
    return Status::OK();
  };

  if (seq::Sequencer* sequencer = this->sequencer()) {
    return sequencer->ExecuteQuiesced(mutate);
  }
  std::lock_guard<std::recursive_mutex> post_lock(class_post_mu_);
  return mutate();
}

Status Database::DeactivateClassTrigger(std::string_view class_name,
                                        std::string_view trigger_name) {
  const RegisteredClass* cls = classes_.Find(class_name);
  if (cls == nullptr) return Status::NotFound("unknown class");
  int idx = cls->TriggerIndex(trigger_name);
  if (idx < 0) return Status::NotFound("no such trigger");
  std::vector<ActiveTrigger>* slots = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(aux_mu_);
    auto it = class_slots_.find(cls->id);
    if (it == class_slots_.end()) return Status::OK();
    slots = &it->second;
  }
  auto mutate = [&]() -> Status {
    for (ActiveTrigger& s : *slots) {
      if (s.trigger_idx == idx) s.active = false;
    }
    SyncClassActiveMask(cls->id);
    return Status::OK();
  };
  if (seq::Sequencer* sequencer = this->sequencer()) {
    return sequencer->ExecuteQuiesced(mutate);
  }
  std::lock_guard<std::recursive_mutex> post_lock(class_post_mu_);
  return mutate();
}

Result<bool> Database::ClassTriggerActive(
    std::string_view class_name, std::string_view trigger_name) const {
  const RegisteredClass* cls = classes_.Find(class_name);
  if (cls == nullptr) return Status::NotFound("unknown class");
  int idx = cls->TriggerIndex(trigger_name);
  if (idx < 0) return Status::NotFound("no such trigger");
  if (sequencer_.load(std::memory_order_acquire) != nullptr) {
    // The merge thread owns slot contents; read the publish-side bitmask
    // instead (re-synced after firings — drain the runtime for an exact
    // answer).
    std::shared_lock<std::shared_mutex> lock(aux_mu_);
    auto it = class_slots_.find(cls->id);
    if (it == class_slots_.end()) return false;
    auto mask_it = class_active_masks_.find(cls->id);
    uint64_t mask = mask_it == class_active_masks_.end()
                        ? 0
                        : mask_it->second.load(std::memory_order_acquire);
    for (size_t i = 0; i < it->second.size() && i < 64; ++i) {
      if (it->second[i].trigger_idx == idx) return ((mask >> i) & 1) != 0;
    }
    return false;
  }
  const std::vector<ActiveTrigger>* slots = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(aux_mu_);
    auto it = class_slots_.find(cls->id);
    if (it == class_slots_.end()) return false;
    slots = &it->second;
  }
  std::lock_guard<std::recursive_mutex> post_lock(class_post_mu_);
  for (const ActiveTrigger& s : *slots) {
    if (s.trigger_idx == idx) return s.active;
  }
  return false;
}

uint64_t Database::ClassFireCount(std::string_view class_name,
                                  std::string_view trigger_name) const {
  const RegisteredClass* cls = classes_.Find(class_name);
  if (cls == nullptr) return 0;
  std::shared_lock<std::shared_mutex> lock(aux_mu_);
  auto it = class_fire_counts_.find({cls->id, std::string(trigger_name)});
  return it == class_fire_counts_.end()
             ? 0
             : it->second.load(std::memory_order_relaxed);
}

// --- Time -------------------------------------------------------------------

Status Database::AdvanceClock(TimeMs delta_ms) {
  return AdvanceClockTo(clock_.now() + delta_ms);
}

Status Database::AdvanceClockTo(TimeMs target_ms) {
  return clock_.AdvanceTo(
      target_ms,
      [this](Oid oid, const std::string& time_key, TimeMs t) -> Status {
        if (!Exists(oid)) return Status::OK();  // Stale timer.
        return RunSystemTxn([&](Transaction* sys) -> Status {
          ODE_RETURN_IF_ERROR(locks_.Acquire(sys->id(), oid,
                                             LockMode::kExclusive));
          sys->RecordAccess(oid);
          PostedEvent event;
          event.kind = BasicEventKind::kTime;
          event.qualifier = EventQualifier::kNone;
          event.time_key = time_key;
          event.time = t;
          Object* obj = nullptr;
          Result<int> f = PostTo(sys, oid, &obj, event);
          return f.ok() ? Status::OK() : f.status();
        });
      });
}

// --- Introspection ------------------------------------------------------------

const EventHistory* Database::history(Oid oid) const {
  std::shared_lock<std::shared_mutex> lock(aux_mu_);
  auto it = histories_.find(oid);
  return it == histories_.end() ? nullptr : &it->second;
}

}  // namespace ode
