#ifndef ODE_ODE_DATABASE_H_
#define ODE_ODE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "analyze/diagnostic.h"
#include "clock/virtual_clock.h"
#include "common/result.h"
#include "common/value.h"
#include "event/history.h"
#include "ode/class_def.h"
#include "ode/object.h"
#include "seq/seq_event.h"
#include "trigger/trigger_def.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace ode {

class TriggerEngine;
struct ClassTriggerSet;

namespace seq {
class Sequencer;
}  // namespace seq

/// Context passed to host functions registered for mask expressions
/// (e.g. `authorized(user())` in §3.5 trigger T1).
struct HostContext {
  Database* db = nullptr;
  TxnId txn = 0;
  Oid self;
  const PostedEvent* event = nullptr;  ///< Null for composite-mask checks.
};

/// A mask-callable host function.
using HostFn =
    std::function<Result<Value>(const std::vector<Value>&, const HostContext&)>;

struct DatabaseOptions {
  /// Record every object's full, unbounded event history
  /// (Database::history). Off by default: no detection path reads it, since
  /// a trigger slot holds only its automaton state, params and one witness
  /// pointer per alphabet group (§5). HistoryQuery, the baseline detectors
  /// and tests of event order opt in.
  bool record_histories = false;
  /// Bound on the §6 `before tcomplete` fixpoint rounds.
  int max_tcomplete_rounds = 32;
  /// Bound on recursive event posting through trigger actions.
  int max_posting_depth = 64;
  /// §9 argument capture: record, per active trigger, the latest
  /// occurrence of each referenced logical event so actions can read the
  /// constituent events' parameters (ActionContext::Witness). A posting is
  /// copied once, and every slot that captures it shares the copy.
  bool capture_witnesses = true;
  /// Compilation options for class triggers.
  CompileOptions compile;
  /// Registration-time static analysis of trigger sections (the ode-lint
  /// layers run inside RegisterClass, with the class as resolution
  /// context). kWarn records findings — read them via
  /// Database::analysis_diagnostics(). kReject additionally fails the
  /// registration when any error-severity finding is produced (never-true
  /// mask, empty-language automaton, compile failure).
  enum class TriggerAnalysisMode : uint8_t { kOff = 0, kWarn, kReject };
  TriggerAnalysisMode analyze_triggers = TriggerAnalysisMode::kOff;
};

/// Engine statistics (used by tests and benches). Counters are relaxed
/// atomics so concurrent shard workers can bump them wait-free; read them
/// field-wise (the struct itself is not copyable).
struct DatabaseStats {
  std::atomic<uint64_t> events_posted{0};
  std::atomic<uint64_t> triggers_fired{0};
  std::atomic<uint64_t> mask_evaluations{0};
  std::atomic<uint64_t> tcomplete_rounds{0};
  std::atomic<uint64_t> system_txns{0};
};

/// The Ode-like active object database (§2): persistent objects with
/// identity, classes with compiled trigger sections, transactions with
/// undo-based atomicity and object-level locking, a virtual clock, and the
/// event-posting pipeline that drives trigger automata (§5).
///
/// Concurrency is modeled by interleaving transactions cooperatively; lock
/// conflicts surface as kWouldBlock/kDeadlock statuses.
///
/// Thread model (the substrate for runtime/IngestRuntime): the database is
/// *thread-compatible under object-sharding*. Concurrent transactions may
/// run on disjoint object sets — per-object state (attributes, trigger
/// slots, histories, sequence numbers) is single-writer, while the shared
/// structures (object registry, oid allocation, txn manager, lock table,
/// timer table, stats) are internally synchronized. Class-scope trigger
/// slots are shared across all instances of a class: standalone, their
/// advancement, firing and (de)activation serialize on an internal mutex;
/// under IngestRuntime one sequencer thread steps them and each action
/// runs on the shard that owns its object. Out of scope for concurrent use,
/// and to be serialized by the caller (drain the runtime first): schema
/// registration, clock advancement, persistence, and any cross-shard
/// object access from trigger actions. See docs/RUNTIME.md for the
/// sharding argument.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Schema ------------------------------------------------------------

  /// Registers a class, compiling its trigger section (§2). When
  /// DatabaseOptions::analyze_triggers is not kOff, the ode-lint analysis
  /// runs first; under kReject an error-severity finding fails the
  /// registration with kInvalidArgument.
  Result<ClassId> RegisterClass(ClassDef def);
  const ClassRegistry& classes() const { return classes_; }

  /// Findings accumulated by registration-time trigger analysis (empty
  /// when analyze_triggers is kOff). Like schema registration itself,
  /// not synchronized — read between registrations.
  const std::vector<Diagnostic>& analysis_diagnostics() const {
    return analysis_diagnostics_;
  }

  /// §3: "In some cases it may be appropriate to define events over other
  /// scopes, such as the database. An example ... is the creation of object
  /// type, i.e., schema modification." Enabling schema events creates a
  /// singleton schema object (class `__schema`) that receives a
  /// `classRegistered(name)` method event — posted from a system
  /// transaction — every time a class is subsequently registered. Attach
  /// triggers to it like to any object:
  ///
  ///   db.EnableSchemaEvents();
  ///   db.ActivateTrigger(txn, db.schema_object(),
  ///                      "..." /* a __schema trigger */);
  ///
  /// Extra `__schema` triggers can be declared by passing a ClassDef-style
  /// customization before the first EnableSchemaEvents call via
  /// `AddSchemaTrigger`.
  Status EnableSchemaEvents();
  Status AddSchemaTrigger(std::string dsl_text);
  Oid schema_object() const { return schema_oid_; }

  /// Registers a named trigger action callback (`==> name` in trigger DSL).
  Status RegisterAction(std::string name, TriggerAction action);

  /// Registers an action together with its declared effect signature (what
  /// it may post, on which targets). Once any action declares a signature,
  /// RegisterClass additionally runs cascade/termination analysis over the
  /// whole rulebase (analyze/cascade.h: T001 cycles, T002 immediate
  /// self-loops, T003 opaque actions, T004 depth-limit validation), and
  /// under analyze_triggers=kReject a statically-diverging rulebase fails
  /// registration.
  Status RegisterAction(std::string name, TriggerAction action,
                        ActionSignature signature);

  /// Registers a host function callable from masks.
  Status RegisterHostFunction(std::string name, HostFn fn);

  // --- Transactions (§2, §6) ----------------------------------------------

  Result<TxnId> Begin();

  /// What Commit did to the user transaction — lets callers distinguish a
  /// rollback (safe to replay) from a commit whose after-tcommit epilogue
  /// failed (replaying would double-apply the transaction's effects).
  enum class CommitOutcome : uint8_t {
    kNotCommitted,   ///< Rolled back (or never reached the commit point).
    kCommitted,      ///< Committed; the epilogue ran cleanly.
    kEpilogueFailed, ///< Committed, but the after-tcommit system
                     ///< transaction failed (its own effects rolled back).
  };

  /// Runs the `before tcomplete` fixpoint (§6), then commits: releases
  /// locks and posts `after tcommit` to every accessed object from a system
  /// transaction (§5). kAborted if a deferred trigger aborts the
  /// transaction; kWouldBlock if a commit dependency is still active.
  /// A non-OK status does NOT always mean the transaction rolled back:
  /// check `outcome` (kEpilogueFailed = the user transaction committed but
  /// the epilogue's postings failed non-abortively).
  Status Commit(TxnId txn, CommitOutcome* outcome = nullptr);
  /// Posts `before tabort`, rolls back every effect (attributes, object
  /// creation/deletion, committed-view trigger states, activations),
  /// releases locks, posts `after tabort` from a system transaction.
  Status Abort(TxnId txn);
  /// Declares that `txn` may only commit after `dep` commits and must abort
  /// if `dep` aborts (§7 commit dependency).
  Status AddCommitDependency(TxnId txn, TxnId dep);
  const Transaction* txn(TxnId id) const { return txns_.Get(id); }
  TxnManager& txns() { return txns_; }

  // --- Objects -------------------------------------------------------------

  /// Creates an instance: attributes initialized from class defaults
  /// overridden by `init`; auto-activate triggers armed; `after create`
  /// posted (§3.1).
  Result<Oid> New(TxnId txn, std::string_view class_name,
                  const std::map<std::string, Value>& init = {});
  /// Posts `before delete`, then removes the object.
  Status Delete(TxnId txn, Oid oid);
  bool Exists(Oid oid) const;
  const Object* object(Oid oid) const;

  /// Invokes a public member function: acquires the lock, posts the
  /// §3.1 events around the body per the class's posting policy, runs the
  /// body. Returns the method result. kAborted when a trigger aborted the
  /// transaction (the abort has already been performed).
  /// `triggers_fired`, when non-null, accumulates the number of trigger
  /// firings caused by this invocation's postings (runtime/ shard metrics).
  Result<Value> Call(TxnId txn, Oid oid, std::string_view method,
                     std::vector<Value> args = {},
                     int* triggers_fired = nullptr);

  /// Transactional attribute access. These do *not* post events — the
  /// paper's object-state events exist only at public-member-function
  /// granularity (§3.1).
  Result<Value> GetAttr(TxnId txn, Oid oid, std::string_view attr);
  Status SetAttr(TxnId txn, Oid oid, std::string_view attr, Value v);

  /// Attribute read without transaction/locking (mask evaluation, tests).
  Result<Value> PeekAttr(Oid oid, std::string_view attr) const;

  /// Invokes a registered host function (mask evaluation).
  Result<Value> CallHostFunction(std::string_view name,
                                 const std::vector<Value>& args,
                                 const HostContext& ctx) const;

  // --- Triggers (§2) --------------------------------------------------------

  /// Arms a trigger on an object, binding `params` positionally to the
  /// trigger's declared parameters. Re-activation resets the automaton.
  Status ActivateTrigger(TxnId txn, Oid oid, std::string_view trigger_name,
                         std::vector<Value> params = {});
  Status DeactivateTrigger(TxnId txn, Oid oid, std::string_view trigger_name);
  /// Is the trigger currently active on the object?
  Result<bool> TriggerActive(Oid oid, std::string_view trigger_name) const;
  /// Current automaton state (the §5 one-word-per-object storage).
  Result<int32_t> TriggerState(Oid oid, std::string_view trigger_name) const;

  // --- Class-scope triggers (§9 extension) -----------------------------
  //
  // The paper's future-work list asks about monitoring "at the system
  // level where a large number of objects need be tracked". A class-scope
  // activation runs ONE automaton over the merged event stream of every
  // instance of the class; the firing action receives the posting object
  // as `self`. Because the merged stream interleaves transactions, only
  // HistoryView::kFull triggers may be activated at class scope, and
  // triggers referencing time events are rejected (timers are per-object).
  // Activation is a schema-level operation: it is not transactional, and
  // its per-trigger params are limited to snapshot-codable values when a
  // snapshot will be taken. Slot state (activation flag, automaton state,
  // gate states, params — not witnesses) IS persisted by SaveSnapshot and
  // restored by LoadSnapshot, provided the class (and the action, for
  // firing) is re-registered first.
  //
  // Evaluation has two modes. Standalone (no sequencer attached): slots
  // advance and fire inline in Post, serialized by class_post_mu_. Under
  // IngestRuntime a seq::Sequencer is attached and class-scope evaluation
  // becomes its own pipeline stage: shards classify and publish, one
  // merge thread steps the automata in a deterministic total order and
  // decides firings, the shard owning each firing's object runs its action
  // (RunClassFiring), and (de)activation quiesces publishers instead of
  // just locking. See docs/SEQUENCER.md. Triggers with gates or composite
  // masks are rejected (kUnimplemented): the merge thread reads no
  // database state. A class may have at most 64 class-scope slots (the
  // publish path's active bitmask).

  // --- Trigger groups (§5 footnote 5) -----------------------------------
  //
  // "In many cases such automata may be combined into one, resulting in a
  // more efficient monitoring." A group compiles several of a class's
  // triggers into one product automaton (compile/combined.h); activating
  // the group on an object costs ONE classification and ONE table step per
  // posted event for all members, and one integer of per-object state.
  // Restrictions: members must be full-history-view and parameterless;
  // group state is monitoring metadata (not undo-logged). Ordinary
  // (non-perpetual) members individually disarm after firing via the
  // slot's enabled mask.

  Status DefineTriggerGroup(std::string_view class_name,
                            std::string group_name,
                            const std::vector<std::string>& trigger_names);
  Status ActivateTriggerGroup(TxnId txn, Oid oid,
                              std::string_view group_name);
  Status DeactivateTriggerGroup(TxnId txn, Oid oid,
                                std::string_view group_name);
  Result<bool> TriggerGroupActive(Oid oid,
                                  std::string_view group_name) const;
  /// The single shared automaton state (§5 footnote 5 storage bound).
  Result<int32_t> TriggerGroupState(Oid oid,
                                    std::string_view group_name) const;

  Status ActivateClassTrigger(std::string_view class_name,
                              std::string_view trigger_name,
                              std::vector<Value> params = {});
  Status DeactivateClassTrigger(std::string_view class_name,
                                std::string_view trigger_name);
  Result<bool> ClassTriggerActive(std::string_view class_name,
                                  std::string_view trigger_name) const;
  uint64_t ClassFireCount(std::string_view class_name,
                          std::string_view trigger_name) const;

  // --- Class-scope sequencer (src/seq/, docs/SEQUENCER.md) --------------

  /// Routes class-scope evaluation through `sequencer` (owned by the
  /// caller — IngestRuntime — and already recovered but not necessarily
  /// started). Attach before concurrent posting begins; detach only after
  /// the sequencer is stopped.
  void AttachSequencer(seq::Sequencer* sequencer);
  void DetachSequencer();
  seq::Sequencer* sequencer() const {
    return sequencer_.load(std::memory_order_acquire);
  }

  /// Steps the class automata for one sequenced class-scope event
  /// (sequencer thread only) and hands its firings to `sink`; returns how
  /// many fired. See TriggerEngine::ApplySequenced.
  int ApplySequencedEvent(const seq::SeqEvent& event,
                          const seq::FiringSink& sink);

  /// Runs a firing the sequencer decided: the trigger's action in a system
  /// transaction that holds `self`'s exclusive lock, whose class-scope
  /// postings publish only if it commits. kWouldBlock/kDeadlock: the lock
  /// (or one the action needs) is busy and the attempt rolled back; try
  /// again later.
  /// Call on the thread that owns the object (its shard worker).
  Status RunClassFiring(const seq::Firing& firing);

  // --- Time (§3.1) ----------------------------------------------------------

  VirtualClock& clock() { return clock_; }
  /// Advances virtual time, firing due timers; each firing posts its time
  /// event to the subscribed object from a system transaction.
  Status AdvanceClock(TimeMs delta_ms);
  Status AdvanceClockTo(TimeMs target_ms);

  // --- Introspection ---------------------------------------------------------

  /// The object's recorded history; null unless
  /// DatabaseOptions::record_histories is on and the object saw a posting.
  const EventHistory* history(Oid oid) const;
  const DatabaseOptions& options() const { return options_; }
  const DatabaseStats& stats() const { return stats_; }
  LockManager& locks() { return locks_; }

  /// Count of firings per (object, trigger name) — test convenience. The
  /// count lives in the object, so it reads 0 once the object is gone.
  uint64_t FireCount(Oid oid, std::string_view trigger_name) const;

  // --- Persistence (§2: persistent objects survive the program) -------------

  /// Serializes objects, trigger activation states (just the state
  /// integers, per §5), the clock, and timers. Class definitions are code
  /// and must be re-registered before LoadSnapshot.
  Status SaveSnapshot(const std::string& path) const;
  Status LoadSnapshot(const std::string& path);

  /// In-memory variants of the same codec, used by the WAL checkpoint
  /// (src/wal/) to embed a snapshot body inside its own file. The body is
  /// the full "ODE-SNAPSHOT v1" text *without* the trailing checksum line
  /// (the embedding container carries its own integrity check).
  Result<std::string> SaveSnapshotText() const;
  Status LoadSnapshotText(std::string_view body);

 private:
  friend class TriggerEngine;

  // --- Engine-internal helpers (TriggerEngine is a friend) -----------------
  Result<Object*> GetObject(Oid oid);
  void RecordHistory(const PostedEvent& event);
  void BumpEventsPosted() {
    stats_.events_posted.fetch_add(1, std::memory_order_relaxed);
  }
  void BumpMaskEvaluations() {
    stats_.mask_evaluations.fetch_add(1, std::memory_order_relaxed);
  }
  void BumpTriggersFired(Object* obj, int trigger_idx) {
    stats_.triggers_fired.fetch_add(1, std::memory_order_relaxed);
    obj->CountFire(trigger_idx);
  }
  void BumpClassTriggersFired(ClassId cls, const std::string& trigger_name);
  /// Class-scope trigger slots for the engine's posting loop (null when the
  /// class has none).
  std::vector<ActiveTrigger>* ClassSlots(ClassId cls);
  /// Publish-side view of which class slots are active (bit = slot index).
  /// Updated synchronously by quiesced (de)activation and re-synced by the
  /// sequencer after firings disarm ordinary triggers; a stale SET bit is
  /// harmless (the apply path re-checks slot->active), and active→inactive
  /// is the only transition that can be observed stale.
  uint64_t ClassActiveMask(ClassId cls) const;
  /// Recomputes the mask from the slot vector. Call only where slot
  /// contents are stable: the sequencer thread, quiesced (de)activation,
  /// or under class_post_mu_ in standalone mode.
  void SyncClassActiveMask(ClassId cls);
  void ReleaseTriggerTimers(Oid oid, const TriggerProgram& program);
  void AcquireTriggerTimers(Oid oid, const TriggerProgram& program);
  void ReleaseAlphabetTimers(Oid oid, const Alphabet& alphabet);
  void AcquireAlphabetTimers(Oid oid, const Alphabet& alphabet);
  const TriggerAction* FindAction(std::string_view name) const {
    return actions_.Find(name);
  }

  /// Lock + first-access bookkeeping; posts `after tbegin` lazily (§3.1).
  /// `obj`, when given, is reset once the lock is held (a pointer resolved
  /// before may dangle) and then carries the object the `after tbegin`
  /// posting resolved, if any (see PostTo).
  Status TouchObject(Transaction* txn, Oid oid, LockMode mode,
                     Object** obj = nullptr);

  /// Posts `event` to object `oid` through the engine. `*obj` is the
  /// object when the caller has resolved it, else null and resolved here.
  /// A posting that fired may have run an action that deleted the object,
  /// so `*obj` is then reset to null and the next posting resolves it
  /// again.
  Result<int> PostTo(Transaction* txn, Oid oid, Object** obj,
                     PostedEvent& event);

  /// Runs `fn` inside a fresh system transaction (§5: events after
  /// commit/abort are posted by a special system transaction). System
  /// transactions generate no transaction events of their own.
  Status RunSystemTxn(const std::function<Status(Transaction*)>& fn);

  Status AbortInternal(Transaction* txn);
  Status CommitInternal(Transaction* txn, CommitOutcome* outcome = nullptr);

  /// Acquires an exclusive lock on `oid` for the commit/abort epilogue's
  /// system transaction, spinning briefly while a (short-lived) shard
  /// transaction holds the object. Returns false when the lock could not
  /// be had within the bound — a cooperative single-threaded caller
  /// keeping a transaction open across this commit — in which case the
  /// epilogue posts unlocked, the pre-existing (single-thread-safe)
  /// behavior.
  bool AcquireEpilogueLock(TxnId sys, Oid oid);

  /// Applies one undo entry (reverse order during abort).
  Status ApplyUndo(const UndoEntry& entry);

  Status ActivateTriggerInternal(Transaction* txn, Object* obj,
                                 const RegisteredClass& cls, int idx,
                                 std::vector<Value> params);

  DatabaseOptions options_;
  ClassRegistry classes_;
  std::vector<Diagnostic> analysis_diagnostics_;
  /// Trigger sets of successfully registered classes, kept (only when
  /// analyze_triggers is on) for the cross-class pairwise sweep.
  std::vector<ClassTriggerSet> analyzed_trigger_sets_;

  /// Guards the object registry *structure* (insert/erase/find on
  /// `objects_`) and oid allocation. Object *contents* are single-writer
  /// per shard; std::map node stability keeps Object pointers valid across
  /// unrelated inserts/erases.
  mutable std::shared_mutex objects_mu_;
  std::map<Oid, Object> objects_;
  uint64_t next_oid_ = 1;

  Oid schema_oid_;  ///< Null until EnableSchemaEvents.
  std::vector<std::string> pending_schema_triggers_;

  TxnManager txns_;
  LockManager locks_;
  VirtualClock clock_;
  ActionRegistry actions_;
  std::map<std::string, HostFn, std::less<>> host_fns_;

  /// Guards the *structure* of the per-object bookkeeping maps below
  /// (first-touch insert vs. concurrent find); entry values are
  /// single-writer per shard, like object contents.
  mutable std::shared_mutex aux_mu_;
  std::map<Oid, EventHistory> histories_;
  std::map<ClassId, std::vector<ActiveTrigger>> class_slots_;
  /// Atomic values (see ClassActiveMask): read lock-free on every publish.
  std::map<ClassId, std::atomic<uint64_t>> class_active_masks_;
  /// Atomic values: class triggers fire from any shard worker (keyed by
  /// class, not object), so increments have no single-writer owner.
  std::map<std::pair<ClassId, std::string>, std::atomic<uint64_t>>
      class_fire_counts_;

  /// Standalone (no sequencer attached), serializes everything that
  /// touches class-scope trigger slots: the engine's class-slot
  /// advancement/firing in Post (a class slot is shared mutable state
  /// across all objects of the class) and ActivateClassTrigger/
  /// DeactivateClassTrigger. Recursive because trigger actions may post
  /// events re-entrantly.
  mutable std::recursive_mutex class_post_mu_;

  DatabaseStats stats_;
  std::unique_ptr<TriggerEngine> engine_;
  /// Non-owning; set by IngestRuntime for the lifetime of its run.
  std::atomic<seq::Sequencer*> sequencer_{nullptr};
};

}  // namespace ode

#endif  // ODE_ODE_DATABASE_H_
