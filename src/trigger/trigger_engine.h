#ifndef ODE_TRIGGER_TRIGGER_ENGINE_H_
#define ODE_TRIGGER_TRIGGER_ENGINE_H_

#include <string>

#include "common/result.h"
#include "event/posted_event.h"
#include "ode/object.h"
#include "txn/transaction.h"

namespace ode {

class Database;

namespace seq {
struct SeqEvent;
struct SeqApplyProgress;
}  // namespace seq

/// The event-posting pipeline of §5:
///
///   "Whenever a basic event (with any associated parameters) is posted to
///    an object, we check the active triggers to determine whether or not
///    any logical events have occurred. If so, for each active trigger for
///    which a logical event has occurred, we move the automaton to the next
///    state. We determine all the trigger events that have occurred, and
///    then we fire the triggers."
///
/// Per posted event and per active trigger the engine does O(k) mask
/// evaluations (k = masks on that basic event) plus one DFA transition —
/// the efficiency claim bench_detection quantifies against the baselines.
class TriggerEngine {
 public:
  explicit TriggerEngine(Database* db) : db_(db) {}

  /// Posts a basic event to an object. Appends to the object's history
  /// (when recorded), advances every active trigger's automaton
  /// (undo-logging committed-view states under `txn`), evaluates composite
  /// masks for accepting triggers, deactivates fired ordinary triggers, and
  /// executes actions.
  ///
  /// Returns the number of triggers fired. Returns kAborted when an action
  /// demands abort (the caller performs the rollback) and
  /// kResourceExhausted when trigger actions recursively post beyond the
  /// configured depth.
  Result<int> Post(Transaction* txn, Oid oid, PostedEvent event);

  /// Convenience for qualifier/kind events (create, access, tbegin, ...).
  Result<int> PostSimple(Transaction* txn, Oid oid, BasicEventKind kind,
                         EventQualifier q);

  /// Posts a time event identified by its canonical key (clock callback).
  Result<int> PostTime(Transaction* txn, Oid oid, const std::string& time_key,
                       TimeMs fire_time);

  /// Applies one sequenced class-scope event on the sequencer thread: steps
  /// the class automata using the publish-time classification, then fires
  /// occurred triggers from a system transaction that first acquires the
  /// posting object's lock (unless `allow_unlocked`, the bounded-wait
  /// fallback). kWouldBlock/kDeadlock are retryable: `progress` latches the
  /// non-idempotent advancement so a retry redoes only the firing. Returns
  /// the number of triggers fired.
  Result<int> ApplySequenced(const seq::SeqEvent& event,
                             seq::SeqApplyProgress* progress,
                             bool allow_unlocked);

  /// Current recursive posting depth on the calling thread. Depth is
  /// thread-local: each shard worker's action cascade is its own call
  /// chain, so the §5 depth bound applies per thread.
  int depth() const { return depth_; }

 private:
  /// One posting and the single copy of it that witness capture shares
  /// between slots (defined in the .cc).
  class Posting;

  /// Classifies the event for one trigger slot, resolves gate bits, steps
  /// the automaton (undo-logging committed-view state changes when
  /// `undo_logged`), and reports whether the trigger's event occurred at
  /// this point (acceptance gated by composite masks).
  Result<bool> AdvanceSlot(ActiveTrigger* slot, const TriggerProgram& program,
                           Transaction* txn, Object* obj, Oid oid,
                           Posting* posting, bool undo_logged);

  /// AdvanceSlot minus the classification: captures the witness for the
  /// matched alphabet `group` and steps gates and the main DFA from an
  /// already-classified base symbol (the sequencer's apply path, where
  /// classification happened shard-side at publish time).
  Result<bool> AdvanceClassified(ActiveTrigger* slot,
                                 const TriggerProgram& program,
                                 Transaction* txn, Object* obj, Oid oid,
                                 Posting* posting, int32_t base_sym,
                                 int group, bool undo_logged);

  /// Counts the firing (on `obj`, or on the class when `class_scope`),
  /// deactivates an ordinary trigger and runs the action (§2/§5).
  Status FireSlot(ActiveTrigger* slot, const TriggerProgram& program,
                  Transaction* txn, Object* obj, Oid oid,
                  const PostedEvent& event, bool class_scope,
                  ClassId class_id);

  /// One shared classification + table step for a whole trigger group
  /// (§5 footnote 5); returns the mask of members that occurred (after
  /// composite-mask gating).
  Result<uint64_t> AdvanceGroupSlot(GroupSlot* slot,
                                    const TriggerGroup& group,
                                    Transaction* txn, Object* obj,
                                    Posting* posting);

  /// Fires one group member: counts it on `obj`, disarms ordinary
  /// members, runs the action.
  Status FireGroupMember(GroupSlot* slot, const TriggerGroup& group,
                         size_t bit, Transaction* txn, Object* obj,
                         const PostedEvent& event,
                         const RegisteredClass* cls);

  Database* db_;
  static thread_local int depth_;
};

}  // namespace ode

#endif  // ODE_TRIGGER_TRIGGER_ENGINE_H_
