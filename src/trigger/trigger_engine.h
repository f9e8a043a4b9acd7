#ifndef ODE_TRIGGER_TRIGGER_ENGINE_H_
#define ODE_TRIGGER_TRIGGER_ENGINE_H_

#include <map>
#include <string>

#include "common/result.h"
#include "compile/dispatch.h"
#include "event/posted_event.h"
#include "ode/object.h"
#include "seq/seq_event.h"
#include "txn/transaction.h"

namespace ode {

class Database;

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

  /// Posts a basic event to `obj`, an object of class `cls` the caller
  /// has resolved. `event.event_id` is the caller's stamp when it set one
  /// (Database::Call stamps method events), else it is resolved here from
  /// the kind and qualifier or the time key; the engine also stamps the
  /// object, time, transaction and sequence number. Appends to the object's
  /// history (when recorded), advances every active trigger the posting
  /// can move (undo-logging committed-view states under `txn`), evaluates
  /// composite masks for accepting triggers, deactivates fired ordinary
  /// triggers, and executes actions.
  ///
  /// Returns the number of triggers fired. An action may delete `obj`, so
  /// after a nonzero return the caller must resolve it again. Returns
  /// kAborted when an action demands abort (the caller performs the
  /// rollback) and kResourceExhausted when trigger actions recursively
  /// post beyond the configured depth.
  Result<int> Post(Transaction* txn, Object* obj, const RegisteredClass& cls,
                   PostedEvent& event);

  /// Steps the class automata for one sequenced class-scope event from the
  /// classification its publisher computed (the sequencer's merge thread).
  /// A slot that accepts is counted, disarmed if ordinary and, when its
  /// trigger has an action, handed to `sink`. Opens no transaction, takes
  /// no lock and reads no object: class-scope activation admits no mask
  /// that would need one. Returns the number of firings.
  int ApplySequenced(const seq::SeqEvent& event, const seq::FiringSink& sink);

  /// Runs the action of a firing ApplySequenced decided, under `txn`, one
  /// posting level below the event that fired it.
  Status RunFiringAction(Transaction* txn, const seq::Firing& firing);

  /// Current recursive posting depth on the calling thread. Depth is
  /// thread-local: each shard worker's action cascade is its own call
  /// chain, so the §5 depth bound applies per thread.
  int depth() const { return depth_; }

 private:
  /// One posting and the single copy of it that witness capture shares
  /// between slots (defined in the .cc).
  class Posting;

  /// Maps the posting to its symbol in `alphabet`, given `group`, the
  /// alphabet group its event id falls into (-1, OTHER): evaluates that
  /// group's masks (§5). Alphabet::Classify is the reference this must
  /// agree with.
  Result<SymbolId> Classify(const Alphabet& alphabet, int group,
                            Transaction* txn, const Object* obj,
                            const PostedEvent& event,
                            const std::map<std::string, Value>& params);

  /// Classifies the event for one trigger slot, resolves gate bits, steps
  /// the automaton (undo-logging committed-view state changes when
  /// `undo_logged`), and reports whether the trigger's event occurred at
  /// this point (acceptance gated by composite masks).
  Result<bool> AdvanceSlot(ActiveTrigger* slot, const TriggerProgram& program,
                           int group, Transaction* txn, Object* obj,
                           Posting* posting, bool undo_logged);

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
                                    int alphabet_group, Transaction* txn,
                                    Object* obj, Posting* posting);

  /// Fires one group member: counts it on `obj`, disarms ordinary
  /// members, runs the action.
  Status FireGroupMember(GroupSlot* slot, const TriggerGroup& group,
                         size_t bit, Transaction* txn, Object* obj,
                         const PostedEvent& event,
                         const RegisteredClass* cls);

  /// Runs `program`'s action, if it names one, with `self` = `oid`.
  Status RunAction(const TriggerProgram& program, Transaction* txn, Oid oid,
                   const PostedEvent& event,
                   const std::map<std::string, Value>& params,
                   const WitnessArray& witnesses);

  Database* db_;
  static thread_local int depth_;
};

}  // namespace ode

#endif  // ODE_TRIGGER_TRIGGER_ENGINE_H_
