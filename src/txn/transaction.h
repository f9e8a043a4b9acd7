#ifndef ODE_TXN_TRANSACTION_H_
#define ODE_TXN_TRANSACTION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "event/posted_event.h"
#include "ode/object.h"

namespace ode {

enum class TxnState : uint8_t { kActive = 0, kCommitted, kAborted };

std::string_view TxnStateName(TxnState state);

/// One reversible effect of a transaction. Applied in reverse order on
/// abort (Database::Abort), giving the paper's atomicity: "either the
/// transaction commits and all its effects are reflected in the database or
/// it aborted and none of its effects are in the database" (§6).
struct UndoEntry {
  enum class Kind : uint8_t {
    kAttr,          ///< Restore attrs[attr] = old_value.
    kTriggerState,  ///< Restore a committed-view trigger's automaton state.
    kTriggerActive, ///< Restore a trigger slot's active flag.
    kCreate,        ///< Remove the created object.
    kDelete,        ///< Re-insert the deleted object (full snapshot).
  };

  Kind kind = Kind::kAttr;
  bool old_active = false;     // kTriggerActive.
  int trigger_idx = -1;        // kTriggerState / kTriggerActive.
  int32_t old_state = 0;       // kTriggerState.
  Oid oid;
  std::string attr;            // kAttr.
  Value old_value;             // kAttr.
  std::vector<int32_t> old_gate_states;  // kTriggerState.
  /// kDelete. Behind a pointer: a whole object would triple the size of
  /// every other entry.
  std::unique_ptr<Object> deleted_object;
};

/// Bookkeeping for one transaction. Lifecycle (begin / tcomplete fixpoint /
/// commit / abort) is orchestrated by Database; this is the record.
///
/// Thread model: every field is owned by the thread running the transaction,
/// except `state_`, which other threads read when checking commit
/// dependencies — hence the atomic.
class Transaction {
 public:
  Transaction(TxnId id, bool is_system) : id_(id), system_(is_system) {}

  TxnId id() const { return id_; }
  bool is_system() const { return system_; }
  TxnState state() const { return state_.load(std::memory_order_acquire); }
  void set_state(TxnState s) { state_.store(s, std::memory_order_release); }

  /// Set while the abort sequence runs: `before tabort` actions still see
  /// an active transaction (their writes are undo-logged and then rolled
  /// back), but nested abort requests become no-ops.
  bool aborting() const { return aborting_; }
  void set_aborting(bool v) { aborting_ = v; }

  /// Objects accessed by this transaction in first-access order — the set
  /// to which transaction events are posted (§3.1: "events of interest to
  /// exactly the set of objects accessed by the transaction").
  const std::vector<Oid>& accessed() const { return accessed_; }
  /// Returns true on the first access (the caller then posts
  /// `after tbegin` to the object, §3.1).
  bool RecordAccess(Oid oid);

  /// Appends an undo entry of `kind` for `oid`, built in place; the caller
  /// fills in the fields its kind uses.
  UndoEntry& PushUndo(UndoEntry::Kind kind, Oid oid) {
    UndoEntry& entry = undo_log_.emplace_back();
    entry.kind = kind;
    entry.oid = oid;
    return entry;
  }
  const std::vector<UndoEntry>& undo_log() const { return undo_log_; }
  std::vector<UndoEntry> TakeUndoLog() { return std::move(undo_log_); }

  /// Called on commit: frees the undo log and the access set, which a
  /// committed transaction never reads again, and hands back the accessed
  /// objects in first-access order for the `after tcommit` epilogue.
  std::vector<Oid> ReleaseForCommit();

  /// Commit dependencies (§7 "separate dependent" coupling): this
  /// transaction may not commit until every listed transaction has
  /// committed; if any of them aborts, this one must abort too.
  void AddCommitDependency(TxnId other) { commit_deps_.insert(other); }
  const std::set<TxnId>& commit_deps() const { return commit_deps_; }

 private:
  TxnId id_;
  bool system_;
  std::atomic<TxnState> state_{TxnState::kActive};
  bool aborting_ = false;
  std::vector<Oid> accessed_;
  std::set<Oid> accessed_set_;
  std::vector<UndoEntry> undo_log_;
  std::set<TxnId> commit_deps_;
};

/// Allocates transaction ids and stores live/finished transactions.
///
/// Thread-safe: shard workers begin/commit transactions concurrently. The
/// mutex guards id allocation and the `live_` map structure; returned
/// Transaction pointers stay valid (std::map nodes are stable) and are
/// owned by the beginning thread until GarbageCollect.
class TxnManager {
 public:
  Transaction* Begin(bool is_system = false);
  Transaction* Get(TxnId id);
  const Transaction* Get(TxnId id) const;

  /// Fails unless the transaction exists and is active.
  Result<Transaction*> GetActive(TxnId id);

  size_t num_begun() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_ - 1;
  }
  size_t num_committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  size_t num_aborted() const {
    return aborted_.load(std::memory_order_relaxed);
  }
  void CountCommit() { committed_.fetch_add(1, std::memory_order_relaxed); }
  void CountAbort() { aborted_.fetch_add(1, std::memory_order_relaxed); }

  /// Drops finished transactions' records (tests keep them around for
  /// inspection; long benches call this to bound memory). A finished
  /// transaction that an active one still lists as a commit dependency is
  /// kept: that transaction's commit reads its outcome (§7). Callers must
  /// not hold pointers to finished transactions across this call.
  void GarbageCollect();

 private:
  mutable std::mutex mu_;
  TxnId next_ = 1;
  std::map<TxnId, Transaction> live_;
  std::atomic<size_t> committed_{0};
  std::atomic<size_t> aborted_{0};
};

}  // namespace ode

#endif  // ODE_TXN_TRANSACTION_H_
