#include "txn/transaction.h"

#include "common/strutil.h"

namespace ode {

std::string_view TxnStateName(TxnState state) {
  switch (state) {
    case TxnState::kActive: return "active";
    case TxnState::kCommitted: return "committed";
    case TxnState::kAborted: return "aborted";
  }
  return "?";
}

bool Transaction::RecordAccess(Oid oid) {
  if (!accessed_set_.insert(oid).second) return false;
  accessed_.push_back(oid);
  return true;
}

std::vector<Oid> Transaction::ReleaseForCommit() {
  undo_log_ = std::vector<UndoEntry>();
  accessed_set_.clear();
  std::vector<Oid> accessed;
  accessed.swap(accessed_);
  return accessed;
}

Transaction* TxnManager::Begin(bool is_system) {
  std::lock_guard<std::mutex> lock(mu_);
  TxnId id = next_++;
  auto [it, inserted] = live_.try_emplace(id, id, is_system);
  return &it->second;
}

Transaction* TxnManager::Get(TxnId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : &it->second;
}

const Transaction* TxnManager::Get(TxnId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : &it->second;
}

Result<Transaction*> TxnManager::GetActive(TxnId id) {
  Transaction* txn = Get(id);
  if (txn == nullptr) {
    return Status::NotFound(
        StrFormat("unknown transaction %llu",
                  static_cast<unsigned long long>(id)));
  }
  if (txn->state() != TxnState::kActive) {
    return Status::FailedPrecondition(
        StrFormat("transaction %llu is %s",
                  static_cast<unsigned long long>(id),
                  std::string(TxnStateName(txn->state())).c_str()));
  }
  return txn;
}

void TxnManager::GarbageCollect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<TxnId> depended_on;
  for (const auto& [id, txn] : live_) {
    if (txn.state() != TxnState::kActive) continue;
    depended_on.insert(txn.commit_deps().begin(), txn.commit_deps().end());
  }
  for (auto it = live_.begin(); it != live_.end();) {
    if (it->second.state() != TxnState::kActive &&
        depended_on.count(it->first) == 0) {
      it = live_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ode
