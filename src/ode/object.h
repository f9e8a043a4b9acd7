#ifndef ODE_ODE_OBJECT_H_
#define ODE_ODE_OBJECT_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "ode/class_def.h"
#include "trigger/trigger_def.h"

namespace ode {

/// A persistent object: identity, class, attribute storage, and per-object
/// trigger activation state (§2, §5).
///
/// Attribute writes go through the transaction layer (Database::SetAttr),
/// which undo-logs old values. Trigger states of committed-view triggers
/// are likewise undo-logged; full-view trigger states are part of the
/// object only as storage — the transaction layer deliberately skips them
/// on abort (§6).
class Object {
 public:
  Object() = default;
  Object(Oid oid, ClassId class_id) : oid_(oid), class_id_(class_id) {}

  Oid oid() const { return oid_; }
  ClassId class_id() const { return class_id_; }

  const std::map<std::string, Value, std::less<>>& attrs() const {
    return attrs_;
  }
  Result<Value> GetAttr(std::string_view name) const;
  Status SetAttr(std::string_view name, Value v);
  bool HasAttr(std::string_view name) const {
    return attrs_.count(std::string(name)) > 0;
  }
  /// Direct (non-checked) attribute insertion, used at construction and by
  /// snapshot loading.
  void InitAttr(std::string name, Value v) {
    attrs_[std::move(name)] = std::move(v);
  }

  /// One slot per class trigger; slots are created lazily at activation.
  std::vector<ActiveTrigger>& trigger_slots() { return trigger_slots_; }
  const std::vector<ActiveTrigger>& trigger_slots() const {
    return trigger_slots_;
  }

  /// Finds (or creates) the slot for trigger index `idx`.
  ActiveTrigger& SlotFor(int idx);
  const ActiveTrigger* FindSlot(int idx) const;

  /// Trigger-group slots (§5 footnote 5), managed like trigger slots.
  std::vector<GroupSlot>& group_slots() { return group_slots_; }
  const std::vector<GroupSlot>& group_slots() const { return group_slots_; }
  GroupSlot& GroupSlotFor(int group_idx);
  const GroupSlot* FindGroupSlot(int group_idx) const;

  /// Assigns the next posting's 1-based sequence number, its position in
  /// the object's history (§3.4).
  uint64_t NextSeq() { return ++posted_; }

  /// Firings of the class trigger with index `idx` on this object, armed
  /// individually or as a trigger-group member. Like the sequence counter,
  /// monitoring metadata: neither undo-logged nor persisted.
  uint64_t fire_count(int idx) const {
    const size_t i = static_cast<size_t>(idx);
    return i < fired_.size() ? fired_[i] : 0;
  }
  void CountFire(int idx) {
    if (static_cast<size_t>(idx) >= fired_.size()) {
      fired_.resize(idx + 1, 0);
    }
    ++fired_[idx];
  }

  std::string ToString() const;

 private:
  Oid oid_;
  ClassId class_id_ = 0;
  std::map<std::string, Value, std::less<>> attrs_;
  std::vector<ActiveTrigger> trigger_slots_;
  std::vector<GroupSlot> group_slots_;
  uint64_t posted_ = 0;
  std::vector<uint64_t> fired_;  ///< By trigger index.
};

}  // namespace ode

#endif  // ODE_ODE_OBJECT_H_
