#ifndef ODE_TRIGGER_TRIGGER_DEF_H_
#define ODE_TRIGGER_TRIGGER_DEF_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "event/posted_event.h"

namespace ode {

class Database;

/// §9 argument capture for one activation: per alphabet group, the latest
/// occurrence that matched it (null until one has). A posting is copied at
/// most once; every slot that captures it shares that copy.
using WitnessArray = std::vector<std::shared_ptr<const PostedEvent>>;

/// Everything a trigger action can see when it runs: the firing event, the
/// object the trigger is attached to, the executing transaction (the
/// posting transaction for immediate firings, a system transaction for
/// post-commit/post-abort firings, §5), and the trigger's activation
/// parameters.
struct ActionContext {
  Database* db = nullptr;
  TxnId txn = 0;
  Oid self;
  std::string trigger_name;
  const PostedEvent* event = nullptr;  ///< The occurrence that fired it.
  const std::map<std::string, Value>* trigger_params = nullptr;
  /// §9 argument capture: latest occurrence of each referenced logical
  /// event, indexed by the trigger's alphabet group (null when capture is
  /// off).
  const WitnessArray* witnesses = nullptr;

  /// Parameter lookup; null Value if absent.
  Value Param(std::string_view name) const;

  /// The most recent constituent occurrence of the method event with the
  /// given name (either qualifier), or null. E.g. after
  /// `relative(after deposit, after withdraw)` fires, Witness("deposit")
  /// carries the deposit's arguments. The pointer is valid while the slot
  /// keeps that occurrence, i.e. until the action posts a newer one.
  const PostedEvent* Witness(std::string_view method_name) const;

  /// Convenience: a named argument of Witness(method_name); null Value if
  /// absent.
  Value WitnessArg(std::string_view method_name,
                   std::string_view arg_name) const;
};

/// A trigger action. Returning a non-OK status aborts the executing
/// transaction (the paper's `==> tabort` is the built-in action that always
/// does so).
using TriggerAction = std::function<Status(const ActionContext&)>;

/// One declared observable effect of a trigger action — an event the action
/// may (directly or through the methods it calls) cause to be posted. The
/// cascade analyzer (analyze/cascade.h) builds the triggering graph from
/// these declarations; the engine does not enforce them.
struct ActionEffect {
  enum class Kind : uint8_t {
    kMethod = 0,  ///< The action calls a public method (posting its
                  ///< before/after method + update/access events).
    kAbort,       ///< The action aborts the transaction (tabort markers).
  };
  /// Which objects the posted events land on. kSelf and kSameClass both
  /// mean "some object of the posting trigger's class" to the static
  /// analysis; the distinction is kept for documentation and rendering.
  enum class Target : uint8_t { kSelf = 0, kSameClass, kClass };

  Kind kind = Kind::kMethod;
  Target target = Target::kSelf;
  std::string method;      ///< Kind::kMethod: the called method's name.
  int arity = -1;          ///< Parameter count; -1 = unspecified.
  std::string class_name;  ///< Target::kClass: the targeted class.

  static ActionEffect MakeMethod(std::string method, int arity = -1,
                                 Target target = Target::kSelf,
                                 std::string class_name = {});
  static ActionEffect MakeAbort();

  /// Sidecar syntax, e.g. "posts restock/2 on class stockroom" or "aborts".
  std::string ToString() const;
};

/// The declared effect signature of a named action: the complete set of
/// events it may cause. An empty effect list declares the action *pure*
/// (posts nothing). Actions registered WITHOUT a signature are *opaque* to
/// cascade analysis, which must then assume they may post anything (T003).
struct ActionSignature {
  std::vector<ActionEffect> effects;

  std::string ToString() const;  ///< "none" or comma-joined effects.
};

/// Name → action mapping. A database owns one; `tabort` is pre-registered
/// (with its abort effect signature).
class ActionRegistry {
 public:
  ActionRegistry();

  Status Register(std::string name, TriggerAction action);
  /// Registers an action together with its declared effect signature.
  Status Register(std::string name, TriggerAction action,
                  ActionSignature signature);
  const TriggerAction* Find(std::string_view name) const;

  /// The declared signature, or null when the action is unregistered or
  /// was registered without one (opaque).
  const ActionSignature* FindSignature(std::string_view name) const;

  /// True when any action beyond the built-ins declared a signature — the
  /// opt-in the Database registration hook keys cascade analysis on.
  bool has_declared_signatures() const { return has_declared_signatures_; }

  /// Snapshot of every declared signature (built-ins included), keyed by
  /// action name — the cascade analyzer's effect map.
  std::map<std::string, ActionSignature, std::less<>> SignatureMap() const;

 private:
  std::map<std::string, TriggerAction, std::less<>> actions_;
  std::map<std::string, ActionSignature, std::less<>> signatures_;
  bool has_declared_signatures_ = false;
};

/// Per-(object, trigger) activation record. `state` is the §5 "one word
/// per active trigger per object"; for committed-view triggers it is
/// undo-logged with the object, for full-view triggers it is not.
struct ActiveTrigger {
  int trigger_idx = -1;  ///< Index into the class's TriggerProgram list.
  bool active = false;
  int32_t state = 0;
  /// One sub-automaton state per gated subevent (nested composite mask);
  /// empty for ordinary triggers.
  std::vector<int32_t> gate_states;
  std::map<std::string, Value> params;  ///< Bound at activation (§2).

  /// §9 "incorporation of arguments into composite event specification":
  /// the most recent occurrence of each logical event the trigger
  /// references, so the action can read the constituent events' parameters
  /// when the composite fires. One pointer per alphabet group, into the
  /// posting's shared copy. Monitoring metadata — not undo-logged.
  WitnessArray witnesses;
};

/// Per-(object, trigger group) activation record (§5 footnote 5): one
/// shared product-automaton state for all member triggers. `enabled` masks
/// out ordinary members that already fired; when it reaches zero the slot
/// deactivates. Group monitoring is full-history (not undo-logged) and
/// group members take no activation parameters.
struct GroupSlot {
  int group_idx = -1;
  bool active = false;
  int32_t state = 0;
  uint64_t enabled = 0;
  WitnessArray witnesses;  ///< Per group of the product alphabet.
};

}  // namespace ode

#endif  // ODE_TRIGGER_TRIGGER_DEF_H_
