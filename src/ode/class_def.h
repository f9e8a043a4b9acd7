#ifndef ODE_ODE_CLASS_DEF_H_
#define ODE_ODE_CLASS_DEF_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "compile/combined.h"
#include "compile/dispatch.h"
#include "compile/trigger_program.h"
#include "event/basic_event.h"

namespace ode {

class Database;

/// Identifier of a registered class.
using ClassId = uint32_t;

/// Read/update classification of a method: determines which object-state
/// events (§3.1 item 1) the engine posts around an invocation. A read-only
/// method posts before/after read and before/after access; an updater posts
/// before/after update and before/after access.
enum class MethodKind : uint8_t {
  kReadOnly = 0,
  kUpdate,
};

/// Execution context passed to method bodies and trigger actions.
class MethodContext {
 public:
  MethodContext(Database* db, TxnId txn, Oid self,
                std::vector<EventArg> args)
      : db_(db), txn_(txn), self_(self), args_(std::move(args)) {}

  Database* db() const { return db_; }
  TxnId txn() const { return txn_; }
  Oid self() const { return self_; }
  const std::vector<EventArg>& args() const { return args_; }

  /// Named argument lookup; error if absent.
  Result<Value> Arg(std::string_view name) const;

  /// Reads/writes an attribute of `self` through the transaction (locks
  /// and undo-logging apply).
  Result<Value> Get(std::string_view attr) const;
  Status Set(std::string_view attr, Value v);

  /// The method's return value (defaults to null).
  void SetResult(Value v) { result_ = std::move(v); }
  const Value& result() const { return result_; }

 private:
  Database* db_;
  TxnId txn_;
  Oid self_;
  std::vector<EventArg> args_;
  Value result_;
};

/// A method declaration: name, formal parameters, classification, body.
/// The body may be empty, in which case invoking the method only posts its
/// events (useful for modeling; several paper examples never show bodies).
struct MethodDef {
  using Body = std::function<Status(MethodContext*)>;

  std::string name;
  std::vector<ParamDecl> params;
  MethodKind kind = MethodKind::kUpdate;
  Body body;
};

/// An attribute declaration with its default value.
struct AttrDecl {
  std::string name;
  Value default_value;
};

/// Which event categories invocations post (§3.1). The paper defines both
/// method-execution events and object-state events; some specifications
/// (e.g. the §3.4 sequence example, where a transaction must cause *no
/// other events*) are written against state events only, so classes can
/// turn either category off.
struct EventPostingPolicy {
  bool method_events = true;       ///< before/after <method>.
  bool access_events = true;       ///< before/after access.
  bool read_update_events = true;  ///< before/after read / update.
};

/// A class definition: the O++ `class` with its trigger section (§2).
/// Trigger programs are compiled once per class and shared by all
/// instances — the §5 storage claim.
class ClassDef {
 public:
  explicit ClassDef(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  ClassDef& AddAttr(std::string attr_name, Value default_value);
  ClassDef& AddMethod(MethodDef method);
  ClassDef& SetPostingPolicy(EventPostingPolicy policy) {
    policy_ = policy;
    return *this;
  }

  /// Declares a trigger from DSL text, e.g.
  ///   "T2(Item i, int q): after withdraw(i, q) && q > 100 ==> log"
  /// The action name must be registered with the database (or be the
  /// built-in `tabort`). Compilation happens at class registration.
  /// `auto_activate` mirrors the paper's constructor-time activation
  /// (§3.5): the trigger is activated (with default-null parameters) when
  /// an instance is created.
  ClassDef& AddTrigger(std::string dsl_text,
                       HistoryView view = HistoryView::kFull,
                       bool auto_activate = false);

  /// Declares a pre-parsed trigger.
  ClassDef& AddTrigger(TriggerSpec spec,
                       HistoryView view = HistoryView::kFull,
                       bool auto_activate = false);

  const std::vector<AttrDecl>& attrs() const { return attrs_; }
  const std::vector<MethodDef>& methods() const { return methods_; }
  const EventPostingPolicy& policy() const { return policy_; }

  const MethodDef* FindMethod(std::string_view method_name) const;

  /// Declared-but-not-yet-compiled triggers (consumed at registration).
  struct PendingTrigger {
    std::string dsl_text;          // Either text...
    std::optional<TriggerSpec> spec;  // ...or a parsed spec.
    HistoryView view = HistoryView::kFull;
    bool auto_activate = false;
  };
  const std::vector<PendingTrigger>& pending_triggers() const {
    return pending_triggers_;
  }

 private:
  std::string name_;
  std::vector<AttrDecl> attrs_;
  std::vector<MethodDef> methods_;
  std::vector<PendingTrigger> pending_triggers_;
  EventPostingPolicy policy_;
};

/// A §5 footnote-5 trigger group: several of the class's triggers sharing
/// one product automaton (see compile/combined.h). Members are referenced
/// by their index in `triggers`.
struct TriggerGroup {
  std::string name;
  std::vector<int> member_idxs;
  CombinedProgram program;
  AutomatonDispatch dispatch;  ///< Over the class's event table.
};

/// A registered class: definition plus compiled trigger programs.
struct RegisteredClass {
  ClassId id = 0;
  ClassDef def{std::string()};
  std::vector<TriggerProgram> triggers;
  std::vector<bool> auto_activate;  ///< Parallel to `triggers`.
  std::vector<TriggerGroup> groups;

  /// The class's posting dispatch, compiled at registration: its events'
  /// ids and, per trigger, where each id goes (compile/dispatch.h).
  EventTable events;
  std::vector<AutomatonDispatch> dispatch;  ///< Parallel to `triggers`.

  /// Set once a class-scope trigger of the class is armed (or restored);
  /// until then a posting skips the class-slot lookup. A hint kept beside
  /// the compiled schema, hence mutable.
  mutable std::atomic<bool> class_scope_armed{false};

  const TriggerProgram* FindTrigger(std::string_view trigger_name) const;
  int TriggerIndex(std::string_view trigger_name) const;
  int GroupIndex(std::string_view group_name) const;
};

/// Name → class lookup for a database instance. Registered classes are
/// heap-allocated so RegisteredClass pointers stay valid across later
/// registrations (trigger actions may register classes mid-firing).
class ClassRegistry {
 public:
  /// Compiles the pending triggers and registers the class.
  Result<ClassId> Register(ClassDef def, const CompileOptions& options = {});

  const RegisteredClass* Find(std::string_view class_name) const;
  const RegisteredClass* FindById(ClassId id) const;
  /// Mutable lookup (used when defining trigger groups post-registration).
  RegisteredClass* FindMutable(std::string_view class_name);
  size_t size() const { return classes_.size(); }

 private:
  std::vector<std::unique_ptr<RegisteredClass>> classes_;
  std::map<std::string, ClassId, std::less<>> by_name_;
};

}  // namespace ode

#endif  // ODE_ODE_CLASS_DEF_H_
