#include "trigger/trigger_def.h"

#include "common/strutil.h"

namespace ode {

Value ActionContext::Param(std::string_view name) const {
  if (trigger_params == nullptr) return Value();
  auto it = trigger_params->find(std::string(name));
  return it == trigger_params->end() ? Value() : it->second;
}

const PostedEvent* ActionContext::Witness(std::string_view method_name) const {
  if (witnesses == nullptr) return nullptr;
  // Prefer the `after` occurrence (it carries post-execution state); fall
  // back to `before`.
  const PostedEvent* found = nullptr;
  for (const std::shared_ptr<const PostedEvent>& event : *witnesses) {
    if (event == nullptr || event->kind != BasicEventKind::kMethod ||
        event->method_name != method_name) {
      continue;
    }
    if (event->qualifier == EventQualifier::kAfter) return event.get();
    found = event.get();
  }
  return found;
}

Value ActionContext::WitnessArg(std::string_view method_name,
                                std::string_view arg_name) const {
  const PostedEvent* w = Witness(method_name);
  if (w == nullptr) return Value();
  const Value* v = w->FindArg(arg_name);
  return v == nullptr ? Value() : *v;
}

ActionEffect ActionEffect::MakeMethod(std::string method, int arity,
                                      Target target, std::string class_name) {
  ActionEffect e;
  e.kind = Kind::kMethod;
  e.target = target;
  e.method = std::move(method);
  e.arity = arity;
  e.class_name = std::move(class_name);
  return e;
}

ActionEffect ActionEffect::MakeAbort() {
  ActionEffect e;
  e.kind = Kind::kAbort;
  return e;
}

std::string ActionEffect::ToString() const {
  if (kind == Kind::kAbort) return "aborts";
  std::string out = "posts " + method;
  if (arity >= 0) out += StrFormat("/%d", arity);
  switch (target) {
    case Target::kSelf:
      out += " on self";
      break;
    case Target::kSameClass:
      out += " on same-class";
      break;
    case Target::kClass:
      out += " on class " + class_name;
      break;
  }
  return out;
}

std::string ActionSignature::ToString() const {
  if (effects.empty()) return "none";
  std::string out;
  for (const ActionEffect& e : effects) {
    if (!out.empty()) out += ", ";
    out += e.ToString();
  }
  return out;
}

ActionRegistry::ActionRegistry() {
  // The paper's built-in abort action (trigger T1, §3.5).
  actions_.emplace("tabort", [](const ActionContext&) -> Status {
    return Status::Aborted("trigger requested transaction abort");
  });
  // Its effect is known exactly; a built-in signature does not flip
  // has_declared_signatures_ (cascade analysis stays opt-in).
  ActionSignature tabort_sig;
  tabort_sig.effects.push_back(ActionEffect::MakeAbort());
  signatures_.emplace("tabort", std::move(tabort_sig));
}

Status ActionRegistry::Register(std::string name, TriggerAction action) {
  auto [it, inserted] = actions_.emplace(std::move(name), std::move(action));
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("action '%s' already registered", it->first.c_str()));
  }
  return Status::OK();
}

Status ActionRegistry::Register(std::string name, TriggerAction action,
                                ActionSignature signature) {
  std::string key = name;
  Status s = Register(std::move(name), std::move(action));
  if (!s.ok()) return s;
  signatures_.emplace(std::move(key), std::move(signature));
  has_declared_signatures_ = true;
  return Status::OK();
}

const TriggerAction* ActionRegistry::Find(std::string_view name) const {
  auto it = actions_.find(name);
  return it == actions_.end() ? nullptr : &it->second;
}

const ActionSignature* ActionRegistry::FindSignature(
    std::string_view name) const {
  auto it = signatures_.find(name);
  return it == signatures_.end() ? nullptr : &it->second;
}

std::map<std::string, ActionSignature, std::less<>>
ActionRegistry::SignatureMap() const {
  return signatures_;
}

}  // namespace ode
