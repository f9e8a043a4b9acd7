#include "ode/class_def.h"

#include <algorithm>

#include "common/strutil.h"
#include "ode/database.h"

namespace ode {

Result<Value> MethodContext::Arg(std::string_view name) const {
  for (const EventArg& a : args_) {
    if (a.name == name) return a.value;
  }
  return Status::NotFound(
      StrFormat("no argument named '%s'", std::string(name).c_str()));
}

Result<Value> MethodContext::Get(std::string_view attr) const {
  return db_->GetAttr(txn_, self_, attr);
}

Status MethodContext::Set(std::string_view attr, Value v) {
  return db_->SetAttr(txn_, self_, attr, std::move(v));
}

ClassDef& ClassDef::AddAttr(std::string attr_name, Value default_value) {
  attrs_.push_back(AttrDecl{std::move(attr_name), std::move(default_value)});
  return *this;
}

ClassDef& ClassDef::AddMethod(MethodDef method) {
  methods_.push_back(std::move(method));
  return *this;
}

ClassDef& ClassDef::AddTrigger(std::string dsl_text, HistoryView view,
                               bool auto_activate) {
  PendingTrigger p;
  p.dsl_text = std::move(dsl_text);
  p.view = view;
  p.auto_activate = auto_activate;
  pending_triggers_.push_back(std::move(p));
  return *this;
}

ClassDef& ClassDef::AddTrigger(TriggerSpec spec, HistoryView view,
                               bool auto_activate) {
  PendingTrigger p;
  p.spec = std::move(spec);
  p.view = view;
  p.auto_activate = auto_activate;
  pending_triggers_.push_back(std::move(p));
  return *this;
}

const MethodDef* ClassDef::FindMethod(std::string_view method_name) const {
  for (const MethodDef& m : methods_) {
    if (m.name == method_name) return &m;
  }
  return nullptr;
}

const TriggerProgram* RegisteredClass::FindTrigger(
    std::string_view trigger_name) const {
  int idx = TriggerIndex(trigger_name);
  return idx < 0 ? nullptr : &triggers[idx];
}

int RegisteredClass::TriggerIndex(std::string_view trigger_name) const {
  for (size_t i = 0; i < triggers.size(); ++i) {
    if (triggers[i].spec.name == trigger_name) return static_cast<int>(i);
  }
  return -1;
}

int RegisteredClass::GroupIndex(std::string_view group_name) const {
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].name == group_name) return static_cast<int>(i);
  }
  return -1;
}

Result<ClassId> ClassRegistry::Register(ClassDef def,
                                        const CompileOptions& options) {
  if (by_name_.count(def.name()) > 0) {
    return Status::AlreadyExists(
        StrFormat("class '%s' already registered", def.name().c_str()));
  }

  auto reg_owner = std::make_unique<RegisteredClass>();
  RegisteredClass& reg = *reg_owner;
  reg.id = static_cast<ClassId>(classes_.size());
  reg.def = def;
  size_t unnamed = 0;
  for (const ClassDef::PendingTrigger& p : def.pending_triggers()) {
    TriggerSpec spec;
    if (p.spec.has_value()) {
      spec = *p.spec;
    } else {
      Result<TriggerSpec> parsed = ParseTriggerSpec(p.dsl_text);
      if (!parsed.ok()) {
        return Status(parsed.status().code(),
                      StrFormat("class '%s': %s", def.name().c_str(),
                                parsed.status().message().c_str()));
      }
      spec = std::move(*parsed);
    }
    if (spec.name.empty()) {
      spec.name = StrFormat("__trigger%zu", unnamed++);
    }
    if (reg.FindTrigger(spec.name) != nullptr) {
      return Status::AlreadyExists(
          StrFormat("class '%s': duplicate trigger '%s'", def.name().c_str(),
                    spec.name.c_str()));
    }
    Result<TriggerProgram> program = CompileTrigger(std::move(spec), p.view,
                                                    options);
    if (!program.ok()) return program.status();
    reg.triggers.push_back(std::move(*program));
    reg.auto_activate.push_back(p.auto_activate);
  }

  std::vector<EventTable::Method> methods;
  for (const MethodDef& m : def.methods()) {
    EventTable::Method& method = methods.emplace_back();
    method.name = m.name;
    for (const ParamDecl& p : m.params) method.arg_names.push_back(p.name);
  }
  std::vector<std::string> time_keys;
  for (const TriggerProgram& program : reg.triggers) {
    for (const BasicEvent& te : program.event.alphabet.TimeEvents()) {
      std::string key = te.CanonicalKey();
      if (std::find(time_keys.begin(), time_keys.end(), key) ==
          time_keys.end()) {
        time_keys.push_back(std::move(key));
      }
    }
  }
  reg.events = EventTable(std::move(methods), std::move(time_keys));
  for (const TriggerProgram& program : reg.triggers) {
    const Dfa& dfa = program.ActiveDfa();
    reg.dispatch.push_back(AutomatonDispatch::Build(
        program.event.alphabet, reg.events, dfa,
        !program.event.gates.empty(),
        [&](Dfa::State s) { return dfa.accepting(s); }));
  }

  ClassId id = reg.id;
  by_name_.emplace(def.name(), id);
  classes_.push_back(std::move(reg_owner));
  return id;
}

const RegisteredClass* ClassRegistry::Find(std::string_view class_name) const {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return nullptr;
  return classes_[it->second].get();
}

const RegisteredClass* ClassRegistry::FindById(ClassId id) const {
  if (id >= classes_.size()) return nullptr;
  return classes_[id].get();
}

RegisteredClass* ClassRegistry::FindMutable(std::string_view class_name) {
  auto it = by_name_.find(class_name);
  if (it == by_name_.end()) return nullptr;
  return classes_[it->second].get();
}

}  // namespace ode
