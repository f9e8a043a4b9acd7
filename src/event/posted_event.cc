#include "event/posted_event.h"

#include "common/strutil.h"

namespace ode {

const Value* PostedEvent::FindArg(std::string_view name) const {
  for (const EventArg& a : args) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

bool PostedEvent::Matches(const BasicEvent& spec) const {
  if (spec.kind != kind) return false;
  if (spec.kind == BasicEventKind::kTime) {
    return spec.CanonicalKey() == time_key;
  }
  if (spec.qualifier != qualifier) return false;
  if (spec.kind == BasicEventKind::kMethod) {
    if (spec.method_name != method_name) return false;
    // A declared signature disambiguates overloads by arity (§3.1).
    if (!spec.params.empty() && spec.params.size() != args.size()) {
      return false;
    }
  }
  return true;
}

std::string PostedEvent::ToString() const {
  std::string out;
  if (kind == BasicEventKind::kTime) {
    out = time_key.empty() ? "time" : time_key;
  } else {
    out = std::string(EventQualifierName(qualifier));
    out += " ";
    if (kind == BasicEventKind::kMethod) {
      out += method_name;
      if (!args.empty()) {
        std::vector<std::string> parts;
        parts.reserve(args.size());
        for (const EventArg& a : args) {
          parts.push_back(a.name + "=" + a.value.ToString());
        }
        out += "(";
        out += Join(parts, ", ");
        out += ")";
      }
    } else {
      out += BasicEventKindName(kind);
    }
  }
  out += StrFormat(" [txn %llu @t=%lld]",
                   static_cast<unsigned long long>(txn),
                   static_cast<long long>(time));
  return out;
}

PostedEvent MakePosted(BasicEventKind kind, EventQualifier q, TxnId txn) {
  PostedEvent e;
  e.kind = kind;
  e.qualifier = q;
  e.txn = txn;
  return e;
}

PostedEvent MakePostedMethod(EventQualifier q, std::string method,
                             std::vector<EventArg> args, TxnId txn) {
  PostedEvent e;
  e.kind = BasicEventKind::kMethod;
  e.qualifier = q;
  e.method_name = std::move(method);
  e.args = std::move(args);
  e.txn = txn;
  return e;
}

}  // namespace ode
