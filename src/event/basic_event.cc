#include "event/basic_event.h"

#include "common/strutil.h"

namespace ode {

std::string_view BasicEventKindName(BasicEventKind kind) {
  switch (kind) {
    case BasicEventKind::kCreate: return "create";
    case BasicEventKind::kDelete: return "delete";
    case BasicEventKind::kUpdate: return "update";
    case BasicEventKind::kRead: return "read";
    case BasicEventKind::kAccess: return "access";
    case BasicEventKind::kMethod: return "method";
    case BasicEventKind::kTbegin: return "tbegin";
    case BasicEventKind::kTcomplete: return "tcomplete";
    case BasicEventKind::kTcommit: return "tcommit";
    case BasicEventKind::kTabort: return "tabort";
    case BasicEventKind::kTime: return "time";
  }
  return "unknown";
}

std::string_view EventQualifierName(EventQualifier q) {
  switch (q) {
    case EventQualifier::kBefore: return "before";
    case EventQualifier::kAfter: return "after";
    case EventQualifier::kNone: return "";
  }
  return "";
}

std::string_view TimeEventModeName(TimeEventMode mode) {
  switch (mode) {
    case TimeEventMode::kAt: return "at";
    case TimeEventMode::kEvery: return "every";
    case TimeEventMode::kAfter: return "after";
  }
  return "";
}

bool IsLegalQualifier(BasicEventKind kind, EventQualifier q) {
  switch (kind) {
    case BasicEventKind::kCreate:
      return q == EventQualifier::kAfter;
    case BasicEventKind::kDelete:
      return q == EventQualifier::kBefore;
    case BasicEventKind::kUpdate:
    case BasicEventKind::kRead:
    case BasicEventKind::kAccess:
    case BasicEventKind::kMethod:
      return q == EventQualifier::kBefore || q == EventQualifier::kAfter;
    case BasicEventKind::kTbegin:
      return q == EventQualifier::kAfter;
    case BasicEventKind::kTcomplete:
      return q == EventQualifier::kBefore;
    case BasicEventKind::kTcommit:
      // "before tcommit" is explicitly disallowed: we cannot be sure a
      // transaction is going to commit until it actually does so (§3.1).
      return q == EventQualifier::kAfter;
    case BasicEventKind::kTabort:
      return q == EventQualifier::kBefore || q == EventQualifier::kAfter;
    case BasicEventKind::kTime:
      return q == EventQualifier::kNone;
  }
  return false;
}

BasicEvent BasicEvent::Make(BasicEventKind kind, EventQualifier q) {
  BasicEvent e;
  e.kind = kind;
  e.qualifier = q;
  return e;
}

BasicEvent BasicEvent::Method(EventQualifier q, std::string name,
                              std::vector<ParamDecl> params) {
  BasicEvent e;
  e.kind = BasicEventKind::kMethod;
  e.qualifier = q;
  e.method_name = std::move(name);
  e.params = std::move(params);
  return e;
}

BasicEvent BasicEvent::Time(TimeEventMode mode, TimeSpec spec) {
  BasicEvent e;
  e.kind = BasicEventKind::kTime;
  e.qualifier = EventQualifier::kNone;
  e.time_mode = mode;
  e.time_spec = spec;
  return e;
}

Status BasicEvent::Validate() const {
  if (!IsLegalQualifier(kind, qualifier)) {
    return Status::InvalidArgument(StrFormat(
        "illegal event '%s %s'",
        std::string(EventQualifierName(qualifier)).c_str(),
        std::string(BasicEventKindName(kind)).c_str()));
  }
  if (kind == BasicEventKind::kMethod && method_name.empty()) {
    return Status::InvalidArgument("method event requires a method name");
  }
  if (kind != BasicEventKind::kMethod &&
      (!method_name.empty() || !params.empty())) {
    return Status::InvalidArgument(
        "method name/params only legal on method events");
  }
  if (kind == BasicEventKind::kTime) {
    if (time_mode == TimeEventMode::kAt) {
      ODE_RETURN_IF_ERROR(time_spec.ValidateAsPattern());
    } else {
      ODE_RETURN_IF_ERROR(time_spec.AsPeriodMs().status());
    }
  }
  return Status::OK();
}

std::string BasicEvent::CanonicalKey() const {
  switch (kind) {
    case BasicEventKind::kMethod: {
      std::string key(EventQualifierName(qualifier));
      key += ":method:";
      key += method_name;
      if (!params.empty()) {
        key += StrFormat("/%zu", params.size());
      }
      return key;
    }
    case BasicEventKind::kTime: {
      std::string key(TimeEventModeName(time_mode));
      key += ":";
      key += time_spec.ToString();
      return key;
    }
    default: {
      std::string key(EventQualifierName(qualifier));
      key += ":";
      key += BasicEventKindName(kind);
      return key;
    }
  }
}

std::string BasicEvent::ToString() const {
  switch (kind) {
    case BasicEventKind::kMethod: {
      std::string out(EventQualifierName(qualifier));
      out += " ";
      out += method_name;
      if (!params.empty()) {
        std::vector<std::string> decls;
        decls.reserve(params.size());
        for (const ParamDecl& p : params) {
          decls.push_back(p.type_name + " " + p.name);
        }
        out += "(";
        out += Join(decls, ", ");
        out += ")";
      }
      return out;
    }
    case BasicEventKind::kTime: {
      std::string out(TimeEventModeName(time_mode));
      out += " ";
      out += time_spec.ToString();
      return out;
    }
    default: {
      std::string out(EventQualifierName(qualifier));
      out += " ";
      out += BasicEventKindName(kind);
      return out;
    }
  }
}

bool BasicEvent::operator==(const BasicEvent& other) const {
  return CanonicalKey() == other.CanonicalKey();
}

}  // namespace ode
