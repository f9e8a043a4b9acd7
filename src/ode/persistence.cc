#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/file_io.h"
#include "common/strutil.h"
#include "ode/database.h"
#include "ode/snapshot_codec.h"

// Snapshot persistence (§2: "Persistent objects ... continue to exist after
// the program creating them has terminated").
//
// The format is line-oriented text with a trailing FNV-1a checksum. Note
// what is *not* saved: event histories. Per §5, the automaton state integers
// stored with each activation carry everything monitoring needs — snapshot
// size is independent of how many events the objects have seen.

namespace ode {

std::string EncodeSnapshotValue(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInt:
      return StrFormat("int:%lld",
                       static_cast<long long>(v.AsInt().value()));
    case ValueKind::kDouble:
      return StrFormat("dbl:%.17g", v.AsDouble().value());
    case ValueKind::kBool:
      return v.AsBool().value() ? "bool:1" : "bool:0";
    case ValueKind::kString: {
      std::string out = "str:";
      // Materialize: iterating the temporary Result's reference directly
      // would dangle (the temporary dies before the loop body runs).
      const std::string payload = v.AsString().value();
      for (char c : payload) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\\': out += "\\\\"; break;
          default: out += c;
        }
      }
      return out;
    }
    case ValueKind::kOid:
      return StrFormat("oid:%llu", static_cast<unsigned long long>(
                                       v.AsOid().value().id));
  }
  return "null";
}

Result<Value> DecodeSnapshotValue(std::string_view s) {
  if (s == "null") return Value();
  auto colon = s.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("bad value encoding");
  }
  std::string_view tag = s.substr(0, colon);
  std::string_view payload = s.substr(colon + 1);
  int64_t n = 0;
  double d = 0;
  uint64_t id = 0;
  if (tag == "int" && ParseNumber(payload, &n)) return Value(n);
  if (tag == "dbl" && ParseNumber(payload, &d)) return Value(d);
  if (tag == "bool" && (payload == "0" || payload == "1")) {
    return Value(payload == "1");
  }
  if (tag == "oid" && ParseNumber(payload, &id)) return Value(Oid{id});
  if (tag == "str") {
    std::string out;
    out.reserve(payload.size());
    for (size_t i = 0; i < payload.size(); ++i) {
      if (payload[i] == '\\' && i + 1 < payload.size()) {
        ++i;
        out += payload[i] == 'n' ? '\n' : payload[i];
      } else {
        out += payload[i];
      }
    }
    return Value(std::move(out));
  }
  return Status::InvalidArgument(
      StrFormat("bad value encoding '%.*s'",
                static_cast<int>(std::min<size_t>(s.size(), 64)), s.data()));
}

namespace {

std::string EncodeSpecField(const std::optional<int>& f) {
  return f.has_value() ? StrFormat("%d", *f) : "*";
}

bool DecodeSpecField(std::string_view s, std::optional<int>* out) {
  int v = 0;
  if (s == "*") {
    *out = std::nullopt;
  } else if (ParseNumber(s, &v)) {
    *out = v;
  } else {
    return false;
  }
  return true;
}

}  // namespace

Result<std::string> Database::SaveSnapshotText() const {
  std::string body;
  body += "ODE-SNAPSHOT v1\n";
  body += StrFormat("clock %lld\n", static_cast<long long>(clock_.now()));
  body += StrFormat("next_oid %llu\n",
                    static_cast<unsigned long long>(next_oid_));

  for (const auto& [oid, obj] : objects_) {
    const RegisteredClass* cls = classes_.FindById(obj.class_id());
    if (cls == nullptr) {
      return Status::Internal("object with unknown class during snapshot");
    }
    body += StrFormat("object %llu %s\n",
                      static_cast<unsigned long long>(oid.id),
                      cls->def.name().c_str());
    for (const auto& [name, value] : obj.attrs()) {
      body += StrFormat("attr %s %s\n", name.c_str(),
                        EncodeSnapshotValue(value).c_str());
    }
    for (const GroupSlot& slot : obj.group_slots()) {
      body += StrFormat("group %d %d %d %llu\n", slot.group_idx,
                        slot.active ? 1 : 0, slot.state,
                        static_cast<unsigned long long>(slot.enabled));
    }
    for (const ActiveTrigger& slot : obj.trigger_slots()) {
      body += StrFormat("trigger %d %d %d", slot.trigger_idx,
                        slot.active ? 1 : 0, slot.state);
      for (int32_t gs : slot.gate_states) {
        body += StrFormat(" %d", gs);
      }
      body += "\n";
      for (const auto& [pname, pvalue] : slot.params) {
        body += StrFormat("param %s %s\n", pname.c_str(),
                          EncodeSnapshotValue(pvalue).c_str());
      }
    }
    body += "end\n";
  }

  // Class-scope slot states (§9), keyed by class name like instance slots
  // are keyed by trigger index: re-registering the same classes before
  // loading restores the activation flags and automaton states exactly.
  // Witnesses are monitoring metadata and are not persisted.
  for (const auto& [class_id, slots] : class_slots_) {
    const RegisteredClass* cls = classes_.FindById(class_id);
    if (cls == nullptr) {
      return Status::Internal("class slots with unknown class during snapshot");
    }
    for (const ActiveTrigger& slot : slots) {
      body += StrFormat("classtrigger %s %d %d %d", cls->def.name().c_str(),
                        slot.trigger_idx, slot.active ? 1 : 0, slot.state);
      for (int32_t gs : slot.gate_states) {
        body += StrFormat(" %d", gs);
      }
      body += "\n";
      for (const auto& [pname, pvalue] : slot.params) {
        body += StrFormat("classparam %s %s\n", pname.c_str(),
                          EncodeSnapshotValue(pvalue).c_str());
      }
    }
  }

  for (const VirtualClock::TimerState& t : clock_.ExportTimers()) {
    body += StrFormat(
        "timer %llu %d %lld %d %s %s %s %s %s %s %s\n",
        static_cast<unsigned long long>(t.object.id),
        static_cast<int>(t.mode), static_cast<long long>(t.next_fire),
        t.refcount, EncodeSpecField(t.spec.year).c_str(),
        EncodeSpecField(t.spec.month).c_str(),
        EncodeSpecField(t.spec.day).c_str(),
        EncodeSpecField(t.spec.hour).c_str(),
        EncodeSpecField(t.spec.minute).c_str(),
        EncodeSpecField(t.spec.second).c_str(),
        EncodeSpecField(t.spec.ms).c_str());
  }

  return body;
}

Status Database::SaveSnapshot(const std::string& path) const {
  ODE_ASSIGN_OR_RETURN(std::string body, SaveSnapshotText());
  body += StrFormat("checksum %llu\n",
                    static_cast<unsigned long long>(Fnv1a64(body)));
  return WriteFileAtomically(path, body, path + ".tmp");
}

Status Database::LoadSnapshot(const std::string& path) {
  ODE_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));

  // Verify the checksum covers everything before the checksum line.
  size_t checksum_pos = content.rfind("checksum ");
  if (checksum_pos == std::string::npos) {
    return Status::InvalidArgument("snapshot missing checksum");
  }
  std::string_view declared_text =
      StripWhitespace(std::string_view(content).substr(checksum_pos + 9));
  uint64_t declared = 0;
  if (!ParseNumber(declared_text, &declared)) {
    return Status::InvalidArgument("snapshot checksum line is malformed");
  }
  uint64_t actual = Fnv1a64(std::string_view(content).substr(0, checksum_pos));
  if (declared != actual) {
    return Status::InvalidArgument("snapshot checksum mismatch (corrupt?)");
  }

  return LoadSnapshotText(
      std::string_view(content).substr(0, checksum_pos));
}

Status Database::LoadSnapshotText(std::string_view body) {
  std::istringstream lines{std::string(body)};
  std::string line;
  if (!std::getline(lines, line) || line != "ODE-SNAPSHOT v1") {
    return Status::InvalidArgument("not an ODE snapshot (bad magic)");
  }

  std::map<Oid, Object> objects;
  std::map<ClassId, std::vector<ActiveTrigger>> class_slots;
  std::vector<VirtualClock::TimerState> timers;
  TimeMs clock_now = 0;
  uint64_t next_oid = 1;
  Object* current = nullptr;
  ActiveTrigger* current_slot = nullptr;
  ActiveTrigger* current_class_slot = nullptr;

  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "clock") {
      long long t;
      ls >> t;
      clock_now = t;
    } else if (tag == "next_oid") {
      ls >> next_oid;
    } else if (tag == "object") {
      unsigned long long id;
      std::string class_name;
      ls >> id >> class_name;
      const RegisteredClass* cls = classes_.Find(class_name);
      if (cls == nullptr) {
        return Status::FailedPrecondition(StrFormat(
            "snapshot references class '%s'; register it before loading",
            class_name.c_str()));
      }
      Oid oid{id};
      auto [it, inserted] = objects.emplace(oid, Object(oid, cls->id));
      current = &it->second;
      current_slot = nullptr;
    } else if (tag == "attr") {
      if (current == nullptr) return Status::InvalidArgument("orphan attr");
      std::string name, encoded;
      ls >> name;
      std::getline(ls, encoded);
      Result<Value> v = DecodeSnapshotValue(StripWhitespace(encoded));
      if (!v.ok()) return v.status();
      current->InitAttr(name, std::move(*v));
    } else if (tag == "trigger") {
      if (current == nullptr) {
        return Status::InvalidArgument("orphan trigger");
      }
      int idx, active, state;
      ls >> idx >> active >> state;
      ActiveTrigger& slot = current->SlotFor(idx);
      slot.active = active != 0;
      slot.state = state;
      slot.gate_states.clear();
      int gs;
      while (ls >> gs) slot.gate_states.push_back(gs);
      current_slot = &slot;
    } else if (tag == "param") {
      if (current_slot == nullptr) {
        return Status::InvalidArgument("orphan param");
      }
      std::string name, encoded;
      ls >> name;
      std::getline(ls, encoded);
      Result<Value> v = DecodeSnapshotValue(StripWhitespace(encoded));
      if (!v.ok()) return v.status();
      current_slot->params[name] = std::move(*v);
    } else if (tag == "classtrigger") {
      std::string class_name;
      int idx, active, state;
      ls >> class_name >> idx >> active >> state;
      const RegisteredClass* cls = classes_.Find(class_name);
      if (cls == nullptr) {
        return Status::FailedPrecondition(StrFormat(
            "snapshot references class '%s'; register it before loading",
            class_name.c_str()));
      }
      std::vector<ActiveTrigger>& slots = class_slots[cls->id];
      ActiveTrigger* slot = nullptr;
      for (ActiveTrigger& s : slots) {
        if (s.trigger_idx == idx) slot = &s;
      }
      if (slot == nullptr) {
        slots.emplace_back();
        slot = &slots.back();
        slot->trigger_idx = idx;
      }
      slot->active = active != 0;
      slot->state = state;
      slot->gate_states.clear();
      int gs;
      while (ls >> gs) slot->gate_states.push_back(gs);
      current_class_slot = slot;
    } else if (tag == "classparam") {
      if (current_class_slot == nullptr) {
        return Status::InvalidArgument("orphan classparam");
      }
      std::string name, encoded;
      ls >> name;
      std::getline(ls, encoded);
      Result<Value> v = DecodeSnapshotValue(StripWhitespace(encoded));
      if (!v.ok()) return v.status();
      current_class_slot->params[name] = std::move(*v);
    } else if (tag == "group") {
      if (current == nullptr) {
        return Status::InvalidArgument("orphan group");
      }
      int idx, active, state;
      unsigned long long enabled;
      ls >> idx >> active >> state >> enabled;
      GroupSlot& slot = current->GroupSlotFor(idx);
      slot.active = active != 0;
      slot.state = state;
      slot.enabled = enabled;
    } else if (tag == "end") {
      current = nullptr;
      current_slot = nullptr;
    } else if (tag == "timer") {
      unsigned long long id;
      int mode, refcount;
      long long next_fire;
      std::string yr, mon, day, hr, min, sec, ms;
      ls >> id >> mode >> next_fire >> refcount >> yr >> mon >> day >> hr >>
          min >> sec >> ms;
      VirtualClock::TimerState t;
      t.object = Oid{id};
      t.mode = static_cast<TimeEventMode>(mode);
      t.next_fire = next_fire;
      t.refcount = refcount;
      if (!DecodeSpecField(yr, &t.spec.year) ||
          !DecodeSpecField(mon, &t.spec.month) ||
          !DecodeSpecField(day, &t.spec.day) ||
          !DecodeSpecField(hr, &t.spec.hour) ||
          !DecodeSpecField(min, &t.spec.minute) ||
          !DecodeSpecField(sec, &t.spec.second) ||
          !DecodeSpecField(ms, &t.spec.ms)) {
        return Status::InvalidArgument(
            StrFormat("bad timer spec in snapshot line '%s'", line.c_str()));
      }
      timers.push_back(std::move(t));
    } else if (!tag.empty()) {
      return Status::InvalidArgument(
          StrFormat("unknown snapshot line tag '%s'", tag.c_str()));
    }
  }

  // Persistence requires a quiesced database (no concurrent ingestion);
  // the locks here only keep lock-order discipline consistent.
  {
    std::unique_lock<std::shared_mutex> lock(objects_mu_);
    objects_ = std::move(objects);
    next_oid_ = next_oid;
  }
  {
    std::unique_lock<std::shared_mutex> lock(aux_mu_);
    histories_.clear();
    class_fire_counts_.clear();
    // The snapshot's class-scope slots are authoritative, like objects_:
    // slots activated since (or not captured) are replaced. The publish
    // bitmasks are rebuilt to match.
    class_slots_ = std::move(class_slots);
    class_active_masks_.clear();
    for (const auto& [class_id, slots] : class_slots_) {
      uint64_t mask = 0;
      for (size_t i = 0; i < slots.size() && i < 64; ++i) {
        if (slots[i].active) mask |= uint64_t{1} << i;
      }
      class_active_masks_[class_id].store(mask, std::memory_order_release);
      if (const RegisteredClass* cls = classes_.FindById(class_id)) {
        cls->class_scope_armed.store(true, std::memory_order_release);
      }
    }
  }
  ODE_RETURN_IF_ERROR(clock_.ImportTimers(std::move(timers), clock_now));
  return Status::OK();
}

}  // namespace ode
