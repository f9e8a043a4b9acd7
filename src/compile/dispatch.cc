#include "compile/dispatch.h"

namespace ode {

EventTable::EventTable(std::vector<Method> methods,
                       std::vector<std::string> time_keys)
    : methods_(std::move(methods)), time_keys_(std::move(time_keys)) {
  const size_t time_base = method_base() + 2 * methods_.size();
  for (size_t i = 0; i < time_keys_.size(); ++i) {
    time_ids_.emplace(time_keys_[i], static_cast<EventId>(time_base + i));
  }
}

EventId EventTable::TimeId(std::string_view key) const {
  auto it = time_ids_.find(key);
  return it == time_ids_.end() ? unmatched() : it->second;
}

EventId EventTable::Resolve(const PostedEvent& event) const {
  switch (event.kind) {
    case BasicEventKind::kTime:
      return TimeId(event.time_key);
    case BasicEventKind::kMethod:
      // The poster knows which declared method ran and stamps MethodId.
      return unmatched();
    default:
      return KindId(event.kind, event.qualifier);
  }
}

PostedEvent EventTable::Representative(EventId id) const {
  const size_t i = static_cast<size_t>(id);
  const size_t time_base = method_base() + 2 * methods_.size();
  PostedEvent event;
  if (i < method_base()) {
    event.kind = static_cast<BasicEventKind>(i / 2);
    event.qualifier = i % 2 ? EventQualifier::kAfter : EventQualifier::kBefore;
  } else if (i < time_base) {
    const Method& method = methods_[(i - method_base()) / 2];
    event.kind = BasicEventKind::kMethod;
    event.qualifier = (i - method_base()) % 2 ? EventQualifier::kAfter
                                              : EventQualifier::kBefore;
    event.method_name = method.name;
    for (const std::string& name : method.arg_names) {
      event.args.push_back(EventArg{name, Value()});
    }
  } else {
    event.kind = BasicEventKind::kTime;
    event.qualifier = EventQualifier::kNone;
    event.time_key = time_keys_[i - time_base];
  }
  return event;
}

AutomatonDispatch AutomatonDispatch::Groups(const Alphabet& alphabet,
                                            const EventTable& events) {
  AutomatonDispatch out;
  out.groups_.assign(events.size(), -1);  // unmatched() goes to OTHER.
  for (size_t id = 0; id + 1 < events.size(); ++id) {
    out.groups_[id] =
        alphabet.GroupOf(events.Representative(static_cast<EventId>(id)));
  }
  return out;
}

}  // namespace ode
