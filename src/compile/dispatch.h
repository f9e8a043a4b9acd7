#ifndef ODE_COMPILE_DISPATCH_H_
#define ODE_COMPILE_DISPATCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "automaton/dfa.h"
#include "compile/alphabet.h"
#include "event/posted_event.h"

namespace ode {

/// The basic events one class can post (§3.1), interned to dense ids when
/// the class registers. Every posting carries its id
/// (PostedEvent::event_id), so detection indexes tables with it instead of
/// matching names:
///
///   - one id per (kind, qualifier) of the object-state and transaction
///     kinds;
///   - one id per declared method × qualifier, so overloads of one name
///     with different arities stay apart;
///   - one id per time event some trigger of the class names, found by
///     its canonical key;
///   - one last id for an event no trigger of the class can match.
class EventTable {
 public:
  /// A declared method: its name and the names of its arguments, in order
  /// (a posting names its arguments after the declaration).
  struct Method {
    std::string name;
    std::vector<std::string> arg_names;
  };

  EventTable() = default;
  EventTable(std::vector<Method> methods, std::vector<std::string> time_keys);

  size_t size() const {
    return method_base() + 2 * methods_.size() + time_keys_.size() + 1;
  }
  EventId unmatched() const { return static_cast<EventId>(size() - 1); }

  EventId KindId(BasicEventKind kind, EventQualifier q) const {
    return static_cast<EventId>(2 * static_cast<size_t>(kind) +
                                (q == EventQualifier::kAfter ? 1 : 0));
  }
  EventId MethodId(size_t method_idx, EventQualifier q) const {
    return static_cast<EventId>(method_base() + 2 * method_idx +
                                (q == EventQualifier::kAfter ? 1 : 0));
  }
  /// The id of the time event with canonical key `key`; unmatched() when
  /// no trigger of the class names it.
  EventId TimeId(std::string_view key) const;

  /// The id of an unstamped posting of an object-state or transaction
  /// kind, by kind and qualifier, or of a time event, by its key. Method
  /// events arrive stamped (MethodId); an unstamped one is unmatched().
  EventId Resolve(const PostedEvent& event) const;

  /// A posting of event `id` (below unmatched()) as the class would post
  /// it: kind, qualifier, method name with named arguments of the declared
  /// arity (null values), or time key. The dispatch asks the reference
  /// classifier about it.
  PostedEvent Representative(EventId id) const;

 private:
  static constexpr size_t kNumKinds =
      static_cast<size_t>(BasicEventKind::kTime) + 1;
  static size_t method_base() { return 2 * kNumKinds; }

  std::vector<Method> methods_;
  std::vector<std::string> time_keys_;
  std::map<std::string, EventId, std::less<>> time_ids_;
};

/// The posting dispatch of one automaton (a trigger program or a trigger
/// group) over its class's event table, compiled when the class registers
/// or the group is defined.
class AutomatonDispatch {
 public:
  AutomatonDispatch() = default;

  /// `accepts(s)`: whether state `s` reports an occurrence. `gated`: the
  /// program steps gate sub-automata on every posting.
  template <typename AcceptsFn>
  static AutomatonDispatch Build(const Alphabet& alphabet,
                                 const EventTable& events, const Dfa& dfa,
                                 bool gated, AcceptsFn accepts) {
    AutomatonDispatch out = Groups(alphabet, events);
    const SymbolId other = alphabet.other_symbol();
    out.other_noop_.assign(dfa.num_states(), false);
    if (gated || static_cast<size_t>(other) >= dfa.alphabet_size()) {
      return out;
    }
    for (size_t s = 0; s < dfa.num_states(); ++s) {
      const Dfa::State state = static_cast<Dfa::State>(s);
      out.other_noop_[s] = !accepts(state) && dfa.Step(state, other) == state;
    }
    return out;
  }

  /// The alphabet group event `id` falls into, or -1 (OTHER) when none.
  int32_t group(EventId id) const { return groups_[id]; }

  /// True when an OTHER posting in state `s` changes nothing: the step
  /// stays in `s`, `s` reports no occurrence, and no gate steps. A slot
  /// there skips every posting its alphabet does not name.
  bool OtherNoop(int32_t s) const {
    return static_cast<size_t>(s) < other_noop_.size() && other_noop_[s];
  }

 private:
  static AutomatonDispatch Groups(const Alphabet& alphabet,
                                  const EventTable& events);

  std::vector<int32_t> groups_;   ///< By event id.
  std::vector<bool> other_noop_;  ///< By DFA state.
};

}  // namespace ode

#endif  // ODE_COMPILE_DISPATCH_H_
