#ifndef ODE_EVENT_POSTED_EVENT_H_
#define ODE_EVENT_POSTED_EVENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "event/basic_event.h"
#include "event/time_spec.h"

namespace ode {

/// Identifier of a transaction. 0 means "no transaction / system".
using TxnId = uint64_t;

/// Dense id of a basic event within the class it is posted to, interned
/// when the class registers (compile/dispatch.h). -1: not stamped.
using EventId = int32_t;

/// A named actual argument carried by a posted event (method parameters,
/// available to masks, §3.2).
struct EventArg {
  std::string name;
  Value value;
};

/// A *posted* (occurred) basic event: one entry in an object's history.
///
/// Where a BasicEvent is a specification, a PostedEvent is a runtime
/// instance with the actual method arguments, the posting transaction, the
/// occurrence time and the position in the object's history.
struct PostedEvent {
  BasicEventKind kind = BasicEventKind::kMethod;
  EventQualifier qualifier = EventQualifier::kAfter;
  /// The event's id in its object's class, stamped by the poster; read by
  /// detection only, never persisted.
  EventId event_id = -1;

  /// kMethod: the invoked member function and its actual arguments.
  std::string method_name;
  std::vector<EventArg> args;

  /// kTime: canonical key of the timer's BasicEvent (see
  /// BasicEvent::CanonicalKey) so specs can be matched exactly.
  std::string time_key;

  Oid object;        ///< The object this event was posted to.
  TxnId txn = 0;     ///< Posting transaction (0 for system/clock postings).
  TimeMs time = 0;   ///< Virtual-clock occurrence time.
  uint64_t seq = 0;  ///< 1-based position in the object's history.

  /// Looks up an argument by name; null Value if absent.
  const Value* FindArg(std::string_view name) const;

  /// True if this occurrence matches the given basic-event specification:
  /// same kind and qualifier; for methods, same name (and arity when the
  /// spec declares a signature); for time events, same canonical key.
  bool Matches(const BasicEvent& spec) const;

  /// Display form, e.g. "after withdraw(i=7, q=200) [txn 3 @t=12]".
  std::string ToString() const;
};

/// Convenience factories for building histories in tests and examples.
PostedEvent MakePosted(BasicEventKind kind, EventQualifier q, TxnId txn = 0);
PostedEvent MakePostedMethod(EventQualifier q, std::string method,
                             std::vector<EventArg> args = {}, TxnId txn = 0);

}  // namespace ode

#endif  // ODE_EVENT_POSTED_EVENT_H_
