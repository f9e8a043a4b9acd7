#ifndef ODE_SEQ_SEQ_EVENT_H_
#define ODE_SEQ_SEQ_EVENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "event/posted_event.h"
#include "ode/class_def.h"
#include "trigger/trigger_def.h"

namespace ode {
namespace seq {

/// One trigger slot's precomputed classification for a published event.
/// Classification (atom-mask evaluation against the posting object, §5)
/// happens on the owner shard at publish time, where the object's lock is
/// already held; the sequencer thread then only steps automata. This is
/// the local-detection / global-composition split: the shard does the
/// per-event work that needs the object, the sequencer does the
/// order-sensitive work that needs the merged stream.
struct SeqSym {
  int32_t trigger_idx = -1;  ///< Index into RegisteredClass::triggers.
  int32_t symbol = 0;        ///< Base SymbolId under that trigger's alphabet.
};

/// What an instance shard publishes into the sequencer queue: one posted
/// event destined for a class's shared (§9 class-scope) trigger automata.
/// `(lane, lane_seq)` is the replay-stable identity — the lane is a
/// publisher stream (Sequencer::Options::num_lanes), lane_seq a per-lane
/// monotone counter — used for tie-breaking within a drained batch, for
/// watermark accounting, and for exactly-once dedup during crash recovery.
struct SeqEvent {
  ClassId class_id = 0;
  Oid oid;                    ///< The posting instance (action `self`).
  uint32_t lane = 0;
  uint64_t lane_seq = 0;
  PostedEvent event;          ///< Full payload (args feed masks/witnesses).
  std::vector<SeqSym> syms;   ///< One entry per publish-time-active slot.
  /// Posting depth (§5 cascade bound) at publish; not in the order log.
  int32_t depth = 0;
};

/// A class-scope firing the merge thread decided: the slot accepted, was
/// counted and (if ordinary) disarmed. The owning shard of `oid` runs the
/// action from this record, so it carries its own copies of what the
/// action reads: the slot's witnesses and params at the firing point.
struct Firing {
  ClassId class_id = 0;
  int32_t trigger_idx = -1;  ///< Index into RegisteredClass::triggers.
  Oid oid;                   ///< The posting instance (action `self`).
  PostedEvent event;         ///< The occurrence that fired the trigger.
  WitnessArray witnesses;
  std::map<std::string, Value> params;
  /// SeqEvent::depth of the event: the action's postings go one deeper, so
  /// the §5 depth bound holds across the hop to the owner shard.
  int32_t depth = 0;
};

/// Where the merge thread hands each firing. It must not block: the
/// runtime's sink appends to the owner shard's unbounded inbox.
using FiringSink = std::function<void(Firing)>;

}  // namespace seq
}  // namespace ode

#endif  // ODE_SEQ_SEQ_EVENT_H_
