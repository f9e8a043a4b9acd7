#include "trigger/trigger_engine.h"

#include <memory>
#include <mutex>

#include "common/strutil.h"
#include "mask/mask_eval.h"
#include "ode/database.h"
#include "seq/sequencer.h"

namespace ode {

thread_local int TriggerEngine::depth_ = 0;

namespace {

/// Mask-evaluation environment bound to one posting (§3.2): identifiers
/// resolve, in order, to (1) the atom's declared formal parameters bound
/// positionally to the event's actual arguments, (2) the event's own
/// argument names, (3) the trigger's activation parameters, (4) the
/// object's attributes. Composite and gate masks see no posting. Member
/// access dereferences object references; calls dispatch to the database's
/// registered host functions.
class DbMaskEnv : public MaskEnv {
 public:
  DbMaskEnv(Database* db, TxnId txn, const Object* self,
            const PostedEvent* event, const std::vector<ParamDecl>* params,
            const std::map<std::string, Value>* trigger_params)
      : db_(db),
        txn_(txn),
        self_(self),
        event_(event),
        params_(params),
        trigger_params_(trigger_params) {}

  Result<Value> Lookup(std::string_view name) const override {
    if (event_ != nullptr && params_ != nullptr) {
      for (size_t i = 0; i < params_->size(); ++i) {
        if ((*params_)[i].name == name) {
          if (i >= event_->args.size()) {
            return Status::InvalidArgument(StrFormat(
                "event '%s' has no argument at position %zu for parameter "
                "'%s'",
                event_->method_name.c_str(), i, std::string(name).c_str()));
          }
          return event_->args[i].value;
        }
      }
    }
    if (event_ != nullptr) {
      if (const Value* arg = event_->FindArg(name)) return *arg;
    }
    if (trigger_params_ != nullptr && !trigger_params_->empty()) {
      auto it = trigger_params_->find(std::string(name));
      if (it != trigger_params_->end()) return it->second;
    }
    if (self_ != nullptr) {
      auto it = self_->attrs().find(name);
      if (it != self_->attrs().end()) return it->second;
    }
    return Status::NotFound(StrFormat("mask identifier '%s' is unbound",
                                      std::string(name).c_str()));
  }

  Result<Value> Member(const Value& base,
                       std::string_view field) const override {
    Result<Oid> oid = base.AsOid();
    if (!oid.ok()) {
      return Status::InvalidArgument(
          StrFormat("member access '.%s' requires an object reference",
                    std::string(field).c_str()));
    }
    return db_->PeekAttr(*oid, field);
  }

  Result<Value> Call(std::string_view fn,
                     const std::vector<Value>& args) const override {
    HostContext ctx;
    ctx.db = db_;
    ctx.txn = txn_;
    ctx.self = self_ != nullptr ? self_->oid() : kNullOid;
    ctx.event = event_;
    return db_->CallHostFunction(fn, args, ctx);
  }

 private:
  Database* db_;
  TxnId txn_;
  const Object* self_;
  const PostedEvent* event_;
  const std::vector<ParamDecl>* params_;
  const std::map<std::string, Value>* trigger_params_;
};

const std::map<std::string, Value>& EmptyParams() {
  static const std::map<std::string, Value>* kEmpty =
      new std::map<std::string, Value>();
  return *kEmpty;
}

class DepthGuard {
 public:
  explicit DepthGuard(int* depth) : depth_(depth) { ++*depth_; }
  ~DepthGuard() { --*depth_; }

 private:
  int* depth_;
};

}  // namespace

class TriggerEngine::Posting {
 public:
  Posting(const PostedEvent& event, bool capture)
      : event_(event), capture_(capture) {}

  const PostedEvent& event() const { return event_; }

  /// §9 argument capture: makes this posting the latest witness of
  /// alphabet group `group` (-1, OTHER, witnesses nothing). The first
  /// capture copies the event; later ones share that copy.
  void Capture(WitnessArray* witnesses, size_t num_groups, int group) {
    if (!capture_ || group < 0) return;
    if (shared_ == nullptr) {
      shared_ = std::make_shared<const PostedEvent>(event_);
    }
    if (witnesses->size() < num_groups) witnesses->resize(num_groups);
    (*witnesses)[group] = shared_;
  }

 private:
  const PostedEvent& event_;
  const bool capture_;
  std::shared_ptr<const PostedEvent> shared_;
};

Result<SymbolId> TriggerEngine::Classify(
    const Alphabet& alphabet, int group, Transaction* txn, const Object* obj,
    const PostedEvent& event, const std::map<std::string, Value>& params) {
  if (group < 0) return alphabet.other_symbol();
  const std::vector<MaskSlot>& masks = alphabet.group_masks(group);
  size_t combo = 0;
  for (size_t i = 0; i < masks.size(); ++i) {
    db_->BumpMaskEvaluations();
    DbMaskEnv env(db_, txn != nullptr ? txn->id() : 0, obj, &event,
                  &masks[i].params, &params);
    Result<bool> v = EvalMaskBool(*masks[i].mask, env);
    if (!v.ok()) return v.status();
    if (*v) combo |= size_t{1} << i;
  }
  return alphabet.group_base(group) + static_cast<SymbolId>(combo);
}

Result<bool> TriggerEngine::AdvanceSlot(ActiveTrigger* slot,
                                        const TriggerProgram& program,
                                        int group, Transaction* txn,
                                        Object* obj, Posting* posting,
                                        bool undo_logged) {
  const Alphabet& alphabet = program.event.alphabet;
  Result<SymbolId> base_sym =
      Classify(alphabet, group, txn, obj, posting->event(), slot->params);
  if (!base_sym.ok()) return base_sym.status();

  // §9 argument capture: remember the latest occurrence of each referenced
  // logical event for the action's Witness() lookups.
  posting->Capture(&slot->witnesses, alphabet.num_groups(), group);

  const Dfa& dfa = program.ActiveDfa();
  const int32_t old_state = slot->state;

  // Resolve gated subevents bottom-up (§7 nested composite masks): step
  // each gate's sub-DFA, evaluate its mask against the current database
  // state, and accumulate the occurrence bits into the extended symbol.
  uint32_t gate_bits = 0;
  const std::vector<GateDef>& gates = program.event.gates;
  std::vector<int32_t> old_gate_states;
  if (!gates.empty()) {
    old_gate_states = slot->gate_states;
    if (slot->gate_states.size() < gates.size()) {
      slot->gate_states.resize(gates.size(), 0);
    }
  }
  for (size_t g = 0; g < gates.size(); ++g) {
    SymbolId ext = program.event.ExtendSymbol(*base_sym, gate_bits);
    int32_t gs = gates[g].dfa.Step(slot->gate_states[g], ext);
    slot->gate_states[g] = gs;
    if (gates[g].dfa.accepting(gs)) {
      db_->BumpMaskEvaluations();
      DbMaskEnv env(db_, txn != nullptr ? txn->id() : 0, obj,
                    /*event=*/nullptr, /*params=*/nullptr, &slot->params);
      Result<bool> holds = EvalMaskBool(*gates[g].mask, env);
      if (!holds.ok()) return holds.status();
      if (*holds) gate_bits |= (1u << g);
    }
  }

  SymbolId ext_sym = program.event.ExtendSymbol(*base_sym, gate_bits);
  int32_t new_state = dfa.Step(old_state, ext_sym);
  if (undo_logged && program.view == HistoryView::kCommitted &&
      txn != nullptr &&
      (new_state != old_state ||
       (!gates.empty() && slot->gate_states != old_gate_states))) {
    UndoEntry& undo = txn->PushUndo(UndoEntry::Kind::kTriggerState, obj->oid());
    undo.trigger_idx = slot->trigger_idx;
    undo.old_state = old_state;
    undo.old_gate_states = std::move(old_gate_states);
  }
  slot->state = new_state;

  if (!dfa.accepting(new_state)) return false;

  // Composite masks gate occurrence against the *current* database state
  // (§3.3). They see trigger params and object state but not the
  // constituent events' parameters.
  for (const MaskExprPtr& mask : program.event.composite_masks) {
    db_->BumpMaskEvaluations();
    DbMaskEnv env(db_, txn != nullptr ? txn->id() : 0, obj,
                  /*event=*/nullptr, /*params=*/nullptr, &slot->params);
    Result<bool> ok = EvalMaskBool(*mask, env);
    if (!ok.ok()) return ok.status();
    if (!*ok) return false;
  }
  return true;
}

Status TriggerEngine::FireSlot(ActiveTrigger* slot,
                               const TriggerProgram& program,
                               Transaction* txn, Object* obj, Oid oid,
                               const PostedEvent& event, bool class_scope,
                               ClassId class_id) {
  if (class_scope) {
    db_->BumpClassTriggersFired(class_id, program.spec.name);
  } else {
    db_->BumpTriggersFired(obj, slot->trigger_idx);
  }

  if (!program.spec.perpetual) {
    // An ordinary trigger is automatically deactivated the moment it
    // fires (§2).
    if (!class_scope && program.view == HistoryView::kCommitted &&
        txn != nullptr) {
      UndoEntry& undo = txn->PushUndo(UndoEntry::Kind::kTriggerActive, oid);
      undo.trigger_idx = slot->trigger_idx;
      undo.old_active = true;
    }
    slot->active = false;
    if (!class_scope) db_->ReleaseTriggerTimers(oid, program);
  }

  return RunAction(program, txn, oid, event, slot->params, slot->witnesses);
}

Status TriggerEngine::RunAction(const TriggerProgram& program,
                                Transaction* txn, Oid oid,
                                const PostedEvent& event,
                                const std::map<std::string, Value>& params,
                                const WitnessArray& witnesses) {
  if (program.spec.action.empty()) return Status::OK();
  const TriggerAction* action = db_->FindAction(program.spec.action);
  if (action == nullptr) {
    return Status::NotFound(StrFormat(
        "trigger '%s' names unregistered action '%s'",
        program.spec.name.c_str(), program.spec.action.c_str()));
  }
  ActionContext ctx;
  ctx.db = db_;
  ctx.txn = txn != nullptr ? txn->id() : 0;
  ctx.self = oid;
  ctx.trigger_name = program.spec.name;
  ctx.event = &event;
  ctx.trigger_params = &params;
  ctx.witnesses = &witnesses;
  Status s = (*action)(ctx);
  if (s.code() == StatusCode::kAborted) {
    return Status::Aborted(StrFormat(
        "trigger '%s' aborted the transaction: %s",
        program.spec.name.c_str(), s.message().c_str()));
  }
  return s;
}

Result<uint64_t> TriggerEngine::AdvanceGroupSlot(GroupSlot* slot,
                                                 const TriggerGroup& group,
                                                 int alphabet_group,
                                                 Transaction* txn,
                                                 Object* obj,
                                                 Posting* posting) {
  const Alphabet& alphabet = group.program.alphabet();
  Result<SymbolId> sym = Classify(alphabet, alphabet_group, txn, obj,
                                  posting->event(), EmptyParams());
  if (!sym.ok()) return sym.status();
  posting->Capture(&slot->witnesses, alphabet.num_groups(), alphabet_group);

  // The footnote-5 payoff: ONE step for every member trigger.
  slot->state = group.program.dfa().Step(slot->state, *sym);
  uint64_t bits = group.program.AcceptMask(slot->state) & slot->enabled;
  if (bits == 0) return uint64_t{0};

  // Per-member root composite masks gate occurrence (§3.3).
  uint64_t passed = 0;
  for (size_t bit = 0; bit < group.member_idxs.size(); ++bit) {
    if (((bits >> bit) & 1) == 0) continue;
    bool pass = true;
    for (const MaskExprPtr& mask : group.program.composite_masks(bit)) {
      db_->BumpMaskEvaluations();
      DbMaskEnv env(db_, txn != nullptr ? txn->id() : 0, obj,
                    /*event=*/nullptr, /*params=*/nullptr, &EmptyParams());
      Result<bool> ok = EvalMaskBool(*mask, env);
      if (!ok.ok()) return ok.status();
      if (!*ok) {
        pass = false;
        break;
      }
    }
    if (pass) passed |= (uint64_t{1} << bit);
  }
  return passed;
}

Status TriggerEngine::FireGroupMember(GroupSlot* slot,
                                      const TriggerGroup& group, size_t bit,
                                      Transaction* txn, Object* obj,
                                      const PostedEvent& event,
                                      const RegisteredClass* cls) {
  const Oid oid = obj->oid();
  const TriggerProgram& member = cls->triggers[group.member_idxs[bit]];
  db_->BumpTriggersFired(obj, group.member_idxs[bit]);

  if (!member.spec.perpetual) {
    // An ordinary member disarms individually; the group slot dies when
    // its last member has fired.
    slot->enabled &= ~(uint64_t{1} << bit);
    if (slot->enabled == 0) {
      slot->active = false;
      db_->ReleaseAlphabetTimers(oid, group.program.alphabet());
    }
  }

  return RunAction(member, txn, oid, event, EmptyParams(), slot->witnesses);
}

Result<int> TriggerEngine::Post(Transaction* txn, Object* obj,
                                const RegisteredClass& cls,
                                PostedEvent& event) {
  if (depth_ >= db_->options().max_posting_depth) {
    return Status::ResourceExhausted(StrFormat(
        "trigger actions recursively posted events beyond depth %d "
        "(non-terminating trigger cascade?)",
        db_->options().max_posting_depth));
  }
  DepthGuard guard(&depth_);

  const Oid oid = obj->oid();
  event.object = oid;
  event.time = db_->clock().now();
  if (event.txn == 0 && txn != nullptr) event.txn = txn->id();
  event.seq = obj->NextSeq();
  if (event.event_id < 0) event.event_id = cls.events.Resolve(event);
  const EventId id = event.event_id;
  db_->RecordHistory(event);
  db_->BumpEventsPosted();
  Posting posting(event, db_->options().capture_witnesses);

  // Phase 1 (§5): advance every active trigger the posting can move —
  // per-object slots, then class-scope slots over the merged instance
  // stream (§9 extension), then combined trigger groups (§5 footnote 5) —
  // and determine all occurrences. A slot whose alphabet does not name the
  // event, resting where an OTHER step changes nothing, is skipped.
  enum class Scope { kObject, kClass, kGroup };
  struct Pending {
    Scope scope;
    size_t idx;
    uint64_t bits = 0;  // kGroup: which members occurred (mask-gated).
  };
  std::vector<Pending> fired;
  const size_t num_slots = obj->trigger_slots().size();
  for (size_t i = 0; i < num_slots; ++i) {
    ActiveTrigger& slot = obj->trigger_slots()[i];
    if (!slot.active) continue;
    const AutomatonDispatch& dispatch = cls.dispatch[slot.trigger_idx];
    const int group = dispatch.group(id);
    if (group < 0 && dispatch.OtherNoop(slot.state)) continue;
    Result<bool> occurred =
        AdvanceSlot(&slot, cls.triggers[slot.trigger_idx], group, txn, obj,
                    &posting, /*undo_logged=*/true);
    if (!occurred.ok()) return occurred.status();
    if (*occurred) fired.push_back({Scope::kObject, i, 0});
  }
  // Class-scope slots are shared mutable state across every instance of
  // the class. With a sequencer attached (the runtime's ingestion path),
  // the shard does only the per-event work that needs the posting object —
  // mask classification, evaluated here while the poster still owns the
  // object — and publishes a SeqEvent; the sequencer's merge thread steps
  // the slots in its deterministic merge order and hands each firing back
  // to the object's owning shard (docs/SEQUENCER.md). Without a sequencer
  // (standalone), the inline path advances and fires under class_post_mu_:
  // recursive, so actions that post re-entrantly on this thread do not
  // self-deadlock; lock-manager acquires inside actions never block
  // (kWouldBlock), so no cycle.
  std::unique_lock<std::recursive_mutex> class_lock;
  std::vector<ActiveTrigger>* class_slots =
      cls.class_scope_armed.load(std::memory_order_acquire)
          ? db_->ClassSlots(cls.id)
          : nullptr;
  seq::Sequencer* sequencer =
      class_slots != nullptr ? db_->sequencer() : nullptr;
  if (sequencer != nullptr) {
    // Publish-side critical section: the scope keeps (de)activation's
    // quiesce barrier out while slot params are being read.
    seq::Sequencer::PublishScope publish_scope(sequencer);
    seq::SeqEvent sev;
    sev.class_id = cls.id;
    sev.oid = oid;
    const uint64_t active_mask = db_->ClassActiveMask(cls.id);
    for (size_t i = 0; i < class_slots->size() && i < 64; ++i) {
      if (((active_mask >> i) & 1) == 0) continue;
      ActiveTrigger& slot = (*class_slots)[i];
      const TriggerProgram& program = cls.triggers[slot.trigger_idx];
      const int group = cls.dispatch[slot.trigger_idx].group(id);
      // An OTHER event is provably a no-op for an `other_inert` slot from
      // every state (and OTHER never updates witnesses): leave it out of
      // the stream.
      if (group < 0 && program.other_inert) continue;
      Result<SymbolId> base_sym = Classify(program.event.alphabet, group,
                                           txn, obj, event, slot.params);
      if (!base_sym.ok()) return base_sym.status();
      sev.syms.push_back(seq::SeqSym{slot.trigger_idx, *base_sym});
    }
    // Publish only events that can affect some slot. This keeps each
    // lane's published sequence a pure function of the shard's WAL event
    // order: transaction-marker and other inert events vary with runtime
    // batch boundaries, and admitting them would shift lane sequence
    // numbers so crash replay could not line regenerated publishes up
    // with the order log's watermarks (docs/SEQUENCER.md).
    if (!sev.syms.empty()) {
      sev.event = event;
      sev.depth = depth_;
      sequencer->Publish(std::move(sev));
    }
  } else if (class_slots != nullptr) {
    class_lock =
        std::unique_lock<std::recursive_mutex>(db_->class_post_mu_);
    for (size_t i = 0; i < class_slots->size(); ++i) {
      ActiveTrigger& slot = (*class_slots)[i];
      if (!slot.active) continue;
      const AutomatonDispatch& dispatch = cls.dispatch[slot.trigger_idx];
      const int group = dispatch.group(id);
      if (group < 0 && dispatch.OtherNoop(slot.state)) continue;
      Result<bool> occurred =
          AdvanceSlot(&slot, cls.triggers[slot.trigger_idx], group, txn, obj,
                      &posting, /*undo_logged=*/false);
      if (!occurred.ok()) return occurred.status();
      if (*occurred) fired.push_back({Scope::kClass, i, 0});
    }
  }
  const size_t num_group_slots = obj->group_slots().size();
  for (size_t i = 0; i < num_group_slots; ++i) {
    GroupSlot& slot = obj->group_slots()[i];
    if (!slot.active) continue;
    const TriggerGroup& group = cls.groups[slot.group_idx];
    const int alphabet_group = group.dispatch.group(id);
    if (alphabet_group < 0 && group.dispatch.OtherNoop(slot.state)) continue;
    Result<uint64_t> bits =
        AdvanceGroupSlot(&slot, group, alphabet_group, txn, obj, &posting);
    if (!bits.ok()) return bits.status();
    if (*bits != 0) fired.push_back({Scope::kGroup, i, *bits});
  }

  // Phase 2 (§5): fire the triggers. "If the posting of a logical event
  // leads to the firing of multiple triggers, then the order in which the
  // triggers are fired is implementation dependent" — ours is object slots
  // in slot order, then class slots, then groups. An action may mutate or
  // even delete the object, so `owner` is resolved again after one ran;
  // once the object is gone, the remaining firings are dropped.
  int total_fired = 0;
  Object* owner = obj;
  auto owner_alive = [&]() -> bool {
    if (owner == nullptr) {
      Result<Object*> refetched = db_->GetObject(oid);
      if (refetched.ok()) owner = *refetched;
    }
    return owner != nullptr;
  };
  for (const Pending& p : fired) {
    if (p.scope == Scope::kGroup) {
      if (!owner_alive()) break;
      if (p.idx >= owner->group_slots().size()) continue;
      const TriggerGroup& group =
          cls.groups[owner->group_slots()[p.idx].group_idx];
      for (size_t bit = 0; bit < group.member_idxs.size(); ++bit) {
        if (((p.bits >> bit) & 1) == 0) continue;
        if (!owner_alive() || p.idx >= owner->group_slots().size()) break;
        ++total_fired;
        ODE_RETURN_IF_ERROR(FireGroupMember(&owner->group_slots()[p.idx],
                                            group, bit, txn, owner, event,
                                            &cls));
        if (!cls.triggers[group.member_idxs[bit]].spec.action.empty()) {
          owner = nullptr;
        }
      }
      continue;
    }
    ActiveTrigger* slot = nullptr;
    if (p.scope == Scope::kClass) {
      // Still under class_lock from phase 1.
      slot = &(*class_slots)[p.idx];
    } else {
      if (!owner_alive()) break;
      if (p.idx >= owner->trigger_slots().size()) continue;
      slot = &owner->trigger_slots()[p.idx];
    }
    ++total_fired;
    const TriggerProgram& program = cls.triggers[slot->trigger_idx];
    const bool class_scope = p.scope == Scope::kClass;
    ODE_RETURN_IF_ERROR(FireSlot(slot, program, txn,
                                 class_scope ? nullptr : owner, oid, event,
                                 class_scope, cls.id));
    if (!program.spec.action.empty()) owner = nullptr;
  }
  return total_fired;
}

int TriggerEngine::ApplySequenced(const seq::SeqEvent& sev,
                                  const seq::FiringSink& sink) {
  const RegisteredClass* cls = db_->classes().FindById(sev.class_id);
  std::vector<ActiveTrigger>* slots = db_->ClassSlots(sev.class_id);
  if (cls == nullptr || slots == nullptr) return 0;

  // Stepped once per sequenced event, so the event is copied at most once
  // for all the slots that witness it.
  Posting posting(sev.event, db_->options().capture_witnesses);
  int fired = 0;
  for (const seq::SeqSym& sym : sev.syms) {
    if (sym.trigger_idx < 0 ||
        static_cast<size_t>(sym.trigger_idx) >= cls->triggers.size()) {
      continue;
    }
    ActiveTrigger* slot = nullptr;
    for (ActiveTrigger& s : *slots) {
      if (s.trigger_idx == sym.trigger_idx) slot = &s;
    }
    if (slot == nullptr || !slot->active) continue;
    const TriggerProgram& program = cls->triggers[sym.trigger_idx];
    const Alphabet& alphabet = program.event.alphabet;
    posting.Capture(&slot->witnesses, alphabet.num_groups(),
                    alphabet.GroupOfSymbol(sym.symbol));
    const Dfa& dfa = program.ActiveDfa();
    slot->state =
        dfa.Step(slot->state, program.event.ExtendSymbol(sym.symbol, 0));
    // Class-scope activation admits no gate or composite mask, so
    // acceptance is occurrence.
    if (!dfa.accepting(slot->state)) continue;
    ++fired;
    db_->BumpClassTriggersFired(sev.class_id, program.spec.name);
    // An ordinary trigger is automatically deactivated the moment it
    // fires (§2).
    if (!program.spec.perpetual) slot->active = false;
    if (program.spec.action.empty()) continue;
    sink(seq::Firing{sev.class_id, sym.trigger_idx, sev.oid, sev.event,
                     slot->witnesses, slot->params, sev.depth});
  }
  if (fired > 0) db_->SyncClassActiveMask(sev.class_id);
  return fired;
}

Status TriggerEngine::RunFiringAction(Transaction* txn,
                                      const seq::Firing& firing) {
  const RegisteredClass* cls = db_->classes().FindById(firing.class_id);
  if (cls == nullptr || firing.trigger_idx < 0 ||
      static_cast<size_t>(firing.trigger_idx) >= cls->triggers.size()) {
    return Status::NotFound("class-scope firing of an unknown trigger");
  }
  const int outer = depth_;
  depth_ = firing.depth;
  Status s = RunAction(cls->triggers[firing.trigger_idx], txn, firing.oid,
                       firing.event, firing.params, firing.witnesses);
  depth_ = outer;
  return s;
}

}  // namespace ode
