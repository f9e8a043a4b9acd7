#include "compile/alphabet.h"

#include <map>

#include "common/strutil.h"

namespace ode {

std::string MaskSlot::Key() const {
  std::string key = mask ? mask->ToString() : "<none>";
  key += "|";
  for (const ParamDecl& p : params) {
    key += p.name;
    key += ",";
  }
  return key;
}

Result<Alphabet> Alphabet::Build(const EventExpr& expr) {
  return Build(expr, Options());
}

Result<Alphabet> Alphabet::Build(const EventExpr& expr,
                                 const Options& options) {
  std::vector<const EventExpr*> atoms;
  expr.CollectAtoms(&atoms);

  Alphabet out;
  std::map<std::string, size_t> group_ids;  // canonical key -> index

  auto ensure_group = [&](const BasicEvent& spec) -> size_t {
    std::string key = spec.CanonicalKey();
    auto [it, inserted] = group_ids.emplace(key, out.groups_.size());
    if (inserted) {
      Group g;
      g.spec = spec;
      out.groups_.push_back(std::move(g));
    }
    return it->second;
  };

  for (const EventExpr* atom : atoms) {
    size_t gid = ensure_group(atom->atom);
    if (atom->atom_mask != nullptr) {
      Group& g = out.groups_[gid];
      MaskSlot slot{atom->atom_mask, atom->atom.params};
      std::string key = slot.Key();
      bool present = false;
      for (const MaskSlot& existing : g.masks) {
        if (existing.Key() == key) {
          present = true;
          break;
        }
      }
      if (!present) {
        if (g.masks.size() >= options.max_masks_per_group) {
          return Status::ResourceExhausted(StrFormat(
              "basic event '%s' carries more than %zu distinct masks; the "
              "2^k disjointness rewrite (§5) would explode",
              g.spec.ToString().c_str(), options.max_masks_per_group));
        }
        g.masks.push_back(std::move(slot));
      }
    }
  }

  if (options.include_txn_markers) {
    ensure_group(BasicEvent::Make(BasicEventKind::kTbegin,
                                  EventQualifier::kAfter));
    ensure_group(BasicEvent::Make(BasicEventKind::kTcommit,
                                  EventQualifier::kAfter));
    ensure_group(BasicEvent::Make(BasicEventKind::kTabort,
                                  EventQualifier::kAfter));
  }

  // Reject a method referenced both with and without a signature: a posted
  // call would match both groups, breaking logical-event disjointness.
  std::map<std::string, bool> method_has_bare;   // "qual:name"
  std::map<std::string, bool> method_has_arity;
  for (const Group& g : out.groups_) {
    if (g.spec.kind != BasicEventKind::kMethod) continue;
    std::string mk = std::string(EventQualifierName(g.spec.qualifier)) + ":" +
                     g.spec.method_name;
    if (g.spec.params.empty()) {
      method_has_bare[mk] = true;
    } else {
      method_has_arity[mk] = true;
    }
    if (method_has_bare[mk] && method_has_arity[mk]) {
      return Status::InvalidArgument(StrFormat(
          "method '%s' is referenced both with and without a parameter "
          "signature; the two specifications overlap and cannot be made "
          "disjoint — declare signatures consistently",
          mk.c_str()));
    }
  }

  // Assign symbol ids.
  SymbolId next = 0;
  for (Group& g : out.groups_) {
    g.base = next;
    next += static_cast<SymbolId>(g.num_symbols());
  }
  out.size_ = static_cast<size_t>(next) + 1;  // + OTHER.
  return out;
}

const Alphabet::Group* Alphabet::FindGroup(const BasicEvent& spec) const {
  std::string key = spec.CanonicalKey();
  for (const Group& g : groups_) {
    if (g.spec.CanonicalKey() == key) return &g;
  }
  return nullptr;
}

bool Alphabet::IsMaskFree() const {
  for (const Group& g : groups_) {
    if (!g.masks.empty()) return false;
  }
  return true;
}

int Alphabet::GroupOfSymbol(SymbolId s) const {
  for (size_t i = 0; i < groups_.size(); ++i) {
    const Group& g = groups_[i];
    if (s >= g.base && s < g.base + static_cast<SymbolId>(g.num_symbols())) {
      return static_cast<int>(i);
    }
  }
  return -1;  // OTHER.
}

const BasicEvent* Alphabet::SpecForSymbol(SymbolId s) const {
  int g = GroupOfSymbol(s);
  return g < 0 ? nullptr : &groups_[g].spec;
}

const Alphabet::Group* Alphabet::MatchGroup(const PostedEvent& event) const {
  for (const Group& g : groups_) {
    if (event.Matches(g.spec)) return &g;
  }
  return nullptr;
}

int Alphabet::GroupOf(const PostedEvent& event) const {
  const Group* g = MatchGroup(event);
  return g == nullptr ? -1 : static_cast<int>(g - groups_.data());
}

Result<SymbolSet> Alphabet::SymbolsFor(const EventExpr& atom) const {
  if (atom.kind != EventExprKind::kAtom) {
    return Status::Internal("SymbolsFor requires an atom node");
  }
  const Group* g = FindGroup(atom.atom);
  if (g == nullptr) {
    return Status::Internal(
        StrFormat("atom '%s' missing from alphabet",
                  atom.atom.ToString().c_str()));
  }
  SymbolSet out(size_);
  if (atom.atom_mask == nullptr) {
    for (size_t i = 0; i < g->num_symbols(); ++i) {
      out.Add(g->base + static_cast<SymbolId>(i));
    }
    return out;
  }
  MaskSlot probe{atom.atom_mask, atom.atom.params};
  std::string key = probe.Key();
  size_t bit = g->masks.size();
  for (size_t i = 0; i < g->masks.size(); ++i) {
    if (g->masks[i].Key() == key) {
      bit = i;
      break;
    }
  }
  if (bit == g->masks.size()) {
    return Status::Internal(
        StrFormat("mask '%s' missing from alphabet group",
                  atom.atom_mask->ToString().c_str()));
  }
  for (size_t combo = 0; combo < g->num_symbols(); ++combo) {
    if ((combo >> bit) & 1) {
      out.Add(g->base + static_cast<SymbolId>(combo));
    }
  }
  return out;
}

SymbolSet Alphabet::GroupSymbols(const BasicEvent& spec) const {
  SymbolSet out(size_);
  const Group* g = FindGroup(spec);
  if (g != nullptr) {
    for (size_t i = 0; i < g->num_symbols(); ++i) {
      out.Add(g->base + static_cast<SymbolId>(i));
    }
  }
  return out;
}

TxnMarkerSymbols Alphabet::txn_markers() const {
  TxnMarkerSymbols out;
  out.tbegin = GroupSymbols(
      BasicEvent::Make(BasicEventKind::kTbegin, EventQualifier::kAfter));
  out.tcommit = GroupSymbols(
      BasicEvent::Make(BasicEventKind::kTcommit, EventQualifier::kAfter));
  out.tabort = GroupSymbols(
      BasicEvent::Make(BasicEventKind::kTabort, EventQualifier::kAfter));
  return out;
}

Result<SymbolId> Alphabet::Classify(const PostedEvent& event,
                                    const MaskEvalFn& eval_mask,
                                    int* group) const {
  const int index = GroupOf(event);
  if (group != nullptr) *group = index;
  if (index < 0) return other_symbol();
  const Group* g = &groups_[index];
  size_t combo = 0;
  for (size_t i = 0; i < g->masks.size(); ++i) {
    Result<bool> v = eval_mask(g->masks[i], event);
    if (!v.ok()) return v.status();
    if (*v) combo |= (size_t{1} << i);
  }
  return g->base + static_cast<SymbolId>(combo);
}

size_t Alphabet::ClassifyCost(const PostedEvent& event) const {
  const Group* g = MatchGroup(event);
  return g == nullptr ? 0 : g->masks.size();
}

std::vector<BasicEvent> Alphabet::TimeEvents() const {
  std::vector<BasicEvent> out;
  for (const Group& g : groups_) {
    if (g.spec.kind == BasicEventKind::kTime) out.push_back(g.spec);
  }
  return out;
}

std::vector<std::string> Alphabet::SymbolNames() const {
  std::vector<std::string> names(size_);
  for (const Group& g : groups_) {
    for (size_t combo = 0; combo < g.num_symbols(); ++combo) {
      std::string name = g.spec.ToString();
      for (size_t i = 0; i < g.masks.size(); ++i) {
        name += ((combo >> i) & 1) ? " && " : " && !";
        name += "(";
        name += g.masks[i].mask->ToString();
        name += ")";
      }
      names[g.base + combo] = std::move(name);
    }
  }
  names[other_symbol()] = "<other>";
  return names;
}

}  // namespace ode
