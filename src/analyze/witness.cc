#include "analyze/witness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <random>

#include "analyze/mask_solver.h"
#include "automaton/determinize.h"
#include "common/strutil.h"
#include "semantics/oracle.h"

namespace ode {

namespace {

/// A group's canonical parameter declarations: the representative basic
/// event's signature when it has one, else the first mask slot that
/// declares one. Parameter names are positional aliases (§3.1), so every
/// slot's mask is rewritten onto this one name set before solving — two
/// atoms calling the second withdraw argument `q` and `amt` constrain the
/// same value.
const std::vector<ParamDecl>* CanonicalParams(const Alphabet& alphabet,
                                              size_t group) {
  const BasicEvent& spec = alphabet.group_spec(group);
  if (!spec.params.empty()) return &spec.params;
  for (const MaskSlot& slot : alphabet.group_masks(group)) {
    if (!slot.params.empty()) return &slot.params;
  }
  return nullptr;
}

/// Rebuilds a mask with identifiers renamed per `map` (names absent from
/// the map are kept). MaskExpr nodes are immutable, so this is a fresh
/// tree; spans are dropped (witness masks are synthesized, never rendered
/// with carets).
MaskExprPtr RenameIdents(const MaskExprPtr& e,
                         const std::map<std::string, std::string>& map) {
  if (map.empty() || e == nullptr) return e;
  switch (e->kind) {
    case MaskKind::kLiteral:
      return e;
    case MaskKind::kIdent: {
      auto it = map.find(e->name);
      return it == map.end() ? e : MaskExpr::Ident(it->second);
    }
    case MaskKind::kMember:
      return MaskExpr::Member(RenameIdents(e->children[0], map), e->name);
    case MaskKind::kCall: {
      std::vector<MaskExprPtr> args;
      args.reserve(e->children.size());
      for (const MaskExprPtr& c : e->children) {
        args.push_back(RenameIdents(c, map));
      }
      return MaskExpr::Call(e->name, std::move(args));
    }
    case MaskKind::kUnary:
      return MaskExpr::Unary(e->op, RenameIdents(e->children[0], map));
    case MaskKind::kBinary:
      return MaskExpr::Binary(e->op, RenameIdents(e->children[0], map),
                              RenameIdents(e->children[1], map));
  }
  return e;
}

/// The signed mask conjunction a micro-symbol asserts, with every slot's
/// parameter names canonicalized. `storage` owns the rewritten masks for
/// the lifetime of the returned literal pointers.
std::vector<MaskSolver::SignedMask> SymbolLiterals(
    const Alphabet& alphabet, size_t group, size_t bits,
    std::vector<MaskExprPtr>* storage) {
  const std::vector<MaskSlot>& slots = alphabet.group_masks(group);
  const std::vector<ParamDecl>* canon = CanonicalParams(alphabet, group);
  std::vector<MaskSolver::SignedMask> literals;
  literals.reserve(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    std::map<std::string, std::string> rename;
    if (canon != nullptr) {
      for (size_t p = 0;
           p < slots[i].params.size() && p < canon->size(); ++p) {
        const std::string& from = slots[i].params[p].name;
        const std::string& to = (*canon)[p].name;
        if (!from.empty() && !to.empty() && from != to) rename[from] = to;
      }
    }
    storage->push_back(RenameIdents(slots[i].mask, rename));
    literals.push_back({storage->back().get(), ((bits >> i) & 1) != 0});
  }
  return literals;
}

/// A solver whose integer variables are the group's integral parameters
/// (canonical names).
MaskSolver GroupSolver(const Alphabet& alphabet, size_t group) {
  MaskSolver::Options options;
  const std::vector<ParamDecl>* canon = CanonicalParams(alphabet, group);
  if (canon != nullptr) AddIntegerParams(*canon, &options);
  return MaskSolver(std::move(options));
}

/// The group owning `symbol`, or nullopt for OTHER.
std::optional<size_t> GroupOf(const Alphabet& alphabet, SymbolId symbol) {
  for (size_t g = 0; g < alphabet.num_groups(); ++g) {
    SymbolId base = alphabet.group_base(g);
    if (symbol >= base &&
        static_cast<size_t>(symbol) < base + alphabet.group_num_symbols(g)) {
      return g;
    }
  }
  return std::nullopt;
}

std::string RenderModelValue(double v) {
  if (std::fabs(v - std::round(v)) <= 1e-9 * std::max(1.0, std::fabs(v))) {
    return StrFormat("%lld", static_cast<long long>(std::llround(v)));
  }
  return StrFormat("%g", v);
}

}  // namespace

std::string RenderSymbolEvent(const Alphabet& alphabet, SymbolId symbol) {
  if (symbol == alphabet.other_symbol()) return "<other>";
  std::optional<size_t> g = GroupOf(alphabet, symbol);
  if (!g) return "<other>";
  const BasicEvent& spec = alphabet.group_spec(*g);
  if (spec.kind != BasicEventKind::kMethod) return spec.ToString();

  std::string out = spec.method_name;
  const std::vector<ParamDecl>* canon = CanonicalParams(alphabet, *g);
  if (canon == nullptr || canon->empty()) return out + "()";

  // Concrete argument values: a model of the symbol's signed mask
  // conjunction. Unconstrained parameters default to 0.
  size_t bits = static_cast<size_t>(symbol - alphabet.group_base(*g));
  std::vector<MaskExprPtr> storage;
  std::vector<MaskSolver::SignedMask> literals =
      SymbolLiterals(alphabet, *g, bits, &storage);
  std::optional<MaskSolver::Model> model =
      GroupSolver(alphabet, *g).FindModel(literals);

  out += "(";
  for (size_t p = 0; p < canon->size(); ++p) {
    if (p > 0) out += ", ";
    out += (*canon)[p].name;
    out += "=";
    if (model) {
      auto it = model->values.find((*canon)[p].name);
      out += it != model->values.end() ? RenderModelValue(it->second) : "0";
    } else {
      // No model within the work bounds (opaque/non-linear masks): the
      // history is still valid at the symbol level, but no concrete value
      // can be named.
      out += "?";
    }
  }
  out += ")";
  return out;
}

std::string SymbolInfeasibilityNote(const Alphabet& alphabet,
                                    SymbolId symbol) {
  std::optional<size_t> g = GroupOf(alphabet, symbol);
  if (!g) return {};
  size_t bits = static_cast<size_t>(symbol - alphabet.group_base(*g));
  std::vector<MaskExprPtr> storage;
  std::vector<MaskSolver::SignedMask> literals =
      SymbolLiterals(alphabet, *g, bits, &storage);
  if (literals.empty()) return {};
  std::optional<std::string> why =
      GroupSolver(alphabet, *g).RefuteConjunction(literals);
  if (why) return "unrealizable: " + *why;
  return "unrealizable: a required mask is constant";
}

std::optional<WitnessHistory> ReplayWitness(
    const Alphabet& alphabet, const std::vector<EventExprPtr>& subjects,
    std::vector<std::string> columns, std::string claim,
    const std::vector<SymbolId>& history, const ReplayCheck& valid) {
  std::vector<std::vector<bool>> points;
  points.reserve(subjects.size());
  for (const EventExprPtr& subject : subjects) {
    Result<std::vector<bool>> occurrence =
        Oracle(subject, &alphabet).OccurrencePoints(history);
    if (!occurrence.ok()) return std::nullopt;
    points.push_back(std::move(*occurrence));
  }
  if (!valid(points)) return std::nullopt;
  WitnessHistory w;
  w.claim = std::move(claim);
  w.columns = std::move(columns);
  w.steps.resize(history.size());
  for (size_t p = 0; p < history.size(); ++p) {
    w.steps[p].event = RenderSymbolEvent(alphabet, history[p]);
    for (const std::vector<bool>& subject_points : points) {
      w.steps[p].fires.push_back(subject_points[p]);
    }
  }
  return w;
}

bool AllFireAtEnd(const std::vector<std::vector<bool>>& points) {
  return std::all_of(points.begin(), points.end(),
                     [](const std::vector<bool>& p) {
                       return !p.empty() && p.back();
                     });
}

std::vector<std::vector<SymbolId>> RandomRealizableHistories(
    const std::vector<bool>& possible, size_t count, size_t length,
    uint64_t seed) {
  std::vector<SymbolId> realizable = AllowedSymbols(possible);
  if (realizable.empty()) return {};
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, realizable.size() - 1);
  std::vector<std::vector<SymbolId>> histories(
      count, std::vector<SymbolId>(length));
  for (std::vector<SymbolId>& history : histories) {
    for (SymbolId& sym : history) sym = realizable[pick(rng)];
  }
  return histories;
}

namespace {

/// A short realizable history touching each mask group once (its first
/// realizable micro-symbol) and ending with OTHER — the probe appended to
/// non-firing demonstrations.
std::vector<SymbolId> BuildProbe(const Alphabet& alphabet,
                                 const std::vector<bool>& possible,
                                 size_t max_len) {
  std::vector<SymbolId> probe;
  for (size_t g = 0; g < alphabet.num_groups() && probe.size() + 1 < max_len;
       ++g) {
    SymbolId base = alphabet.group_base(g);
    for (size_t i = 0; i < alphabet.group_num_symbols(g); ++i) {
      if (possible[base + i]) {
        probe.push_back(static_cast<SymbolId>(base + i));
        break;
      }
    }
  }
  if (probe.size() < max_len) probe.push_back(alphabet.other_symbol());
  return probe;
}

bool GatesUnsupported(const CompiledEvent& compiled) {
  return compiled.num_gates() > 0;
}

/// Keeps a replayed witness in `result`, or counts its validation failure.
/// Returns the kept history, for annotation.
WitnessHistory* Keep(std::optional<WitnessHistory> w, WitnessResult* result) {
  if (!w) {
    ++result->validation_failures;
    return nullptr;
  }
  result->histories.push_back(std::move(*w));
  return &result->histories.back();
}

/// ReplayCheck: the single subject fires at no point from `from` on.
ReplayCheck NeverFiresFrom(size_t from) {
  return [from](const std::vector<std::vector<bool>>& points) {
    return std::none_of(points[0].begin() + std::min(from, points[0].size()),
                        points[0].end(), [](bool b) { return b; });
  };
}

}  // namespace

WitnessResult EmptinessWitness(const CompiledEvent& compiled,
                               const std::string& name,
                               const WitnessOptions& options) {
  WitnessResult result;
  if (GatesUnsupported(compiled)) return result;
  const Alphabet& alphabet = compiled.alphabet;
  std::vector<bool> possible = ComputeAlphabetPossibleSymbols(alphabet);

  // 1) The shortest symbol-level accepting path. Since the language over
  // the realizable symbols is empty (A001), any such path uses impossible
  // events — each annotated with the solver's refutation.
  std::optional<std::vector<SymbolId>> path = ShortestAcceptedPath(
      compiled.dfa, compiled.dfa.start(),
      AllowedSymbols(std::vector<bool>(alphabet.size(), true)),
      options.max_steps);
  if (path) {
    WitnessHistory* w = Keep(
        ReplayWitness(
            alphabet, {compiled.expr}, {name},
            StrFormat("the only histories matching the expression require "
                      "impossible events (shortest shown); '%s' cannot fire "
                      "on any real history",
                      name.c_str()),
            *path, AllFireAtEnd),
        &result);
    for (size_t i = 0; w != nullptr && i < path->size(); ++i) {
      if (!possible[(*path)[i]]) {
        w->steps[i].note = SymbolInfeasibilityNote(alphabet, (*path)[i]);
      }
    }
  }

  // 2) A realizable probe the oracle confirms never fires.
  Keep(ReplayWitness(
           alphabet, {compiled.expr}, {name},
           StrFormat("probe: a realizable history on which '%s' never fires "
                     "(validated against the §4 oracle)",
                     name.c_str()),
           BuildProbe(alphabet, possible, options.probe_steps),
           NeverFiresFrom(0)),
       &result);
  return result;
}

WitnessResult UniversalityWitness(const CompiledEvent& compiled,
                                  const std::string& name,
                                  const WitnessOptions& options) {
  WitnessResult result;
  if (GatesUnsupported(compiled)) return result;
  const Alphabet& alphabet = compiled.alphabet;
  std::vector<bool> possible = ComputeAlphabetPossibleSymbols(alphabet);

  std::vector<SymbolId> sample =
      BuildProbe(alphabet, possible, options.probe_steps);
  if (sample.empty()) return result;
  Keep(ReplayWitness(
           alphabet, {compiled.expr}, {name},
           StrFormat("sample realizable history — '%s' fires at every step "
                     "(it fires at every point of every realizable history)",
                     name.c_str()),
           sample,
           [](const std::vector<std::vector<bool>>& points) {
             return std::all_of(points[0].begin(), points[0].end(),
                                [](bool b) { return b; });
           }),
       &result);
  return result;
}

WitnessResult DeadStateWitness(const CompiledEvent& compiled,
                               const std::string& name,
                               const WitnessOptions& options) {
  WitnessResult result;
  if (GatesUnsupported(compiled)) return result;
  const Alphabet& alphabet = compiled.alphabet;
  const Dfa& dfa = compiled.dfa;
  std::vector<bool> possible = ComputeAlphabetPossibleSymbols(alphabet);

  // Shortest realizable path into a dead state: one from which no
  // accepting state is reachable.
  std::vector<int32_t> dist = DistanceToAccepting(dfa, possible);
  SearchTree tree;
  std::optional<std::vector<SymbolId>> path = ShortestPath(
      dfa.start(), AllowedSymbols(possible), options.max_steps,
      [&dfa](int32_t s, SymbolId y) { return dfa.Step(s, y); },
      [&dist](int32_t s) { return dist[s] < 0; }, &tree);
  if (!path) return result;
  size_t entry = path->size() - 1;  // 0-based index of the entering step.

  std::vector<SymbolId> history = *path;
  for (SymbolId s : BuildProbe(alphabet, possible, options.probe_steps)) {
    history.push_back(s);
  }
  WitnessHistory* w = Keep(
      ReplayWitness(
          alphabet, {compiled.expr}, {name},
          StrFormat("shortest realizable history driving '%s' into a dead "
                    "state (the probe suffix confirms it can never fire "
                    "again)",
                    name.c_str()),
          history, NeverFiresFrom(entry)),
      &result);
  if (w != nullptr) {
    w->steps[entry].note =
        "dead: from this point no accepting state is reachable";
  }
  return result;
}

WitnessResult PairWitness(const EventExprPtr& a, const EventExprPtr& b,
                          const std::string& name_a,
                          const std::string& name_b, PairRelation relation,
                          bool via_mask_implication,
                          const WitnessOptions& options) {
  WitnessResult result;
  if (relation == PairRelation::kIncomparable ||
      relation == PairRelation::kDistinct) {
    return result;
  }
  Result<std::optional<JointPair>> compiled =
      CompileJointPair(a, b, options.compile);
  if (!compiled.ok() || !compiled->has_value()) return result;
  const JointPair& joint = **compiled;
  std::vector<SymbolId> symbols = AllowedSymbols(joint.possible);
  // Replays a history through both cores; `a_end`/`b_end` is the firing
  // each must show at the last step.
  auto replay = [&](const std::vector<SymbolId>& history, std::string claim,
                    bool a_end, bool b_end) {
    Keep(ReplayWitness(joint.alphabet, {joint.core_a, joint.core_b},
                       {name_a, name_b}, std::move(claim), history,
                       [a_end, b_end](const auto& points) {
                         return !points[0].empty() &&
                                points[0].back() == a_end &&
                                points[1].back() == b_end;
                       }),
         &result);
  };

  // Witnesses speak about the *core* languages; when the verdict relied on
  // root-mask implication (A007), say so in the claim — the mask gates
  // run-time state the history cannot bind.
  const char* mask_caveat =
      via_mask_implication
          ? " (plus the solver-proven root-mask implication)"
          : "";

  // The "both fire" instance: shortest string in the contained language
  // (for equivalence, either one — intersect for symmetry).
  const Dfa& inner = relation == PairRelation::kASubsumesB ? joint.dfa_b
                     : relation == PairRelation::kBSubsumesA
                         ? joint.dfa_a
                         : joint.dfa_b;
  Dfa both_dfa = relation == PairRelation::kEquivalent
                     ? IntersectDfa(joint.dfa_a, joint.dfa_b)
                     : inner;
  std::optional<std::vector<SymbolId>> both = ShortestAcceptedPath(
      both_dfa, both_dfa.start(), symbols, options.max_steps);
  if (both) {
    std::string claim =
        relation == PairRelation::kEquivalent
            ? StrFormat("shortest realizable history on which '%s' and '%s' "
                        "both fire — they fire together everywhere%s",
                        name_a.c_str(), name_b.c_str(), mask_caveat)
            : StrFormat("shortest realizable history firing '%s' — '%s' "
                        "fires there too%s",
                        (relation == PairRelation::kASubsumesB ? name_b
                                                               : name_a)
                            .c_str(),
                        (relation == PairRelation::kASubsumesB ? name_a
                                                               : name_b)
                            .c_str(),
                        mask_caveat);
    replay(*both, std::move(claim), true, true);
  }

  // The strictness instance for proper subsumption: a history firing only
  // the subsuming trigger.
  if (relation == PairRelation::kASubsumesB ||
      relation == PairRelation::kBSubsumesA) {
    bool a_outer = relation == PairRelation::kASubsumesB;
    const Dfa& outer_dfa = a_outer ? joint.dfa_a : joint.dfa_b;
    const Dfa& inner_dfa = a_outer ? joint.dfa_b : joint.dfa_a;
    Dfa only_dfa = IntersectDfa(outer_dfa, ComplementSigmaPlus(inner_dfa));
    std::optional<std::vector<SymbolId>> only = ShortestAcceptedPath(
        only_dfa, only_dfa.start(), symbols, options.max_steps);
    if (only) {
      replay(*only,
             StrFormat("history firing '%s' but not '%s' — the containment "
                       "is strict",
                       (a_outer ? name_a : name_b).c_str(),
                       (a_outer ? name_b : name_a).c_str()),
             a_outer, !a_outer);
    }
  }
  return result;
}

WitnessResult GroupWitness(const CombinedProgram& program,
                           const std::vector<std::string>& member_names,
                           const WitnessOptions& options) {
  WitnessResult result;
  if (program.num_triggers() < 2) return result;
  const Alphabet& alphabet = program.alphabet();
  const Dfa& dfa = program.dfa();

  // Shortest realizable history on which at least two members have fired
  // (cumulatively): the search over (product state, fired-members mask)
  // nodes, interned to ids as the search discovers them. The budget of
  // nodes discovered besides the root bounds the fired-mask blowup of
  // large groups.
  constexpr size_t kMaxNodes = 4097;
  using Node = std::pair<Dfa::State, uint64_t>;
  std::vector<Node> nodes{{dfa.start(), 0}};
  std::map<Node, int32_t> ids{{nodes[0], 0}};
  auto step = [&](int32_t node, SymbolId y) -> int32_t {
    Dfa::State to = dfa.Step(nodes[node].first, y);
    Node next{to, nodes[node].second | program.AcceptMask(to)};
    auto it = ids.find(next);
    if (it != ids.end()) return it->second;
    if (nodes.size() > kMaxNodes) return -1;
    nodes.push_back(next);
    return ids[next] = static_cast<int32_t>(nodes.size() - 1);
  };
  auto two_fired = [&](int32_t node) {
    return std::popcount(nodes[node].second) >= 2;
  };
  SearchTree tree;
  std::optional<std::vector<SymbolId>> found = ShortestPath(
      0, AllowedSymbols(ComputeAlphabetPossibleSymbols(alphabet)),
      options.max_steps, step, two_fired, &tree);
  if (!found) return result;

  // Validate every member's per-step firing against its oracle.
  std::vector<EventExprPtr> members;
  for (size_t i = 0; i < program.num_triggers(); ++i) {
    members.push_back(program.spec(i).event);
  }
  Keep(ReplayWitness(
           alphabet, members, member_names,
           "shortest realizable history on which two of the grouped triggers "
           "fire — one shared automaton step would serve both",
           *found,
           [](const std::vector<std::vector<bool>>& points) {
             return std::count_if(points.begin(), points.end(),
                                  [](const std::vector<bool>& p) {
                                    return std::find(p.begin(), p.end(),
                                                     true) != p.end();
                                  }) >= 2;
           }),
       &result);
  return result;
}

}  // namespace ode
