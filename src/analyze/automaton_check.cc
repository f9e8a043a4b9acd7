#include "analyze/automaton_check.h"

#include <algorithm>
#include <string>

#include "analyze/mask_check.h"
#include "analyze/mask_solver.h"
#include "automaton/determinize.h"
#include "automaton/minimize.h"

namespace ode {

namespace {

/// Largest mask group the solver sweeps for joint infeasibility: 2^6
/// sign patterns × a DNF check each is the point past which the sweep
/// costs more than the pruning is worth.
constexpr size_t kMaxSolverGroupMasks = 6;

}  // namespace

std::vector<bool> ComputeAlphabetPossibleSymbols(const Alphabet& alphabet) {
  std::vector<bool> base(alphabet.size(), true);
  for (size_t g = 0; g < alphabet.num_groups(); ++g) {
    const std::vector<MaskSlot>& masks = alphabet.group_masks(g);
    if (masks.empty()) continue;
    // Parameters declared with integral types make the solver's gap cuts
    // sound for this group: `q > 1 && q < 2` over a declared `int q` has
    // no realizable micro-symbol asserting both.
    MaskSolver::Options solver_options;
    AddIntegerParams(alphabet.group_spec(g).params, &solver_options);
    for (const MaskSlot& slot : masks) {
      AddIntegerParams(slot.params, &solver_options);
    }
    MaskSolver solver(std::move(solver_options));
    std::vector<MaskTruth> truth(masks.size());
    for (size_t i = 0; i < masks.size(); ++i) {
      truth[i] = AnalyzeMaskTruth(*masks[i].mask);
      // The interval engine is integer-blind; give the undecided masks a
      // second look with the integer-aware solver.
      if (truth[i] == MaskTruth::kUnknown) {
        truth[i] = solver.Truth(*masks[i].mask);
      }
    }
    bool sweep_conjunctions = masks.size() >= 2 &&
                              masks.size() <= kMaxSolverGroupMasks;
    SymbolId first = alphabet.group_base(g);
    for (size_t bits = 0; bits < alphabet.group_num_symbols(g); ++bits) {
      bool possible = true;
      for (size_t i = 0; i < masks.size(); ++i) {
        bool required = (bits >> i) & 1;
        if ((required && truth[i] == MaskTruth::kNever) ||
            (!required && truth[i] == MaskTruth::kAlways)) {
          possible = false;
          break;
        }
      }
      if (possible && sweep_conjunctions) {
        // Per-mask truth passed; the *joint* sign assignment may still be
        // contradictory (`q > 100` asserted while `q > 50` is denied).
        std::vector<MaskSolver::SignedMask> conj(masks.size());
        for (size_t i = 0; i < masks.size(); ++i) {
          conj[i] = {masks[i].mask.get(), ((bits >> i) & 1) != 0};
        }
        possible = solver.ConjunctionSatisfiable(conj);
      }
      base[first + bits] = possible;
    }
  }
  return base;
}

std::vector<bool> ComputePossibleSymbols(const CompiledEvent& compiled) {
  const Alphabet& alphabet = compiled.alphabet;
  std::vector<bool> base = ComputeAlphabetPossibleSymbols(alphabet);
  // The DFA runs over the extended alphabet (base symbol × gate bits); a
  // gate bit can go either way, so extended feasibility is the base's.
  size_t gates = compiled.num_gates();
  if (gates == 0) return base;
  std::vector<bool> extended(compiled.extended_alphabet_size(), true);
  for (size_t s = 0; s < base.size(); ++s) {
    for (size_t bits = 0; bits < (size_t{1} << gates); ++bits) {
      extended[(s << gates) | bits] = base[s];
    }
  }
  return extended;
}

std::vector<SymbolId> AllowedSymbols(const std::vector<bool>& possible) {
  std::vector<SymbolId> symbols;
  for (size_t s = 0; s < possible.size(); ++s) {
    if (possible[s]) symbols.push_back(static_cast<SymbolId>(s));
  }
  return symbols;
}

std::vector<SymbolId> SearchTree::PathTo(int32_t node) const {
  std::vector<SymbolId> path(depth[node]);
  for (size_t i = path.size(); i-- > 0; node = parent[node]) {
    path[i] = via[node];
  }
  return path;
}

void SearchTree::Reset(int32_t root) {
  order.assign(1, root);
  parent.assign(root + 1, -1);
  via.assign(root + 1, -1);
  depth.assign(root + 1, kUnreached);
  depth[root] = 0;
}

void SearchTree::Discover(int32_t node, int32_t from, SymbolId symbol) {
  if (static_cast<size_t>(node) >= depth.size()) {
    parent.resize(node + 1, -1);
    via.resize(node + 1, -1);
    depth.resize(node + 1, kUnreached);
  }
  if (depth[node] != kUnreached) return;
  parent[node] = from;
  via[node] = symbol;
  depth[node] = depth[from] + 1;
  order.push_back(node);
}

namespace {

auto DfaStep(const Dfa& dfa) {
  return [&dfa](int32_t s, SymbolId y) { return dfa.Step(s, y); };
}

}  // namespace

std::optional<std::vector<SymbolId>> ShortestAcceptedPath(
    const Dfa& dfa, Dfa::State from, const std::vector<SymbolId>& symbols,
    size_t max_steps, SearchTree* tree) {
  SearchTree local;
  return ShortestPath(
      from, symbols, max_steps, DfaStep(dfa),
      [&dfa](int32_t s) { return dfa.accepting(s); },
      tree != nullptr ? tree : &local);
}

SearchTree ReachableStates(const Dfa& dfa, Dfa::State from,
                           const std::vector<SymbolId>& symbols) {
  SearchTree tree;
  ShortestPath(from, symbols, SIZE_MAX, DfaStep(dfa),
               [](int32_t) { return false; }, &tree);
  return tree;
}

std::vector<int32_t> DistanceToAccepting(const Dfa& dfa,
                                         const std::vector<bool>& possible) {
  const size_t n = dfa.num_states();
  std::vector<std::vector<Dfa::State>> reverse(n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t sym = 0; sym < dfa.alphabet_size(); ++sym) {
      if (!possible[sym]) continue;
      reverse[dfa.Step(static_cast<Dfa::State>(s),
                       static_cast<SymbolId>(sym))]
          .push_back(static_cast<Dfa::State>(s));
    }
  }
  std::vector<int32_t> dist(n, -1);
  std::vector<Dfa::State> queue;
  for (size_t s = 0; s < n; ++s) {
    if (dfa.accepting(static_cast<Dfa::State>(s))) {
      dist[s] = 0;
      queue.push_back(static_cast<Dfa::State>(s));
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    Dfa::State cur = queue[head];
    for (Dfa::State pred : reverse[cur]) {
      if (dist[pred] == -1) {
        dist[pred] = dist[cur] + 1;
        queue.push_back(pred);
      }
    }
  }
  return dist;
}

bool DfaEmptySigmaPlus(const Dfa& dfa, const std::vector<bool>& possible) {
  return !ShortestAcceptedPath(dfa, dfa.start(), AllowedSymbols(possible),
                               SIZE_MAX)
              .has_value();
}

bool DfaUniversalSigmaPlus(const Dfa& dfa, const std::vector<bool>& possible) {
  std::vector<SymbolId> symbols = AllowedSymbols(possible);
  if (symbols.empty()) return false;  // No realizable history at all.
  SearchTree tree;
  return !ShortestPath(
              dfa.start(), symbols, SIZE_MAX, DfaStep(dfa),
              [&dfa](int32_t s) { return !dfa.accepting(s); }, &tree)
              .has_value();
}

StateReport AnalyzeStates(const Dfa& dfa, const std::vector<bool>& possible) {
  StateReport report;
  report.total = dfa.num_states();
  SearchTree reachable =
      ReachableStates(dfa, dfa.start(), AllowedSymbols(possible));
  std::vector<int32_t> dist = DistanceToAccepting(dfa, possible);
  for (size_t s = 0; s < dfa.num_states(); ++s) {
    if (!reachable.reached(static_cast<Dfa::State>(s))) {
      ++report.unreachable;
    } else if (dist[s] < 0) {
      ++report.dead;
    }
  }
  return report;
}

namespace {

/// Strips the root chain of kMasked nodes, collecting each stripped mask
/// (the compiler does the same into composite_masks). Masks are deduped by
/// canonical text, sorted for set comparison.
struct RootMasks {
  std::vector<std::string> texts;   ///< Sorted, unique canonical texts.
  std::vector<MaskExprPtr> exprs;   ///< In the same order as `texts`.
};

EventExprPtr StripRootMasks(EventExprPtr e, RootMasks* masks = nullptr) {
  std::vector<std::pair<std::string, MaskExprPtr>> found;
  while (e->kind == EventExprKind::kMasked) {
    if (masks != nullptr) found.emplace_back(e->mask->ToString(), e->mask);
    e = e->children[0];
  }
  if (masks == nullptr) return e;
  std::sort(found.begin(), found.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (auto& [text, expr] : found) {
    if (!masks->texts.empty() && masks->texts.back() == text) continue;
    masks->texts.push_back(std::move(text));
    masks->exprs.push_back(std::move(expr));
  }
  return e;
}

/// The conjunction of a stripped root-mask set as one MaskExpr (the empty
/// set is the mask `true`).
MaskExprPtr MaskConjunction(const RootMasks& masks) {
  if (masks.exprs.empty()) return MaskExpr::Literal(Value(true));
  MaskExprPtr conj = masks.exprs[0];
  for (size_t i = 1; i < masks.exprs.size(); ++i) {
    conj = MaskExpr::And(conj, masks.exprs[i]);
  }
  return conj;
}

bool HasMaskedNode(const EventExpr& e) {
  if (e.kind == EventExprKind::kMasked) return true;
  for (const EventExprPtr& c : e.children) {
    if (HasMaskedNode(*c)) return true;
  }
  return false;
}

}  // namespace

Result<std::optional<JointPair>> CompileJointPair(
    const EventExprPtr& a, const EventExprPtr& b,
    const CompileOptions& options) {
  JointPair joint;
  joint.core_a = StripRootMasks(a);
  joint.core_b = StripRootMasks(b);
  // Nested composite masks compile to gates whose bits depend on run-time
  // state — not a regular-language question anymore.
  if (HasMaskedNode(*joint.core_a) || HasMaskedNode(*joint.core_b)) {
    return std::optional<JointPair>();
  }
  // One alphabet over both expressions, so their DFAs share symbols. Build
  // can fail (e.g. one trigger uses a signature the other omits): that is
  // an overlap the §5 rewrite cannot express.
  EventExprPtr joined = EventExpr::Or(joint.core_a, joint.core_b);
  Result<Alphabet> alphabet = Alphabet::Build(*joined, options.alphabet);
  if (!alphabet.ok()) return std::optional<JointPair>();
  joint.alphabet = std::move(*alphabet);

  ODE_ASSIGN_OR_RETURN(Nfa nfa_a,
                       CompileToNfa(*joint.core_a, joint.alphabet, options));
  ODE_ASSIGN_OR_RETURN(Nfa nfa_b,
                       CompileToNfa(*joint.core_b, joint.alphabet, options));
  ODE_ASSIGN_OR_RETURN(joint.dfa_a, Determinize(nfa_a, options.max_states));
  ODE_ASSIGN_OR_RETURN(joint.dfa_b, Determinize(nfa_b, options.max_states));
  // A micro-symbol whose signed mask conjunction the solver refutes
  // cannot occur in any history.
  joint.possible = ComputeAlphabetPossibleSymbols(joint.alphabet);
  return std::optional<JointPair>(std::move(joint));
}

Result<PairComparison> CompareEventExprsDetailed(const EventExprPtr& a,
                                                 const EventExprPtr& b,
                                                 const CompileOptions& options) {
  PairComparison result;
  RootMasks masks_a, masks_b;
  StripRootMasks(a, &masks_a);
  StripRootMasks(b, &masks_b);

  // Root masks gate firing on run-time state. With equal sets the gates
  // cancel and the core languages decide the relation outright. With
  // differing sets, the solver may still prove one conjunction entails the
  // other — then containment (not equivalence) verdicts survive, flagged
  // via_mask_implication.
  bool masks_equal = masks_a.texts == masks_b.texts;
  bool a_implies_b = masks_equal;
  bool b_implies_a = masks_equal;
  if (!masks_equal) {
    MaskSolver solver;
    MaskExprPtr conj_a = MaskConjunction(masks_a);
    MaskExprPtr conj_b = MaskConjunction(masks_b);
    a_implies_b = solver.Implies(*conj_a, *conj_b);
    b_implies_a = solver.Implies(*conj_b, *conj_a);
    if (!a_implies_b && !b_implies_a) return result;  // kIncomparable.
  }

  ODE_ASSIGN_OR_RETURN(std::optional<JointPair> joint,
                       CompileJointPair(a, b, options));
  if (!joint) return result;  // kIncomparable.

  // Containment is decided over *realizable* joint symbols only: strings
  // using a solver-refuted symbol don't witness distinctness.
  // L(b) ⊆ L(a)  iff  L(b) ∩ (Σ⁺ \ L(a)) = ∅. Event languages never
  // contain ε, so plain emptiness of the product suffices.
  Dfa not_a = ComplementSigmaPlus(joint->dfa_a);
  Dfa not_b = ComplementSigmaPlus(joint->dfa_b);
  bool core_b_in_a =
      DfaEmptySigmaPlus(IntersectDfa(joint->dfa_b, not_a), joint->possible);
  bool core_a_in_b =
      DfaEmptySigmaPlus(IntersectDfa(joint->dfa_a, not_b), joint->possible);

  // Firings(x) ⊆ firings(y) needs both the core-language containment and
  // the mask-conjunction implication in the same direction.
  bool b_in_a = core_b_in_a && b_implies_a;
  bool a_in_b = core_a_in_b && a_implies_b;
  result.via_mask_implication = !masks_equal;
  if (a_in_b && b_in_a) {
    result.relation = PairRelation::kEquivalent;
  } else if (b_in_a) {
    result.relation = PairRelation::kASubsumesB;
  } else if (a_in_b) {
    result.relation = PairRelation::kBSubsumesA;
  } else if (masks_equal) {
    result.relation = PairRelation::kDistinct;
  }  // Differing masks without proven containment: kIncomparable.
  return result;
}

Result<PairRelation> CompareEventExprs(const EventExprPtr& a,
                                       const EventExprPtr& b,
                                       const CompileOptions& options) {
  ODE_ASSIGN_OR_RETURN(PairComparison cmp,
                       CompareEventExprsDetailed(a, b, options));
  return cmp.relation;
}

}  // namespace ode
