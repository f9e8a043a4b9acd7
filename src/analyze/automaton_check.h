#ifndef ODE_ANALYZE_AUTOMATON_CHECK_H_
#define ODE_ANALYZE_AUTOMATON_CHECK_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "automaton/dfa.h"
#include "common/result.h"
#include "compile/compiler.h"

namespace ode {

/// Per-symbol feasibility of a compiled trigger's (extended) alphabet.
///
/// A micro-symbol is *impossible* when Classify can never produce it: some
/// mask slot of its group is statically never-true but the symbol's sign
/// bit requires it to hold (or the slot is always-true and the bit requires
/// it to fail). Impossible symbols never appear in a real history, so
/// emptiness/universality are decided over the possible ones only — an
/// unsatisfiable mask does not make the DFA language empty, but it does
/// make the trigger unfireable, and this is where the two views meet.
std::vector<bool> ComputePossibleSymbols(const CompiledEvent& compiled);

/// Per-symbol feasibility of a bare alphabet (no gate extension). Combines
/// two layers: per-mask three-valued truth (a never-true slot kills every
/// symbol asserting it), and the linear solver's conjunction check — a
/// symbol whose *signed* mask conjunction is unsatisfiable (e.g. the bit
/// pattern demanding `q > 100 && !(q > 50)`) is pruned even though each
/// mask alone is satisfiable.
std::vector<bool> ComputeAlphabetPossibleSymbols(const Alphabet& alphabet);

// --- The search kernel ----------------------------------------------------
//
// Every layer-2 verdict, witness, cascade edge and group overlap is a
// question about paths through a compiled §5 automaton. These are the
// analyzer's only searches: one forward BFS, one backward closure, and
// one joint-alphabet pair compile. Searches step only on the symbols they
// are given, in ascending order, so every path they return is the
// lexicographically least among the shortest — deterministic and
// diff-stable.

/// The symbols a `possible` mask allows, ascending.
std::vector<SymbolId> AllowedSymbols(const std::vector<bool>& possible);

/// The tree a ShortestPath search grows: every node it reached, with the
/// first-discovery edge into it. Node ids are dense non-negative integers
/// (DFA states, or ids a caller hands out for product nodes).
struct SearchTree {
  static constexpr uint32_t kUnreached = UINT32_MAX;
  std::vector<int32_t> order;   ///< Reached nodes in discovery order.
  std::vector<int32_t> parent;  ///< Per node id; -1 for the root.
  std::vector<SymbolId> via;    ///< Per node id: the symbol from `parent`.
  std::vector<uint32_t> depth;  ///< Per node id: steps from the root.

  bool reached(int32_t node) const {
    return static_cast<size_t>(node) < depth.size() &&
           depth[node] != kUnreached;
  }
  /// The lexicographically-least shortest path from the root to a reached
  /// node (empty for the root itself).
  std::vector<SymbolId> PathTo(int32_t node) const;

  /// Starts a new tree holding only `root`.
  void Reset(int32_t root);
  /// Records `node` as reached from `from` over `symbol`, unless it
  /// already was.
  void Discover(int32_t node, int32_t from, SymbolId symbol);
};

/// The forward search: breadth-first from `root`, stepping every reached
/// node of depth < `max_steps` on each of `symbols` (ascending).
/// `step(node, symbol)` returns the successor id, or -1 to prune the edge.
/// Returns the first path of length >= 1 that arrives at a node
/// satisfying `is_target` — the lexicographically-least shortest one, of
/// length at most `max_steps`. Targets are checked on arrival, so a path
/// back into the root counts. nullopt when no target is reachable within
/// the cap; `*tree` then holds every node reached.
template <typename Step, typename IsTarget>
std::optional<std::vector<SymbolId>> ShortestPath(
    int32_t root, const std::vector<SymbolId>& symbols, size_t max_steps,
    Step step, IsTarget is_target, SearchTree* tree) {
  tree->Reset(root);
  for (size_t head = 0; head < tree->order.size(); ++head) {
    const int32_t node = tree->order[head];
    if (tree->depth[node] >= max_steps) continue;
    for (SymbolId symbol : symbols) {
      const int32_t to = step(node, symbol);
      if (to < 0) continue;
      if (is_target(to)) {
        std::vector<SymbolId> path = tree->PathTo(node);
        path.push_back(symbol);
        return path;
      }
      tree->Discover(to, node, symbol);
    }
  }
  return std::nullopt;
}

/// ShortestPath over `dfa` from `from` into an accepting state.
std::optional<std::vector<SymbolId>> ShortestAcceptedPath(
    const Dfa& dfa, Dfa::State from, const std::vector<SymbolId>& symbols,
    size_t max_steps, SearchTree* tree = nullptr);

/// Every state reachable from `from` over `symbols`, as a search tree.
SearchTree ReachableStates(const Dfa& dfa, Dfa::State from,
                           const std::vector<SymbolId>& symbols);

/// The backward closure: per state, the fewest `possible` symbols that
/// drive it into an accepting state (0 for accepting states), or -1 when
/// none does — a dead state, from which the trigger can never fire.
std::vector<int32_t> DistanceToAccepting(const Dfa& dfa,
                                         const std::vector<bool>& possible);

/// Two triggers' event expressions compiled over one joint alphabet, the
/// construction behind pairwise comparison, pair witnesses and the --fix
/// oracle gate.
struct JointPair {
  EventExprPtr core_a;  ///< `a` with its root composite masks stripped.
  EventExprPtr core_b;
  Alphabet alphabet;    ///< Built from `core_a | core_b`.
  Dfa dfa_a;
  Dfa dfa_b;
  std::vector<bool> possible;  ///< Realizable joint symbols.
};

/// nullopt when the pair is structurally incomparable: a core keeps a
/// nested composite mask (a gate on run-time state), or the two cores
/// admit no joint alphabet. Compilation errors (resource limits) are
/// returned as errors.
Result<std::optional<JointPair>> CompileJointPair(
    const EventExprPtr& a, const EventExprPtr& b,
    const CompileOptions& options);

/// True iff the DFA accepts no string of length >= 1 over the `possible`
/// symbols (Σ⁺ emptiness: a trigger never fires on any realizable
/// history). `possible` must have dfa.alphabet_size() entries.
bool DfaEmptySigmaPlus(const Dfa& dfa, const std::vector<bool>& possible);

/// True iff the DFA accepts every string of length >= 1 over the
/// `possible` symbols (Σ⁺ universality: the trigger fires at every history
/// point — almost certainly a specification bug).
bool DfaUniversalSigmaPlus(const Dfa& dfa, const std::vector<bool>& possible);

/// State-liveness report over the possible symbols.
struct StateReport {
  size_t total = 0;        ///< States in the DFA.
  size_t unreachable = 0;  ///< Not reachable from the start state.
  size_t dead = 0;         ///< Reachable but no accepting state is reachable
                           ///< from them (monitoring continues but can
                           ///< never fire once entered).
};
StateReport AnalyzeStates(const Dfa& dfa, const std::vector<bool>& possible);

/// Language relation between two triggers' event expressions.
enum class PairRelation : uint8_t {
  kIncomparable = 0,  ///< Analyzer cannot decide (gates, root-mask
                      ///< mismatch, alphabet conflict).
  kEquivalent,        ///< Same language: the triggers fire at exactly the
                      ///< same history points.
  kASubsumesB,        ///< L(b) ⊆ L(a): every firing of b is a firing of a.
  kBSubsumesA,        ///< L(a) ⊆ L(b).
  kDistinct,          ///< Neither contains the other.
};

/// Decides the relation by compiling both expressions over one *joint*
/// alphabet (built from `a | b`) and comparing the DFAs — the paper's
/// registration-time decidability claim (§4/§5) made executable.
///
/// Root composite masks are stripped and compared textually: differing
/// root-mask sets make the pair kIncomparable (the masks consult run-time
/// state the analyzer cannot see). Expressions with *nested* composite
/// masks (compiled as gates) are kIncomparable for the same reason.
Result<PairRelation> CompareEventExprs(const EventExprPtr& a,
                                       const EventExprPtr& b,
                                       const CompileOptions& options = {});

/// Comparison verdict plus how it was reached.
struct PairComparison {
  PairRelation relation = PairRelation::kIncomparable;
  /// True when the verdict required solver-proved implication between the
  /// two triggers' *differing* root-mask conjunctions (A007 territory):
  /// the containment holds because one mask set entails the other, not
  /// because the mask sets are textually equal.
  bool via_mask_implication = false;
};

/// Like CompareEventExprs, but (1) decides containment over *realizable*
/// joint symbols (solver-pruned micro-symbols cannot occur in any
/// history), and (2) when the root-mask sets differ, attempts to prove
/// implication between the two mask conjunctions with the linear solver —
/// upgrading pairs the textual comparison calls kIncomparable into
/// subsumption/equivalence verdicts flagged `via_mask_implication`.
Result<PairComparison> CompareEventExprsDetailed(
    const EventExprPtr& a, const EventExprPtr& b,
    const CompileOptions& options = {});

}  // namespace ode

#endif  // ODE_ANALYZE_AUTOMATON_CHECK_H_
