#ifndef ODE_ANALYZE_WITNESS_H_
#define ODE_ANALYZE_WITNESS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analyze/automaton_check.h"
#include "analyze/diagnostic.h"
#include "compile/combined.h"
#include "compile/compiler.h"

namespace ode {

/// The witness engine: turns every layer-2 analyzer verdict from a bare
/// assertion into a *demonstrated* claim by synthesizing a minimal concrete
/// event history — method calls with concrete argument values — that
/// exhibits the verdict.
///
/// ## Construction
///
/// Histories are found by the analyzer's search kernel (ShortestPath in
/// analyze/automaton_check.h) over the (product) DFA restricted to
/// *realizable* micro-symbols (symbols whose signed mask conjunction the
/// solver cannot refute), so every witness is a history the run-time
/// system could actually observe, and the lexicographically-least
/// shortest one — rendering is deterministic and diff-stable. Concrete
/// argument values come from solver model generation (Fourier–Motzkin
/// back-substitution over the symbol's signed mask conjunction, integral
/// values preferred; parameters declared `int` always receive integers).
///
/// ## The validation guarantee (mirrors `--fix`)
///
/// Every history is replayed through the §4 denotational oracle before it
/// is reported, and the oracle's occurrence points must exhibit exactly the
/// claimed behavior (fire / not-fire per step, per subject). A history that
/// fails replay is suppressed and counted in
/// `WitnessResult::validation_failures` — a witness you see is a witness
/// that ran.
///
/// ## Limits
///
/// Triggers with nested composite masks (compiled as gates) get no
/// witnesses: their firing consults run-time database state outside the
/// history, which neither the oracle nor a static history can bind. That is
/// a skip (empty result), not a validation failure.
struct WitnessOptions {
  CompileOptions compile;
  /// BFS depth cap per history (shortest-path search gives up past it).
  size_t max_steps = 16;
  /// Length cap for probe histories (the realizable sample appended to
  /// emptiness/dead-state witnesses to demonstrate non-firing).
  size_t probe_steps = 4;
};

struct WitnessResult {
  /// Oracle-validated histories, in presentation order.
  std::vector<WitnessHistory> histories;
  /// Histories that were built but failed oracle replay and were
  /// suppressed. Nonzero values indicate an analyzer/oracle disagreement
  /// worth investigating; the shipped fixtures assert zero.
  size_t validation_failures = 0;
};

/// A001: the trigger can never fire. Produces up to two histories: the
/// shortest *symbol-level* accepting path (which necessarily uses
/// impossible events — each annotated with the solver's UNSAT certificate),
/// and a realizable probe history on which the oracle confirms the trigger
/// never fires.
WitnessResult EmptinessWitness(const CompiledEvent& compiled,
                               const std::string& name,
                               const WitnessOptions& options = {});

/// A002: the trigger fires at every history point. Produces one sample
/// realizable history, oracle-validated to fire at every step.
WitnessResult UniversalityWitness(const CompiledEvent& compiled,
                                  const std::string& name,
                                  const WitnessOptions& options = {});

/// A003: the automaton has dead states. Produces the shortest realizable
/// history entering a dead state, extended with a realizable probe suffix
/// the oracle confirms never fires after the entry point.
WitnessResult DeadStateWitness(const CompiledEvent& compiled,
                               const std::string& name,
                               const WitnessOptions& options = {});

/// A004/A005/A007: equivalence / subsumption between two triggers. For
/// equivalence: the shortest realizable history on which both fire. For
/// subsumption (firings(inner) ⊆ firings(outer)): that history plus one
/// firing only the outer trigger — demonstrating strictness. Both triggers
/// are recompiled over a joint alphabet (the same construction the
/// comparison used); pairs the comparison could not decide return empty.
WitnessResult PairWitness(const EventExprPtr& a, const EventExprPtr& b,
                          const std::string& name_a,
                          const std::string& name_b, PairRelation relation,
                          bool via_mask_implication,
                          const WitnessOptions& options = {});

/// G001: a verified trigger-group suggestion. Produces the shortest
/// realizable history on which at least two member triggers have fired —
/// the overlap one shared automaton step would serve — with each member's
/// per-step firing validated against its oracle.
WitnessResult GroupWitness(const CombinedProgram& program,
                           const std::vector<std::string>& member_names,
                           const WitnessOptions& options = {});

/// --- Building blocks (shared with cascade, group planning and --fix) ----

/// Renders one micro-symbol as a concrete event: `withdraw(q=150)` for a
/// method symbol (argument values from solver model generation over the
/// symbol's signed mask conjunction), `after create` / `at time(HR=9)` for
/// non-method symbols, `<other>` for the OTHER symbol.
std::string RenderSymbolEvent(const Alphabet& alphabet, SymbolId symbol);

/// The solver's UNSAT certificate for an impossible micro-symbol (empty
/// when the symbol is realizable or the refutation came from a constant
/// mask rather than the linear engine).
std::string SymbolInfeasibilityNote(const Alphabet& alphabet,
                                    SymbolId symbol);

/// The replay kernel: runs `history` through the §4 oracle of each
/// subject (over `alphabet`) and renders it as a witness — one step per
/// symbol (RenderSymbolEvent), `fires[i]` the occurrence bit of subject
/// i, whose column is `columns[i]`. nullopt when a replay fails or
/// `valid` rejects the per-subject occurrence points: the history is not
/// the claimed evidence, and the caller counts a validation failure.
using ReplayCheck =
    std::function<bool(const std::vector<std::vector<bool>>& points)>;
std::optional<WitnessHistory> ReplayWitness(
    const Alphabet& alphabet, const std::vector<EventExprPtr>& subjects,
    std::vector<std::string> columns, std::string claim,
    const std::vector<SymbolId>& history, const ReplayCheck& valid);

/// ReplayCheck: every subject occurs at the history's last point.
bool AllFireAtEnd(const std::vector<std::vector<bool>>& points);

/// `count` seeded pseudo-random histories of `length` symbols, each drawn
/// uniformly from the `possible` ones — the sample on which the group
/// planner and --fix cross-check automata against the §4 oracle. Empty
/// when no symbol is possible.
std::vector<std::vector<SymbolId>> RandomRealizableHistories(
    const std::vector<bool>& possible, size_t count, size_t length,
    uint64_t seed);

}  // namespace ode

#endif  // ODE_ANALYZE_WITNESS_H_
