#include "analyze/group_plan.h"

#include <algorithm>
#include <numeric>

#include "semantics/oracle.h"

namespace ode {

namespace {

/// CombinedProgram packs acceptance into a uint64_t per state.
constexpr size_t kMaxGroupSize = 64;

size_t Find(std::vector<size_t>& parent, size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Validates every member's acceptance bit of the product automaton
/// against its §4 oracle on `options.oracle_histories` random histories
/// over the shared alphabet's realizable symbols. Returns false on any
/// mismatch (or when no realizable symbol exists to build histories from).
bool OracleValidate(const CombinedProgram& program,
                    const GroupPlanOptions& options) {
  const Alphabet& alphabet = program.alphabet();
  std::vector<bool> possible = ComputeAlphabetPossibleSymbols(alphabet);
  if (std::none_of(possible.begin(), possible.end(),
                   [](bool b) { return b; })) {
    return false;
  }

  std::vector<Oracle> oracles;
  oracles.reserve(program.num_triggers());
  for (size_t i = 0; i < program.num_triggers(); ++i) {
    oracles.emplace_back(program.spec(i).event, &alphabet);
  }

  for (const std::vector<SymbolId>& history : RandomRealizableHistories(
           possible, options.oracle_histories,
           options.oracle_history_length, options.oracle_seed)) {
    // Run the product automaton once; compare each member's bit with its
    // oracle at every history point.
    std::vector<uint64_t> accept(history.size());
    Dfa::State state = program.dfa().start();
    for (size_t p = 0; p < history.size(); ++p) {
      state = program.dfa().Step(state, history[p]);
      accept[p] = program.AcceptMask(state);
    }
    for (size_t i = 0; i < oracles.size(); ++i) {
      Result<std::vector<bool>> points = oracles[i].OccurrencePoints(history);
      if (!points.ok()) return false;
      for (size_t p = 0; p < history.size(); ++p) {
        if ((*points)[p] != (((accept[p] >> i) & 1) != 0)) return false;
      }
    }
  }
  return true;
}

}  // namespace

std::vector<TriggerGroupPlan> PlanTriggerGroups(
    const std::vector<TriggerSpec>& specs,
    const std::vector<PairFinding>& findings,
    const GroupPlanOptions& options) {
  std::vector<size_t> parent(specs.size());
  std::iota(parent.begin(), parent.end(), 0);
  for (const PairFinding& f : findings) {
    bool related = f.relation == PairRelation::kEquivalent ||
                   f.relation == PairRelation::kASubsumesB ||
                   f.relation == PairRelation::kBSubsumesA;
    if (!related || f.a >= specs.size() || f.b >= specs.size()) continue;
    parent[Find(parent, f.a)] = Find(parent, f.b);
  }

  std::vector<std::vector<size_t>> clusters(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    clusters[Find(parent, i)].push_back(i);
  }

  std::vector<TriggerGroupPlan> plans;
  for (const std::vector<size_t>& members : clusters) {
    if (members.size() < 2 || members.size() > kMaxGroupSize) continue;

    std::vector<TriggerSpec> group_specs;
    group_specs.reserve(members.size());
    for (size_t idx : members) group_specs.push_back(specs[idx]);
    Result<CombinedProgram> program =
        CombinedProgram::Build(std::move(group_specs), options.combined);
    if (!program.ok()) continue;  // Gates / state blowup: no suggestion.
    if (!OracleValidate(*program, options)) continue;

    TriggerGroupPlan plan;
    plan.members = members;
    for (size_t idx : members) plan.member_names.push_back(specs[idx].name);
    for (const Dfa& component : program->component_dfas()) {
      plan.separate.dfa_states += component.num_states();
    }
    plan.separate.table_bytes = program->SeparateTableBytes();
    plan.separate.steps_per_event = members.size();
    plan.combined.dfa_states = program->dfa().num_states();
    plan.combined.table_bytes = program->CombinedTableBytes();
    plan.combined.steps_per_event = 1;
    plan.oracle_histories = options.oracle_histories;
    if (options.witnesses) {
      WitnessOptions wopts = options.witness_options;
      wopts.compile = options.combined.compile;
      WitnessResult witness =
          GroupWitness(*program, plan.member_names, wopts);
      plan.witness = std::move(witness.histories);
      plan.witness_failures = witness.validation_failures;
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace ode
