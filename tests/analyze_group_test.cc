// The §5 footnote-5 trigger-group planner (analyze/group_plan.h): cluster
// construction from pairwise findings, measured cost deltas, oracle
// validation, and G001 emission through AnalyzeSpecSource.

#include "analyze/group_plan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "common/strutil.h"
#include "lang/event_parser.h"

namespace ode {
namespace {

const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                       std::string_view id) {
  for (const Diagnostic& d : diags) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

TEST(GroupPlanTest, EquivalentTriggersFormOneVerifiedGroup) {
  AnalysisReport report = AnalyzeSpecSource(
      "both_a(): after withdraw | after deposit ==> log\n"
      "\n"
      "both_b(): after deposit | after withdraw ==> log\n"
      "\n"
      "just_w(): after withdraw ==> log\n");
  // All three are A004/A005-related, so they cluster into one group.
  ASSERT_EQ(report.groups.size(), 1u);
  const TriggerGroupPlan& plan = report.groups[0];
  EXPECT_EQ(plan.members.size(), 3u);
  EXPECT_EQ(plan.member_names.size(), 3u);

  // Concrete cost delta: running the members separately steps N automata
  // per event; the combined product steps one.
  EXPECT_EQ(plan.separate.steps_per_event, 3u);
  EXPECT_EQ(plan.combined.steps_per_event, 1u);
  EXPECT_GT(plan.separate.dfa_states, 0u);
  EXPECT_GT(plan.combined.dfa_states, 0u);
  EXPECT_GT(plan.separate.table_bytes, 0u);
  EXPECT_GT(plan.combined.table_bytes, 0u);
  EXPECT_GT(plan.oracle_histories, 0u);

  const Diagnostic* g = Find(report.file_diagnostics, "G001");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kNote);
  // The note carries the measured numbers and the validation claim.
  EXPECT_NE(g->message.find("states"), std::string::npos);
  EXPECT_NE(g->message.find("oracle"), std::string::npos);
}

TEST(GroupPlanTest, UnrelatedTriggersProduceNoGroups) {
  AnalysisReport report = AnalyzeSpecSource(
      "t1(): after open ==> log\n"
      "\n"
      "t2(): after close ==> log\n");
  EXPECT_TRUE(report.groups.empty());
  EXPECT_EQ(Find(report.file_diagnostics, "G001"), nullptr);
}

TEST(GroupPlanTest, GroupSuggestionsCanBeDisabled) {
  AnalyzeOptions options;
  options.group_suggestions = false;
  AnalysisReport report = AnalyzeSpecSource(
      "a(): after withdraw ==> log\n"
      "\n"
      "b(): after withdraw ==> log\n",
      options);
  EXPECT_TRUE(report.groups.empty());
  EXPECT_EQ(Find(report.file_diagnostics, "G001"), nullptr);
  // The pairwise finding itself is still recorded.
  EXPECT_NE(Find(report.file_diagnostics, "A004"), nullptr);
}

TEST(GroupPlanTest, PlannerClustersTransitively) {
  // a~b and b~c relate all three even without an a~c finding.
  std::vector<TriggerSpec> specs(3);
  for (size_t i = 0; i < 3; ++i) {
    Result<TriggerSpec> s =
        ParseTriggerSpec(StrFormat("t%zu(): after deposit ==> log", i));
    ASSERT_TRUE(s.ok());
    specs[i] = *s;
  }
  std::vector<PairFinding> findings = {
      {0, 1, PairRelation::kEquivalent, false},
      {1, 2, PairRelation::kEquivalent, false},
  };
  std::vector<TriggerGroupPlan> plans = PlanTriggerGroups(specs, findings);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].members.size(), 3u);
}

TEST(GroupPlanTest, GatedTriggersAreDropped) {
  // Nested composite masks compile to gates; CombinedProgram refuses them
  // and the planner must drop the cluster, not crash or suggest.
  std::vector<TriggerSpec> specs(2);
  for (size_t i = 0; i < 2; ++i) {
    Result<TriggerSpec> s = ParseTriggerSpec(StrFormat(
        "t%zu(): after a ; ((after b | after c) && flag) ==> log", i));
    ASSERT_TRUE(s.ok());
    specs[i] = *s;
  }
  std::vector<PairFinding> findings = {
      {0, 1, PairRelation::kEquivalent, false},
  };
  EXPECT_TRUE(PlanTriggerGroups(specs, findings).empty());
}

TEST(GroupPlanTest, AtomMaskedTriggersGroupViaRealizablePruning) {
  // Atom masks fan into joint micro-symbols; the solver prunes the
  // infeasible `q > 100 && !(q > 50)` sign pattern, so big's language is
  // contained in some's over realizable symbols — plain A005, and the
  // pair still clusters into a combinable group.
  AnalysisReport report = AnalyzeSpecSource(
      "big(): after w(q) && q > 100 ==> alert\n"
      "\n"
      "some(): after w(q) && q > 50 ==> log\n");
  EXPECT_NE(Find(report.file_diagnostics, "A005"), nullptr);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].members.size(), 2u);
}

TEST(GroupPlanTest, RootMaskImplicationPairsClusterToo) {
  // Root composite masks that differ but provably imply one another
  // (A007) also feed the planner; the combined program keeps each
  // trigger's root mask gating its own acceptance bit.
  AnalysisReport report = AnalyzeSpecSource(
      "big(): (after w | after d) && q > 100 ==> alert\n"
      "\n"
      "some(): (after w | after d) && q > 50 ==> log\n");
  EXPECT_NE(Find(report.file_diagnostics, "A007"), nullptr);
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].members.size(), 2u);
}

}  // namespace
}  // namespace ode
