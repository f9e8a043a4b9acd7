// The witness engine (analyze/witness.h): every layer-2 verdict on the
// shipped fixture specifications must carry a concrete event history,
// validated against the §4 oracle, demonstrating the claim — A001
// emptiness, A002 universality, A004/A005/A007 pair relations, and G001
// group suggestions. Also covers the exposed building blocks (the search
// kernel's ShortestAcceptedPath and distance closure, RenderSymbolEvent)
// and the accounting invariants (attached counters match, zero validation
// failures).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/witness.h"
#include "lang/event_parser.h"
#include "semantics/oracle.h"
#include "test_util.h"

namespace ode {
namespace {

using testing_util::CompileOrDie;
using testing_util::Compiled;

TriggerAnalysis Analyze(const std::string& source,
                        AnalyzeOptions options = {}) {
  Result<TriggerSpec> spec = ParseTriggerSpec(source);
  EXPECT_TRUE(spec.ok()) << source << ": " << spec.status().ToString();
  if (!spec.ok()) return {};
  return AnalyzeTrigger(*spec, options);
}

const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                       std::string_view id) {
  for (const Diagnostic& d : diags) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

size_t CountFires(const WitnessStep& step) {
  return static_cast<size_t>(
      std::count(step.fires.begin(), step.fires.end(), true));
}

// Mirrors tests/fixtures/never_fires.trig.
constexpr char kNeverFires[] =
    "overdrawn(): after withdraw(amount) && amount > 100 && amount < 50 "
    "==> alert\n"
    "\n"
    "impossible(): after deposit & after withdraw ==> alert\n";

// Mirrors tests/fixtures/universal.trig.
constexpr char kUniversal[] =
    "chatty(): perpetual after withdraw | !after withdraw ==> audit\n";

// Mirrors tests/fixtures/duplicates.trig.
constexpr char kDuplicates[] =
    "both_a(): after withdraw | after deposit ==> log\n"
    "\n"
    "both_b(): after deposit | after withdraw ==> log\n"
    "\n"
    "just_w(): after withdraw ==> log\n";

// ---------------------------------------------------------------- A001 --

TEST(WitnessTest, EmptinessGapCutCarriesIntegerCertificate) {
  // No integer lies strictly between 1 and 2: the only accepting path
  // needs an unrealizable symbol, and the note must say why — with the
  // gap cut called out, since the same masks are satisfiable over reals.
  TriggerAnalysis ta =
      Analyze("t(): after w(int q) && q > 1 && q < 2 ==> x");
  const Diagnostic* d = Find(ta.diagnostics, "A001");
  ASSERT_NE(d, nullptr);
  ASSERT_FALSE(d->witness.empty());
  EXPECT_EQ(ta.witness_failures, 0u);
  EXPECT_GE(ta.witnesses, d->witness.size());

  bool saw_gap_cut = false;
  for (const WitnessHistory& w : d->witness) {
    for (const WitnessStep& s : w.steps) {
      if (s.note.find("gap cut") != std::string::npos) saw_gap_cut = true;
    }
  }
  EXPECT_TRUE(saw_gap_cut);
}

TEST(WitnessTest, EmptinessProbeNeverFires) {
  TriggerAnalysis ta = Analyze("t(): after a & after b ==> x");
  const Diagnostic* d = Find(ta.diagnostics, "A001");
  ASSERT_NE(d, nullptr);
  ASSERT_FALSE(d->witness.empty());
  EXPECT_EQ(ta.witness_failures, 0u);

  // The realizable probe demonstrates non-firing: no step fires.
  const WitnessHistory* probe = nullptr;
  for (const WitnessHistory& w : d->witness) {
    if (w.claim.find("probe") != std::string::npos) probe = &w;
  }
  ASSERT_NE(probe, nullptr);
  ASSERT_FALSE(probe->steps.empty());
  for (const WitnessStep& s : probe->steps) {
    EXPECT_EQ(CountFires(s), 0u) << s.event;
  }
}

// ---------------------------------------------------------------- A002 --

TEST(WitnessTest, UniversalityWitnessFiresAtEveryStep) {
  TriggerAnalysis ta = Analyze(kUniversal);
  const Diagnostic* d = Find(ta.diagnostics, "A002");
  ASSERT_NE(d, nullptr);
  ASSERT_FALSE(d->witness.empty());
  EXPECT_EQ(ta.witness_failures, 0u);
  const WitnessHistory& w = d->witness.front();
  ASSERT_FALSE(w.steps.empty());
  for (const WitnessStep& s : w.steps) {
    EXPECT_EQ(CountFires(s), 1u) << s.event;  // One column, always firing.
  }
}

// ---------------------------------------- A004 / A005 / A007 (pairwise) --

TEST(WitnessTest, EquivalenceWitnessFiresBothTriggers) {
  AnalysisReport report = AnalyzeSpecSource(kDuplicates);
  const Diagnostic* d = Find(report.file_diagnostics, "A004");
  ASSERT_NE(d, nullptr);
  ASSERT_FALSE(d->witness.empty());
  const WitnessHistory& w = d->witness.front();
  ASSERT_EQ(w.columns.size(), 2u);
  ASSERT_FALSE(w.steps.empty());
  // The demonstration point is the last step: both triggers fire there.
  EXPECT_EQ(CountFires(w.steps.back()), 2u);
  EXPECT_EQ(report.witness_failures, 0u);
}

TEST(WitnessTest, SubsumptionWitnessDemonstratesStrictness) {
  AnalysisReport report = AnalyzeSpecSource(kDuplicates);
  const Diagnostic* d = Find(report.file_diagnostics, "A005");
  ASSERT_NE(d, nullptr);
  // Two parts: a history where both fire, then one firing only the outer
  // trigger (the containment is strict).
  ASSERT_EQ(d->witness.size(), 2u);
  ASSERT_FALSE(d->witness[0].steps.empty());
  EXPECT_EQ(CountFires(d->witness[0].steps.back()), 2u);
  ASSERT_FALSE(d->witness[1].steps.empty());
  EXPECT_EQ(CountFires(d->witness[1].steps.back()), 1u);
}

TEST(WitnessTest, SubsumptionWitnessUsesIntegerModels) {
  // firings(big) ⊂ firings(pos): the both-fire history needs a concrete
  // integer above 10 (smallest admissible: 11), the strictness history one
  // in (0, 10].
  AnalysisReport report = AnalyzeSpecSource(
      "big(): (after w(int q)) && q > 10 ==> x\n"
      "\n"
      "pos(): (after w(int q)) && q > 0 ==> x\n");
  const Diagnostic* d = Find(report.file_diagnostics, "A005");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->witness.size(), 2u);
  EXPECT_EQ(d->witness[0].steps.back().event, "w(q=11)");
  EXPECT_EQ(d->witness[1].steps.back().event, "w(q=1)");
  EXPECT_EQ(report.witness_failures, 0u);
}

TEST(WitnessTest, MaskImplicationPairCarriesWitness) {
  // Root composite masks differ, so the verdict needs the solver-proved
  // implication (A007); the witness must note the arithmetic caveat.
  AnalysisReport report = AnalyzeSpecSource(
      "loose(): (after deposit | after withdraw) && (q > 0 || q <= 0) "
      "==> log\n"
      "\n"
      "tight(): every 1 (after deposit) ==> log\n");
  const Diagnostic* d = Find(report.file_diagnostics, "A007");
  ASSERT_NE(d, nullptr);
  ASSERT_FALSE(d->witness.empty());
  EXPECT_NE(d->witness.front().claim.find("solver-proven"),
            std::string::npos);
  ASSERT_FALSE(d->witness.front().steps.empty());
  EXPECT_EQ(CountFires(d->witness.front().steps.back()), 2u);
  EXPECT_EQ(report.witness_failures, 0u);
}

// ---------------------------------------------------------------- G001 --

TEST(WitnessTest, GroupWitnessShowsSharedFiringPoint) {
  AnalysisReport report = AnalyzeSpecSource(kDuplicates);
  ASSERT_FALSE(report.groups.empty());
  const TriggerGroupPlan& plan = report.groups.front();
  ASSERT_FALSE(plan.witness.empty());
  EXPECT_EQ(plan.witness_failures, 0u);
  const WitnessHistory& w = plan.witness.front();
  EXPECT_EQ(w.columns.size(), plan.member_names.size());
  ASSERT_FALSE(w.steps.empty());
  // The overlap point: at least two grouped triggers fire together.
  EXPECT_GE(CountFires(w.steps.back()), 2u);

  // The G001 diagnostic carries the same history.
  const Diagnostic* d = Find(report.file_diagnostics, "G001");
  ASSERT_NE(d, nullptr);
  ASSERT_FALSE(d->witness.empty());
  EXPECT_EQ(d->witness.front().claim, w.claim);
}

// ----------------------------------------------------- fixture parity ---

TEST(WitnessTest, EveryFixtureVerdictCarriesAValidatedWitness) {
  // The acceptance bar: on the shipped fixture specifications, every
  // A001/A002/A004/A005/A007 finding carries a witness and no history was
  // suppressed by oracle replay.
  for (const char* source : {kNeverFires, kUniversal, kDuplicates}) {
    AnalysisReport report = AnalyzeSpecSource(source);
    size_t attached = 0;
    for (const Diagnostic& d : report.AllDiagnostics()) {
      if (d.id == "A001" || d.id == "A002" || d.id == "A004" ||
          d.id == "A005" || d.id == "A007") {
        EXPECT_FALSE(d.witness.empty())
            << d.id << " on '" << d.trigger << "' lacks a witness";
      }
      attached += d.witness.size();
    }
    EXPECT_EQ(report.witnesses, attached) << source;
    EXPECT_EQ(report.witness_failures, 0u) << source;
  }
}

TEST(WitnessTest, WitnessesOffAttachesNothing) {
  AnalyzeOptions options;
  options.witnesses = false;
  AnalysisReport report = AnalyzeSpecSource(kNeverFires, options);
  for (const Diagnostic& d : report.AllDiagnostics()) {
    EXPECT_TRUE(d.witness.empty()) << d.id;
  }
  EXPECT_EQ(report.witnesses, 0u);
  EXPECT_EQ(report.witness_failures, 0u);
}

// ------------------------------------------------------ building blocks --

TEST(WitnessTest, ShortestAcceptedStringIsLexLeastShortest) {
  // Over {0, 1}: accept anything that has seen symbol 1.
  Dfa dfa(2, 2);
  dfa.SetStart(0);
  dfa.SetStep(0, 0, 0);
  dfa.SetStep(0, 1, 1);
  dfa.SetStep(1, 0, 1);
  dfa.SetStep(1, 1, 1);
  dfa.SetAccepting(1, true);

  std::optional<std::vector<SymbolId>> s =
      ShortestAcceptedPath(dfa, dfa.start(), {0, 1}, 4);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, (std::vector<SymbolId>{1}));

  // With symbol 1 unrealizable the language over possible symbols is
  // empty: no witness string exists.
  EXPECT_FALSE(ShortestAcceptedPath(dfa, dfa.start(), {0}, 4).has_value());

  // Over {0, 1, 2}, accepting {3}: from the start, `0 1` and `2 2` both
  // accept in two steps; the search must return the lexicographically
  // least. Accepting state 3 steps back to the start on every symbol.
  Dfa chain(3, 4);
  chain.SetStart(0);
  const Dfa::State next[4][3] = {{1, 0, 2}, {1, 3, 2}, {2, 2, 3}, {0, 0, 0}};
  for (Dfa::State q = 0; q < 4; ++q) {
    for (SymbolId y = 0; y < 3; ++y) chain.SetStep(q, y, next[q][y]);
  }
  chain.SetAccepting(3, true);
  const std::vector<SymbolId> all = {0, 1, 2};
  EXPECT_EQ(ShortestAcceptedPath(chain, 0, all, 8),
            (std::vector<SymbolId>{0, 1}));
  EXPECT_EQ(ShortestAcceptedPath(chain, 0, {2}, 8),
            (std::vector<SymbolId>{2, 2}));

  // From a non-start state (a cascade fire chain's source).
  EXPECT_EQ(ShortestAcceptedPath(chain, 2, all, 8),
            (std::vector<SymbolId>{2}));

  // An accepting root counts only when a non-empty path re-enters
  // acceptance: 3 -0-> 0 -0-> 1 -1-> 3.
  EXPECT_EQ(ShortestAcceptedPath(chain, 3, all, 8),
            (std::vector<SymbolId>{0, 0, 1}));

  // The depth cap bounds the path length.
  EXPECT_FALSE(ShortestAcceptedPath(chain, 0, all, 1).has_value());
  EXPECT_EQ(ShortestAcceptedPath(chain, 0, all, 2),
            (std::vector<SymbolId>{0, 1}));
  EXPECT_FALSE(ShortestAcceptedPath(chain, 3, all, 2).has_value());

  // Distance to accepting agrees with A003's counts on a DFA with both a
  // dead state (2: a non-accepting sink) and an unreachable one (3).
  Dfa dead(2, 4);
  dead.SetStart(0);
  const Dfa::State dead_next[4][2] = {{1, 2}, {1, 2}, {2, 2}, {0, 0}};
  for (Dfa::State q = 0; q < 4; ++q) {
    for (SymbolId y = 0; y < 2; ++y) dead.SetStep(q, y, dead_next[q][y]);
  }
  dead.SetAccepting(1, true);
  std::vector<int32_t> dist = DistanceToAccepting(dead, {true, true});
  EXPECT_EQ(dist, (std::vector<int32_t>{1, 0, -1, 2}));
  SearchTree reach = ReachableStates(dead, dead.start(), {0, 1});
  size_t dead_states = 0;
  size_t unreachable = 0;
  for (Dfa::State q = 0; q < 4; ++q) {
    if (!reach.reached(q)) {
      ++unreachable;
    } else if (dist[q] < 0) {
      ++dead_states;
    }
  }
  StateReport report = AnalyzeStates(dead, {true, true});
  EXPECT_EQ(report.dead, dead_states);
  EXPECT_EQ(report.unreachable, unreachable);
  EXPECT_EQ(dead_states, 1u);
  EXPECT_EQ(unreachable, 1u);
}

TEST(WitnessTest, ShortestAcceptedStringReplaysThroughOracle) {
  // Building-block consistency: the string the BFS finds really is a
  // history at whose final point the expression occurs (§4).
  Compiled c = CompileOrDie("after a | after b");
  std::vector<bool> possible(c.event.alphabet.size(), true);
  std::optional<std::vector<SymbolId>> s = ShortestAcceptedPath(
      c.event.dfa, c.event.dfa.start(), AllowedSymbols(possible), 8);
  ASSERT_TRUE(s.has_value());
  Oracle oracle(c.expr, &c.event.alphabet);
  Result<std::vector<bool>> points = oracle.OccurrencePoints(*s);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_TRUE(points->back());
}

TEST(WitnessTest, RenderSymbolEventShowsConcreteArguments) {
  Compiled c = CompileOrDie("after w(int q) && q > 10");
  const Alphabet& alphabet = c.event.alphabet;
  bool saw_model = false;
  for (size_t s = 0; s < alphabet.size(); ++s) {
    std::string rendered =
        RenderSymbolEvent(alphabet, static_cast<SymbolId>(s));
    if (rendered == "w(q=11)") saw_model = true;
  }
  EXPECT_TRUE(saw_model);
  EXPECT_EQ(RenderSymbolEvent(alphabet, alphabet.other_symbol()),
            "<other>");
}

}  // namespace
}  // namespace ode
