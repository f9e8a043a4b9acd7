// Tests for the linear-arithmetic mask solver (mask_solver.{h,cc}):
// verdicts the interval engine could not reach, implication between
// masks, signed-conjunction feasibility, integer gap cuts, model
// generation, the conservative limits (non-linear forms, step budgets),
// and a randomized cross-validation against brute-force integer-domain
// enumeration.

#include "analyze/mask_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "analyze/mask_check.h"
#include "test_util.h"

namespace ode {
namespace {

using testing_util::ParseMaskOrDie;

MaskTruth SolveOf(const std::string& text) {
  return SolveMaskTruth(*ParseMaskOrDie(text));
}

// --- New verdicts beyond the interval engine ---------------------------

TEST(MaskSolverTest, ScaledVariableContradiction) {
  // The flagship ISSUE case: q*2 > 10 forces q > 5, contradicting q < 1.
  EXPECT_EQ(SolveOf("q * 2 > 10 && q < 1"), MaskTruth::kNever);
  EXPECT_EQ(SolveOf("2 * q > 10 && q < 1"), MaskTruth::kNever);
}

TEST(MaskSolverTest, TwoVariableSumContradiction) {
  EXPECT_EQ(SolveOf("a + b > 10 && a < 2 && b < 2"), MaskTruth::kNever);
}

TEST(MaskSolverTest, AffineContradiction) {
  // 2q + 3 <= 1 forces q <= -1, contradicting q >= 0.
  EXPECT_EQ(SolveOf("2 * q + 3 <= 1 && q >= 0"), MaskTruth::kNever);
}

TEST(MaskSolverTest, ThreeVariableCycle) {
  EXPECT_EQ(SolveOf("a > b && b > c && c > a"), MaskTruth::kNever);
}

TEST(MaskSolverTest, ScaledTautology) {
  // q/2 >= 5 means q >= 10; its complement is q < 10.
  EXPECT_EQ(SolveOf("q / 2 >= 5 || q < 10"), MaskTruth::kAlways);
}

TEST(MaskSolverTest, DisequalityTautology) {
  EXPECT_EQ(SolveOf("q * 2 != 10 || q == 5"), MaskTruth::kAlways);
}

TEST(MaskSolverTest, EqualityPropagation) {
  EXPECT_EQ(SolveOf("a == b && a > 10 && b < 0"), MaskTruth::kNever);
  EXPECT_EQ(SolveOf("a - b == 0 && a > b"), MaskTruth::kNever);
}

TEST(MaskSolverTest, NegationPushing) {
  EXPECT_EQ(SolveOf("!(q * 2 <= 10) && q < 1"), MaskTruth::kNever);
  EXPECT_EQ(SolveOf("!(a + b > 10 && a < 2) || b >= 0 || a >= 2"),
            MaskTruth::kAlways);
}

TEST(MaskSolverTest, NegatedTermContradiction) {
  EXPECT_EQ(SolveOf("-q > 5 && q > 0"), MaskTruth::kNever);
}

// --- The integrated entry point uses the solver as fallback ------------

TEST(MaskSolverTest, AnalyzeMaskTruthUsesSolver) {
  EXPECT_EQ(AnalyzeMaskTruth(*ParseMaskOrDie("q * 2 > 10 && q < 1")),
            MaskTruth::kNever);
  // Interval-engine verdicts still hold through the combined path.
  EXPECT_EQ(AnalyzeMaskTruth(*ParseMaskOrDie("q > 100 && q < 50")),
            MaskTruth::kNever);
  EXPECT_EQ(AnalyzeMaskTruth(*ParseMaskOrDie("q < 10 || q >= 10")),
            MaskTruth::kAlways);
}

// --- Conservative limits ------------------------------------------------

TEST(MaskSolverTest, IntegerGapsStayUnknownOverReals) {
  // Without an integer declaration the variable ranges over the reals,
  // where 1 < q < 2 is satisfiable: must stay kUnknown.
  EXPECT_EQ(SolveOf("q > 1 && q < 2"), MaskTruth::kUnknown);
}

// --- Integer-aware mode: gap cuts ---------------------------------------

MaskSolver IntSolver() {
  MaskSolver::Options opts;
  opts.assume_all_integers = true;
  return MaskSolver(opts);
}

TEST(MaskSolverTest, IntegerGapCutRefutesUnitGap) {
  // No integer lies strictly between 1 and 2.
  MaskSolver solver = IntSolver();
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("q > 1 && q < 2")),
            MaskTruth::kNever);
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("q > 0 && q < 1")),
            MaskTruth::kNever);
  // A gap wide enough to hold an integer stays satisfiable.
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("q > 0 && q < 2")),
            MaskTruth::kUnknown);
}

TEST(MaskSolverTest, IntegerGapCutNormalizesCoefficients) {
  MaskSolver solver = IntSolver();
  // 3q in (1, 3): tightening forces 3q >= 3 versus 3q <= 2.
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("3 * q > 1 && 3 * q < 3")),
            MaskTruth::kNever);
  // 2q in (1, 3) admits 2q = 2.
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("2 * q > 1 && 2 * q < 3")),
            MaskTruth::kUnknown);
}

TEST(MaskSolverTest, GapCutCertificateNamesTheCut) {
  MaskSolver solver = IntSolver();
  MaskExprPtr gap = ParseMaskOrDie("q > 1 && q < 2");
  std::optional<std::string> why =
      solver.RefuteConjunction({{gap.get(), true}});
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("gap cut"), std::string::npos) << *why;
  EXPECT_NE(why->find("over the integers"), std::string::npos) << *why;
}

TEST(MaskSolverTest, SelectiveIntegerDeclaration) {
  // Only `n` is declared integer: the gap cut applies to n but not to the
  // real-valued r.
  MaskSolver::Options opts;
  opts.integer_vars = {"n"};
  MaskSolver solver{opts};
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("n > 1 && n < 2")),
            MaskTruth::kNever);
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("r > 1 && r < 2")),
            MaskTruth::kUnknown);
}

TEST(MaskSolverTest, AddIntegerParamsRecognizesIntegerTypeNames) {
  MaskSolver::Options opts;
  AddIntegerParams({{"int", "a"}, {"long", "b"}, {"integer", "c"},
                    {"float", "f"}, {"", "untyped"}},
                   &opts);
  EXPECT_EQ(opts.integer_vars.count("a"), 1u);
  EXPECT_EQ(opts.integer_vars.count("b"), 1u);
  EXPECT_EQ(opts.integer_vars.count("c"), 1u);
  EXPECT_EQ(opts.integer_vars.count("f"), 0u);
  EXPECT_EQ(opts.integer_vars.count("untyped"), 0u);
}

// --- Model generation ---------------------------------------------------

TEST(MaskSolverTest, FindModelReturnsVerifiedIntegerValues) {
  MaskSolver solver = IntSolver();
  MaskExprPtr mask = ParseMaskOrDie("q > 10 && q < 20");
  std::optional<MaskSolver::Model> model =
      solver.FindModel({{mask.get(), true}});
  ASSERT_TRUE(model.has_value());
  ASSERT_EQ(model->values.count("q"), 1u);
  double q = model->values["q"];
  EXPECT_EQ(q, std::floor(q));  // Integral.
  EXPECT_GT(q, 10.0);
  EXPECT_LT(q, 20.0);
}

TEST(MaskSolverTest, FindModelFailsOnRefutedConjunction) {
  MaskSolver solver = IntSolver();
  MaskExprPtr gap = ParseMaskOrDie("q > 1 && q < 2");
  EXPECT_FALSE(solver.FindModel({{gap.get(), true}}).has_value());
}

TEST(MaskSolverTest, NonLinearFormsAreOpaque) {
  // Products of variables and mod are atomic; no verdict follows from
  // their argument structure.
  EXPECT_EQ(SolveOf("a * b > 0 && a < 0 && b > 0"), MaskTruth::kUnknown);
  EXPECT_EQ(SolveOf("q % 2 == 0 && q + 1 < 0"), MaskTruth::kUnknown);
  // But an opaque term is still one consistent variable.
  EXPECT_EQ(SolveOf("a * b > 0 && a * b < 0"), MaskTruth::kNever);
  EXPECT_EQ(SolveOf("q % 2 == 0 && q % 2 == 1"), MaskTruth::kNever);
  EXPECT_EQ(SolveOf("q % 3 >= 2 && q % 3 < 1"), MaskTruth::kNever);
}

TEST(MaskSolverTest, OpaqueBooleanClash) {
  EXPECT_EQ(SolveOf("flag && !flag"), MaskTruth::kNever);
  EXPECT_EQ(SolveOf("flag || !flag"), MaskTruth::kAlways);
}

TEST(MaskSolverTest, LiftedVariableCapDecidesCycles) {
  // The former hard ≤3-variable cap is lifted: the greedy elimination
  // ordering proves the 3-variable cycle contradictory...
  EXPECT_EQ(SolveOf("a > b && b > c && c > a"), MaskTruth::kNever);
  // ...and scales to longer chains well past the old cap.
  EXPECT_EQ(SolveOf("a > b && b > c && c > d && d > e && e > a"),
            MaskTruth::kNever);
}

TEST(MaskSolverTest, StepBudgetGivesUpConservatively) {
  // One elimination step is not enough to close the 3-cycle; the
  // bounded-work fallback must stay conservative (kUnknown, never a
  // wrong kNever/kAlways).
  MaskSolver::Options options;
  options.max_clauses = 64;
  options.max_vars = 1;
  options.max_constraints = 128;
  MaskSolver solver(options);
  EXPECT_EQ(solver.Truth(*ParseMaskOrDie("a > b && b > c && c > a")),
            MaskTruth::kUnknown);
}

TEST(MaskSolverTest, SatisfiableStaysUnknown) {
  EXPECT_EQ(SolveOf("q * 2 > 10 && q < 100"), MaskTruth::kUnknown);
  EXPECT_EQ(SolveOf("a + b > 10"), MaskTruth::kUnknown);
}

// --- Implication --------------------------------------------------------

TEST(MaskSolverTest, Implication) {
  MaskSolver solver;
  EXPECT_TRUE(solver.Implies(*ParseMaskOrDie("q > 100"),
                             *ParseMaskOrDie("q > 50")));
  EXPECT_TRUE(solver.Implies(*ParseMaskOrDie("q * 2 > 100"),
                             *ParseMaskOrDie("q > 10")));
  EXPECT_TRUE(solver.Implies(*ParseMaskOrDie("a > 0 && b > 0"),
                             *ParseMaskOrDie("a + b > 0")));
  EXPECT_FALSE(solver.Implies(*ParseMaskOrDie("q > 50"),
                              *ParseMaskOrDie("q > 100")));
  // Unproved (opaque relation) is reported false, never "disproved".
  EXPECT_FALSE(solver.Implies(*ParseMaskOrDie("f(q) > 0"),
                              *ParseMaskOrDie("q > 0")));
  // Identical opaque terms do imply themselves.
  EXPECT_TRUE(solver.Implies(*ParseMaskOrDie("f(q) > 1"),
                             *ParseMaskOrDie("f(q) > 0")));
}

// --- Signed-conjunction feasibility (micro-symbol pruning) --------------

TEST(MaskSolverTest, ConjunctionSatisfiable) {
  MaskSolver solver;
  MaskExprPtr over100 = ParseMaskOrDie("q > 100");
  MaskExprPtr over50 = ParseMaskOrDie("q > 50");
  // q > 100 && !(q > 50) is the infeasible micro-symbol bit pattern.
  EXPECT_FALSE(solver.ConjunctionSatisfiable(
      {{over100.get(), true}, {over50.get(), false}}));
  EXPECT_TRUE(solver.ConjunctionSatisfiable(
      {{over100.get(), true}, {over50.get(), true}}));
  EXPECT_TRUE(solver.ConjunctionSatisfiable(
      {{over100.get(), false}, {over50.get(), true}}));
  EXPECT_TRUE(solver.ConjunctionSatisfiable(
      {{over100.get(), false}, {over50.get(), false}}));
  // Empty conjunction is trivially satisfiable.
  EXPECT_TRUE(solver.ConjunctionSatisfiable({}));
}

// --- Randomized cross-validation against brute force --------------------

// One linear atom c_a*a + c_b*b CMP k (c_b may be 0 for single-variable
// atoms), kept both as text (for the parser) and structurally (for exact
// brute-force evaluation).
struct RandomAtom {
  int ca = 0;
  int cb = 0;
  int cmp = 0;  // 0: <  1: <=  2: >  3: >=  4: ==  5: !=
  int k = 0;

  bool Holds(int a, int b) const {
    int lhs = ca * a + cb * b;
    switch (cmp) {
      case 0: return lhs < k;
      case 1: return lhs <= k;
      case 2: return lhs > k;
      case 3: return lhs >= k;
      case 4: return lhs == k;
      default: return lhs != k;
    }
  }

  std::string Text() const {
    static const char* kOps[] = {"<", "<=", ">", ">=", "==", "!="};
    std::string lhs = std::to_string(ca) + " * a";
    if (cb > 0) {
      lhs += " + " + std::to_string(cb) + " * b";
    } else if (cb < 0) {
      lhs += " - " + std::to_string(-cb) + " * b";
    }
    return lhs + " " + kOps[cmp] + " " + std::to_string(k);
  }
};

TEST(MaskSolverPropertyTest, RandomConjunctionsAgreeWithBruteForce) {
  // >= 1000 random conjunctions over two variables confined to the grid
  // [0, kMax]^2 by explicit bound atoms, so exhaustive integer-domain
  // enumeration is exact ground truth. The solver (integer mode) must
  // never refute a satisfiable system, its SAT/UNSAT entry points must
  // agree with each other, and every model it produces must actually
  // satisfy the conjunction at integer points.
  constexpr int kMax = 8;
  constexpr int kRounds = 1200;
  std::mt19937 rng(0x0de5eed);
  std::uniform_int_distribution<int> coef(-3, 3);
  std::uniform_int_distribution<int> rhs(0, 12);
  std::uniform_int_distribution<int> cmp(0, 5);
  std::uniform_int_distribution<int> count(1, 3);

  size_t brute_sat = 0;
  size_t solver_refuted = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<RandomAtom> atoms;
    int n = count(rng);
    for (int i = 0; i < n; ++i) {
      RandomAtom atom;
      do {
        atom.ca = coef(rng);
      } while (atom.ca == 0);
      atom.cb = coef(rng);  // 0 allowed: single-variable atom.
      atom.cmp = cmp(rng);
      atom.k = rhs(rng);
      atoms.push_back(atom);
    }

    std::string text = "a >= 0 && a <= " + std::to_string(kMax) +
                       " && b >= 0 && b <= " + std::to_string(kMax);
    for (const RandomAtom& atom : atoms) text += " && " + atom.Text();
    MaskExprPtr mask = ParseMaskOrDie(text);
    ASSERT_NE(mask, nullptr) << text;

    bool sat = false;
    int sat_a = 0;
    int sat_b = 0;
    for (int a = 0; a <= kMax && !sat; ++a) {
      for (int b = 0; b <= kMax && !sat; ++b) {
        bool all = true;
        for (const RandomAtom& atom : atoms) {
          if (!atom.Holds(a, b)) {
            all = false;
            break;
          }
        }
        if (all) {
          sat = true;
          sat_a = a;
          sat_b = b;
        }
      }
    }
    if (sat) ++brute_sat;

    MaskSolver solver = IntSolver();
    MaskTruth truth = solver.Truth(*mask);
    bool feasible = solver.ConjunctionSatisfiable({{mask.get(), true}});
    std::optional<std::string> refutation =
        solver.RefuteConjunction({{mask.get(), true}});

    // The two refutation entry points must agree with each other.
    EXPECT_EQ(refutation.has_value(), !feasible) << text;
    if (!feasible) ++solver_refuted;

    if (sat) {
      // Soundness: a satisfiable system (integer point (sat_a, sat_b)
      // satisfies it) must never be refuted.
      EXPECT_NE(truth, MaskTruth::kNever)
          << text << " has solution a=" << sat_a << " b=" << sat_b;
      EXPECT_TRUE(feasible)
          << text << " has solution a=" << sat_a << " b=" << sat_b;
    } else {
      // The bounds confine all integer solutions to the enumerated grid,
      // so brute-force UNSAT is true UNSAT over the integers: anything
      // the solver claims (kNever or a refutation) is consistent. What
      // it must NOT do is produce a model.
      EXPECT_NE(truth, MaskTruth::kAlways) << text;
    }

    std::optional<MaskSolver::Model> model =
        solver.FindModel({{mask.get(), true}});
    if (model.has_value()) {
      // Every produced model must be an integral point satisfying every
      // atom — which also implies the system really is satisfiable.
      double av = model->values.count("a") ? model->values["a"] : 0.0;
      double bv = model->values.count("b") ? model->values["b"] : 0.0;
      ASSERT_EQ(av, std::floor(av)) << text;
      ASSERT_EQ(bv, std::floor(bv)) << text;
      int ai = static_cast<int>(av);
      int bi = static_cast<int>(bv);
      EXPECT_GE(ai, 0);
      EXPECT_LE(ai, kMax);
      EXPECT_GE(bi, 0);
      EXPECT_LE(bi, kMax);
      for (const RandomAtom& atom : atoms) {
        EXPECT_TRUE(atom.Holds(ai, bi))
            << text << " model a=" << ai << " b=" << bi;
      }
      EXPECT_TRUE(sat) << text << " solver found a model for an "
                       << "unsatisfiable system";
    }
  }

  // Sanity on the generator itself: both outcomes must actually occur,
  // and the solver must catch a nontrivial share of the UNSAT systems.
  EXPECT_GT(brute_sat, 100u);
  EXPECT_LT(brute_sat, static_cast<size_t>(kRounds) - 100u);
  EXPECT_GT(solver_refuted, 50u);
}

}  // namespace
}  // namespace ode
