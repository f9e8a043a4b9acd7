// Analyzer throughput over a generated 1000-trigger rulebase, with a
// per-layer breakdown: parse, layer-1 spec checks, compile + automaton
// checks (the full per-trigger pipeline), whole-source analysis without
// pairwise, and the pairwise+grouping sweep over a 64-trigger slice
// (pairwise is quadratic; measuring it over the full rulebase would
// measure only itself).
//
// Plain main() rather than google-benchmark: the deliverable is
// BENCH_analyze.json (specs/sec per layer), not a time-per-iteration
// table. Usage: bench_analyze [output.json] [n_triggers]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/cascade.h"
#include "analyze/spec_check.h"
#include "common/strutil.h"
#include "lang/trigger_spec.h"

namespace ode {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// One generated declaration. The shapes cycle through the operator
/// repertoire so compilation cost is representative, and the method pool
/// keeps alphabets small but overlapping (pairwise work is real).
std::string MakeTrigger(size_t i) {
  static const char* kMethods[] = {"deposit", "withdraw", "audit",
                                   "restock", "take",     "close"};
  const char* m1 = kMethods[i % 6];
  const char* m2 = kMethods[(i / 6 + 1) % 6];
  switch (i % 7) {
    case 0:
      return StrFormat("t%zu(): after %s ==> log", i, m1);
    case 1:
      return StrFormat("t%zu(): after %s ; after %s ==> log", i, m1, m2);
    case 2:
      return StrFormat("t%zu(): every %zu (after %s) ==> log", i, 2 + i % 4,
                       m1);
    case 3:
      return StrFormat("t%zu(): after %s(q) && q > %zu ==> log", i, m1,
                       i % 100);
    case 4:
      return StrFormat("t%zu(): after %s | after %s ==> log", i, m1, m2);
    case 5:
      return StrFormat("t%zu(): relative 2 (after %s) ==> log", i, m1);
    default:
      return StrFormat("t%zu(): (after %s ; after %s) && q > %zu ==> log", i,
                       m1, m2, i % 50);
  }
}

std::string MakeRulebase(size_t n) {
  std::string source;
  for (size_t i = 0; i < n; ++i) {
    source += MakeTrigger(i);
    source += "\n\n";
  }
  return source;
}

constexpr char kUsage[] =
    "usage: bench_analyze [output.json] [n_triggers]\n"
    "Writes per-layer analyzer throughput for a generated rulebase to\n"
    "output.json (default BENCH_analyze.json; 1000 triggers).\n";

int Run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-h") == 0 ||
        std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "bench_analyze: unknown option '%s'\n%s",
                   argv[i], kUsage);
      return 2;
    }
  }
  const char* out_path = argc > 1 ? argv[1] : "BENCH_analyze.json";
  size_t n = argc > 2 ? static_cast<size_t>(std::atol(argv[2])) : 1000;

  std::string source = MakeRulebase(n);

  // Layer 0: parse.
  Clock::time_point t0 = Clock::now();
  std::vector<TriggerSpec> specs;
  specs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Result<TriggerSpec> spec = ParseTriggerSpec(MakeTrigger(i));
    if (!spec.ok()) {
      std::fprintf(stderr, "generated trigger %zu does not parse: %s\n", i,
                   spec.status().ToString().c_str());
      return 1;
    }
    specs.push_back(std::move(*spec));
  }
  Clock::time_point t1 = Clock::now();
  double parse_s = Seconds(t0, t1);

  // Layer 1: spec checks (AST + masks, no automata).
  t0 = Clock::now();
  size_t layer1_diags = 0;
  for (const TriggerSpec& spec : specs) {
    std::vector<Diagnostic> diags;
    CheckTriggerSpec(spec, SpecCheckContext{}, &diags);
    layer1_diags += diags.size();
  }
  t1 = Clock::now();
  double spec_check_s = Seconds(t0, t1);

  // Layer 2: the full per-trigger pipeline (compile, automaton checks,
  // cost report). Witnesses off, so the layer timings stay comparable
  // with earlier runs; the witness engine is measured separately below.
  AnalyzeOptions witness_off;
  witness_off.witnesses = false;
  t0 = Clock::now();
  size_t compiled = 0;
  for (const TriggerSpec& spec : specs) {
    TriggerAnalysis ta = AnalyzeTrigger(spec, witness_off);
    compiled += ta.compiled ? 1 : 0;
  }
  t1 = Clock::now();
  double automaton_s = Seconds(t0, t1);

  // Whole-source analysis, pairwise off: what `ode-lint --no-pairwise
  // --witness=off` does per file (split, parse, per-trigger layers).
  AnalyzeOptions no_pairwise = witness_off;
  no_pairwise.pairwise_checks = false;
  t0 = Clock::now();
  AnalysisReport full = AnalyzeSpecSource(source, no_pairwise);
  t1 = Clock::now();
  double full_s = Seconds(t0, t1);

  // The witness engine: the same whole-source run with witnesses on. The
  // acceptance bar is a <= 2x slowdown of the full pipeline — witness
  // search only runs on triggers that produced a verdict, so it must not
  // dominate a clean-ish rulebase.
  AnalyzeOptions with_witness = no_pairwise;
  with_witness.witnesses = true;
  t0 = Clock::now();
  AnalysisReport witnessed = AnalyzeSpecSource(source, with_witness);
  t1 = Clock::now();
  double witness_s = Seconds(t0, t1);
  double witness_slowdown = witness_s / full_s;
  bool witness_ok = witness_slowdown <= 2.0;

  // Cascade analysis over the full rulebase: the same no-pairwise run
  // with an effects declaration for the shared `log` action, so the
  // triggering graph is built and every candidate source→target edge is
  // evaluated. All n triggers share one action and one (file) scope, so
  // the per-(target, action, class) memoization must collapse the n²
  // candidate evaluations to O(n) automaton work; the posted event
  // (`note_entry`) is one no generated trigger names, keeping the graph
  // sparse like a production rulebase (a dense graph is a T001 finding,
  // not a throughput scenario). Acceptance bar: <= 25% overhead on top
  // of the plain no-pairwise run.
  EffectMap effects;
  effects["log"] = ActionSignature{
      {ActionEffect::MakeMethod("note_entry", /*arity=*/-1)}};
  AnalyzeOptions with_cascade = no_pairwise;
  with_cascade.effects = &effects;
  t0 = Clock::now();
  AnalysisReport cascaded = AnalyzeSpecSource(source, with_cascade);
  t1 = Clock::now();
  double cascade_s = Seconds(t0, t1);
  double cascade_overhead = cascade_s / full_s - 1.0;
  bool cascade_ok = cascade_overhead <= 0.25;
  size_t graph_nodes = 0, graph_edges = 0;
  bool graph_cycle = false;
  if (cascaded.cascade.has_value()) {
    graph_nodes = cascaded.cascade->nodes.size();
    graph_edges = cascaded.cascade->edges.size();
    graph_cycle = cascaded.cascade->has_cycle;
  }

  // Pairwise + group planning over a 64-trigger slice (2016 pairs),
  // witnesses off for layer comparability.
  const size_t kSlice = n < 64 ? n : 64;
  std::string slice_source = MakeRulebase(kSlice);
  t0 = Clock::now();
  AnalysisReport sliced = AnalyzeSpecSource(slice_source, witness_off);
  t1 = Clock::now();
  double pairwise_s = Seconds(t0, t1);
  size_t pairs = kSlice * (kSlice - 1) / 2;

  // The same slice with witnesses on: the pairwise sweep produces
  // hundreds of findings here, so this measures real witness synthesis
  // (joint-alphabet recompiles, product BFS, oracle replays), not a
  // no-findings fast path.
  t0 = Clock::now();
  AnalysisReport sliced_witnessed = AnalyzeSpecSource(slice_source);
  t1 = Clock::now();
  double pairwise_witness_s = Seconds(t0, t1);
  double pairwise_witness_slowdown = pairwise_witness_s / pairwise_s;

  std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"analyze\",\n"
      "  \"rulebase_triggers\": %zu,\n"
      "  \"compiled_triggers\": %zu,\n"
      "  \"layers\": {\n"
      "    \"parse\": {\"seconds\": %.6f, \"specs_per_sec\": %.1f},\n"
      "    \"spec_check\": {\"seconds\": %.6f, \"specs_per_sec\": %.1f},\n"
      "    \"compile_and_automaton\": "
      "{\"seconds\": %.6f, \"specs_per_sec\": %.1f},\n"
      "    \"full_no_pairwise\": "
      "{\"seconds\": %.6f, \"specs_per_sec\": %.1f},\n"
      "    \"full_with_witnesses\": "
      "{\"seconds\": %.6f, \"specs_per_sec\": %.1f, "
      "\"witnesses\": %zu, \"witness_failures\": %zu, "
      "\"slowdown_vs_no_witness\": %.3f, \"within_2x\": %s},\n"
      "    \"full_with_cascade\": "
      "{\"seconds\": %.6f, \"specs_per_sec\": %.1f, "
      "\"graph_nodes\": %zu, \"graph_edges\": %zu, \"has_cycle\": %s, "
      "\"overhead_vs_no_cascade\": %.3f, \"within_25pct\": %s},\n"
      "    \"pairwise_and_groups_64\": "
      "{\"seconds\": %.6f, \"pairs\": %zu, \"pairs_per_sec\": %.1f},\n"
      "    \"pairwise_with_witnesses_64\": "
      "{\"seconds\": %.6f, \"witnesses\": %zu, \"witness_failures\": %zu, "
      "\"slowdown_vs_no_witness\": %.3f}\n"
      "  },\n"
      "  \"specs_per_sec\": %.1f,\n"
      "  \"layer1_diagnostics\": %zu,\n"
      "  \"pairwise_findings_64\": %zu\n"
      "}\n",
      n, compiled, parse_s, n / parse_s, spec_check_s, n / spec_check_s,
      automaton_s, n / automaton_s, full_s, n / full_s, witness_s,
      n / witness_s, witnessed.witnesses, witnessed.witness_failures,
      witness_slowdown, witness_ok ? "true" : "false", cascade_s,
      n / cascade_s, graph_nodes, graph_edges, graph_cycle ? "true" : "false",
      cascade_overhead, cascade_ok ? "true" : "false", pairwise_s, pairs,
      pairs / pairwise_s, pairwise_witness_s, sliced_witnessed.witnesses,
      sliced_witnessed.witness_failures, pairwise_witness_slowdown,
      n / full_s, layer1_diags, sliced.pair_findings.size());

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::fputs(json.c_str(), stdout);
  std::fprintf(stderr, "wrote %s (%zu triggers analyzed, %zu compiled)\n",
               out_path, full.triggers.size(), compiled);
  if (!witness_ok) {
    std::fprintf(stderr,
                 "witness engine slowdown %.2fx exceeds the 2x acceptance "
                 "bound\n",
                 witness_slowdown);
    return 1;
  }
  if (!cascade_ok) {
    std::fprintf(stderr,
                 "cascade analysis overhead %.1f%% exceeds the 25%% "
                 "acceptance bound\n",
                 cascade_overhead * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ode

int main(int argc, char** argv) { return ode::Run(argc, argv); }
