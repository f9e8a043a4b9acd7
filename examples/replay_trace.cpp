// Replay a textual event trace against a composite-event expression and
// print where the event occurs — a standalone detector for experimenting
// with the algebra.
//
//   $ printf 'after deposit q=70\nafter withdraw q=30\n' |
//       ./build/examples/replay_trace 'relative(after deposit, after withdraw)'
//
// Trace lines: `after NAME [arg=value ...]`, `before NAME [...]`, or a
// bare `.` for an unrelated event. Values parse as integers when they look
// like one, else strings.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "compile/compiler.h"
#include "lang/event_parser.h"
#include "mask/mask_eval.h"

using namespace ode;

namespace {

Result<PostedEvent> ParseLine(const std::string& line) {
  std::istringstream in(line);
  std::string qualifier;
  in >> qualifier;
  if (qualifier == ".") {
    return MakePostedMethod(EventQualifier::kAfter, "__unrelated");
  }
  EventQualifier q;
  if (qualifier == "after") {
    q = EventQualifier::kAfter;
  } else if (qualifier == "before") {
    q = EventQualifier::kBefore;
  } else {
    return Status::ParseError("trace lines start with 'after', 'before' "
                              "or '.'");
  }
  std::string name;
  in >> name;
  if (name.empty()) return Status::ParseError("missing event name");

  std::vector<EventArg> args;
  std::string pair;
  while (in >> pair) {
    auto eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("arguments are name=value");
    }
    std::string arg_name = pair.substr(0, eq);
    std::string text = pair.substr(eq + 1);
    char* end = nullptr;
    long long as_int = std::strtoll(text.c_str(), &end, 10);
    Value value = (end != nullptr && *end == '\0' && !text.empty())
                      ? Value(static_cast<int64_t>(as_int))
                      : Value(text);
    args.push_back(EventArg{std::move(arg_name), std::move(value)});
  }
  return MakePostedMethod(q, std::move(name), std::move(args));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: replay_trace '<event expression>' < trace.txt\n");
    return 2;
  }
  std::string text;
  for (int i = 1; i < argc; ++i) {
    if (!text.empty()) text += " ";
    text += argv[i];
  }
  Result<EventExprPtr> expr = ParseEvent(text);
  if (!expr.ok()) {
    std::printf("parse error: %s\n", expr.status().ToString().c_str());
    return 1;
  }
  Result<CompiledEvent> compiled = CompileEvent(*expr, CompileOptions());
  if (!compiled.ok()) {
    std::printf("compile error: %s\n", compiled.status().ToString().c_str());
    return 1;
  }
  if (compiled->num_gates() > 0) {
    std::printf("expressions with nested composite masks need the full "
                "engine (they read database state)\n");
    return 1;
  }

  Alphabet::MaskEvalFn eval = [](const MaskSlot& slot,
                                 const PostedEvent& event) -> Result<bool> {
    SimpleMaskEnv env;
    for (size_t i = 0; i < slot.params.size() && i < event.args.size();
         ++i) {
      env.Bind(slot.params[i].name, event.args[i].value);
    }
    for (const EventArg& a : event.args) env.Bind(a.name, a.value);
    return EvalMaskBool(*slot.mask, env);
  };

  Dfa::State state = compiled->dfa.start();
  size_t position = 0;
  size_t occurrences = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    Result<PostedEvent> event = ParseLine(line);
    if (!event.ok()) {
      std::printf("line %zu: %s\n", position + 1,
                  event.status().ToString().c_str());
      return 1;
    }
    Result<SymbolId> sym = compiled->alphabet.Classify(*event, eval);
    if (!sym.ok()) {
      std::printf("line %zu: %s\n", position + 1,
                  sym.status().ToString().c_str());
      return 1;
    }
    state = compiled->dfa.Step(state, *sym);
    ++position;
    bool occurs = compiled->dfa.accepting(state);
    occurrences += occurs ? 1 : 0;
    std::printf("%4zu  %-40s %s\n", position, line.c_str(),
                occurs ? "<== occurs" : "");
  }
  std::printf("\n%zu event(s), %zu occurrence(s); DFA has %zu states "
              "(%zu-symbol alphabet)\n",
              position, occurrences, compiled->dfa.num_states(),
              compiled->alphabet.size());
  return 0;
}
