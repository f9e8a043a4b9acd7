#include "analyze/cascade.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <optional>
#include <utility>

#include "analyze/automaton_check.h"
#include "common/strutil.h"

namespace ode {
namespace {

// ---------------------------------------------------------------------------
// Effects sidecar parsing.
// ---------------------------------------------------------------------------

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool IsIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

std::vector<std::string_view> SplitWords(std::string_view s) {
  std::vector<std::string_view> words;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) words.push_back(s.substr(i, j - i));
    i = j;
  }
  return words;
}

Result<ActionEffect> ParseOneEffect(std::string_view text, int line) {
  std::vector<std::string_view> w = SplitWords(text);
  auto err = [&](const char* what) {
    return Status::InvalidArgument(StrFormat(
        "effects line %d: %s in effect '%.*s' (expected `posts NAME[/arity] "
        "[on self|same-class|class NAME]` or `aborts`)",
        line, what, static_cast<int>(text.size()), text.data()));
  };
  if (w.empty()) return err("empty effect");
  if (w[0] == "aborts") {
    if (w.size() != 1) return err("trailing tokens after `aborts`");
    return ActionEffect::MakeAbort();
  }
  if (w[0] != "posts") return err("unknown effect verb");
  if (w.size() < 2) return err("missing method name");
  std::string_view name = w[1];
  int arity = -1;
  if (size_t slash = name.find('/'); slash != std::string_view::npos) {
    std::string_view digits = name.substr(slash + 1);
    name = name.substr(0, slash);
    if (digits.empty()) return err("empty arity");
    arity = 0;
    for (char c : digits) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return err("non-numeric arity");
      }
      arity = arity * 10 + (c - '0');
      if (arity > 64) return err("arity out of range");
    }
  }
  if (!IsIdentifier(name)) return err("invalid method name");
  ActionEffect::Target target = ActionEffect::Target::kSelf;
  std::string class_name;
  if (w.size() > 2) {
    if (w[2] != "on") return err("expected `on`");
    if (w.size() < 4) return err("missing target after `on`");
    if (w[3] == "self" && w.size() == 4) {
      target = ActionEffect::Target::kSelf;
    } else if (w[3] == "same-class" && w.size() == 4) {
      target = ActionEffect::Target::kSameClass;
    } else if (w[3] == "class" && w.size() == 5 && IsIdentifier(w[4])) {
      target = ActionEffect::Target::kClass;
      class_name = std::string(w[4]);
    } else {
      return err("bad target");
    }
  }
  return ActionEffect::MakeMethod(std::string(name), arity, target,
                                  std::move(class_name));
}

// ---------------------------------------------------------------------------
// Per-target automaton precomputation.
// ---------------------------------------------------------------------------

/// Everything edge evaluation needs about one target trigger's DFA, over
/// realizable extended symbols only.
struct NodeState {
  std::vector<bool> possible_storage;
  const std::vector<bool>* possible = nullptr;
  std::vector<SymbolId> symbols;  ///< AllowedSymbols(*possible).
  std::vector<int32_t> dist;      ///< DistanceToAccepting; -1 = dead.
  SearchTree reach;               ///< Every state reachable from start.
  bool advanceable = false;  ///< Some realizable symbol advances it.
};

bool HasTxnMarkers(const Alphabet& alphabet) {
  for (size_t g = 0; g < alphabet.num_groups(); ++g) {
    switch (alphabet.group_spec(g).kind) {
      case BasicEventKind::kTbegin:
      case BasicEventKind::kTcomplete:
      case BasicEventKind::kTcommit:
      case BasicEventKind::kTabort:
        return true;
      default:
        break;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Effect → micro-symbol mapping and edge evaluation.
// ---------------------------------------------------------------------------

bool EffectApplies(const ActionEffect& e, const std::string& from_class,
                   const std::string& to_class) {
  if (e.kind == ActionEffect::Kind::kAbort) return true;  // Txn-wide.
  switch (e.target) {
    case ActionEffect::Target::kSelf:
    case ActionEffect::Target::kSameClass:
      return from_class == to_class;
    case ActionEffect::Target::kClass:
      return e.class_name == to_class;
  }
  return false;
}

/// The realizable extended symbols of `ce`'s alphabet that the applicable
/// effects of `sig` may produce. A method call posts before/after method
/// events plus the update/read/access events of the state it touches; any
/// posting the target does not mention classifies as OTHER (which still
/// advances `!` / sequence / count operators, so it is always included).
std::vector<SymbolId> EffectSymbols(const CompiledEvent& ce,
                                    const ActionSignature& sig,
                                    const std::string& from_class,
                                    const std::string& to_class,
                                    const std::vector<bool>& possible) {
  const Alphabet& a = ce.alphabet;
  SymbolSet base(a.size());
  bool any = false;
  for (const ActionEffect& e : sig.effects) {
    if (!EffectApplies(e, from_class, to_class)) continue;
    any = true;
    for (size_t g = 0; g < a.num_groups(); ++g) {
      const BasicEvent& spec = a.group_spec(g);
      bool match = false;
      if (e.kind == ActionEffect::Kind::kAbort) {
        match = spec.kind == BasicEventKind::kTabort;
      } else {
        switch (spec.kind) {
          case BasicEventKind::kMethod:
            match = spec.method_name == e.method &&
                    (e.arity < 0 || spec.params.empty() ||
                     spec.params.size() == static_cast<size_t>(e.arity));
            break;
          case BasicEventKind::kUpdate:
          case BasicEventKind::kRead:
          case BasicEventKind::kAccess:
            match = true;  // A called method may read/update attributes.
            break;
          default:
            break;
        }
      }
      if (!match) continue;
      SymbolId group_base = a.group_base(g);
      for (size_t k = 0; k < a.group_num_symbols(g); ++k) {
        base.Add(group_base + static_cast<SymbolId>(k));
      }
    }
    base.Add(a.other_symbol());
  }
  std::vector<SymbolId> out;
  if (!any) return out;
  SymbolSet ext = ce.ExtendSet(base);
  ext.ForEach([&](SymbolId s) {
    if (possible[s]) out.push_back(s);
  });
  return out;
}

/// How (and whether) one action's effect symbols advance one target.
struct EdgeEval {
  bool advance = false;
  SymbolId via = -1;  ///< Extended symbol exhibiting the advance.
  bool via_accepting = false;
  int32_t from_dist = 0;
  int32_t to_dist = 0;
  bool fires = false;
  Dfa::State fire_source = -1;
  std::vector<SymbolId> fire_chain;
};

EdgeEval EvaluateEdge(const Dfa& dfa, const NodeState& ns,
                      const std::vector<SymbolId>& syms,
                      size_t max_chain_steps) {
  EdgeEval ev;
  if (syms.empty()) return ev;
  for (Dfa::State s : ns.reach.order) {
    if (ns.dist[s] < 0) continue;  // Dead state: no cascade progress.
    for (SymbolId y : syms) {
      Dfa::State to = dfa.Step(s, y);
      if (dfa.accepting(to)) {
        ev.advance = true;
        ev.via = y;
        ev.via_accepting = true;
        ev.from_dist = ns.dist[s];
        ev.to_dist = 0;
        break;
      }
      if (!ev.advance && ns.dist[to] >= 0 && ns.dist[to] < ns.dist[s]) {
        ev.advance = true;
        ev.via = y;
        ev.from_dist = ns.dist[s];
        ev.to_dist = ns.dist[to];
      }
    }
    if (ev.via_accepting) break;
  }
  if (!ev.advance) return ev;
  // Firing check: can the effect symbols *alone* drive the target from a
  // reachable live state into acceptance? Sources in BFS discovery order
  // (start state first) so witnesses stay short and deterministic.
  constexpr size_t kMaxFireSources = 64;
  size_t tried = 0;
  SearchTree tree;
  for (Dfa::State src : ns.reach.order) {
    if (ns.dist[src] < 0) continue;
    if (++tried > kMaxFireSources) break;
    std::optional<std::vector<SymbolId>> chain =
        ShortestAcceptedPath(dfa, src, syms, max_chain_steps, &tree);
    if (chain.has_value()) {
      ev.fires = true;
      ev.fire_source = src;
      ev.fire_chain = std::move(*chain);
      break;
    }
  }
  return ev;
}

bool Advanceable(const Dfa& dfa, const NodeState& ns) {
  for (Dfa::State s : ns.reach.order) {
    if (ns.dist[s] < 0) continue;
    for (SymbolId y : ns.symbols) {
      Dfa::State to = dfa.Step(s, y);
      if (dfa.accepting(to)) return true;
      if (ns.dist[to] >= 0 && ns.dist[to] < ns.dist[s]) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Strongly connected components (iterative Tarjan).
// ---------------------------------------------------------------------------

std::vector<int> SccIds(size_t n, const std::vector<std::vector<size_t>>& adj,
                        int* num_comps) {
  std::vector<int> comp(n, -1);
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  int next_index = 0;
  int comps = 0;

  struct Frame {
    size_t v;
    size_t child = 0;
  };
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames{{root}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < adj[f.v].size()) {
        size_t w = adj[f.v][f.child++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          while (true) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            comp[w] = comps;
            if (w == f.v) break;
          }
          ++comps;
        }
        size_t v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  *num_comps = comps;
  return comp;
}

SourceSpan SpecSpan(const TriggerSpec* spec) {
  if (spec != nullptr && spec->event != nullptr) return spec->event->span;
  return SourceSpan{};
}

std::string JoinCycleNames(const CascadeGraph& g, const CascadeCycle& cycle) {
  std::string out;
  for (size_t v : cycle.nodes) {
    out += StrFormat("'%s' -> ", g.nodes[v].name.c_str());
  }
  out += StrFormat("'%s'", g.nodes[cycle.nodes.front()].name.c_str());
  return out;
}

}  // namespace

Result<EffectMap> ParseEffectsSource(std::string_view source) {
  EffectMap map;
  int line = 0;
  size_t pos = 0;
  while (pos <= source.size()) {
    size_t nl = source.find('\n', pos);
    std::string_view raw = source.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? source.size() + 1 : nl + 1;
    ++line;
    if (size_t hash = raw.find('#'); hash != std::string_view::npos) {
      raw = raw.substr(0, hash);
    }
    std::string_view text = Trim(raw);
    if (text.empty()) continue;
    size_t colon = text.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument(StrFormat(
          "effects line %d: expected `action: effects...`, got '%.*s'", line,
          static_cast<int>(text.size()), text.data()));
    }
    std::string_view action = Trim(text.substr(0, colon));
    if (!IsIdentifier(action)) {
      return Status::InvalidArgument(StrFormat(
          "effects line %d: invalid action name '%.*s'", line,
          static_cast<int>(action.size()), action.data()));
    }
    if (map.find(action) != map.end()) {
      return Status::InvalidArgument(StrFormat(
          "effects line %d: duplicate declaration for action '%.*s'", line,
          static_cast<int>(action.size()), action.data()));
    }
    std::string_view rest = Trim(text.substr(colon + 1));
    if (rest == "opaque") continue;  // Documented-as-unknown: stay absent.
    ActionSignature sig;
    if (rest != "none") {
      size_t start = 0;
      while (start <= rest.size()) {
        size_t comma = rest.find(',', start);
        std::string_view item = Trim(rest.substr(
            start,
            comma == std::string_view::npos ? std::string_view::npos
                                            : comma - start));
        start = comma == std::string_view::npos ? rest.size() + 1 : comma + 1;
        Result<ActionEffect> effect = ParseOneEffect(item, line);
        if (!effect.ok()) return effect.status();
        sig.effects.push_back(std::move(*effect));
      }
    }
    map.emplace(std::string(action), std::move(sig));
  }
  return map;
}

CascadeResult AnalyzeCascade(const std::vector<CascadeTrigger>& triggers,
                             const CascadeOptions& options) {
  CascadeResult result;
  CascadeGraph& g = result.graph;
  if (options.effects == nullptr) return result;
  const EffectMap& effects = *options.effects;
  const size_t n = triggers.size();

  // -- Nodes + per-target automaton precomputation. -------------------------
  std::vector<NodeState> state(n);
  g.nodes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const CascadeTrigger& t = triggers[i];
    CascadeNode node;
    node.name = t.name;
    node.class_name = t.class_name;
    node.action = t.spec != nullptr ? t.spec->action : "";
    node.perpetual = t.spec != nullptr && t.spec->perpetual;
    node.compiled = t.compiled != nullptr;
    node.opaque_action =
        !node.action.empty() && effects.find(node.action) == effects.end();
    if (t.compiled != nullptr) {
      node.immediate = !HasTxnMarkers(t.compiled->alphabet);
      NodeState& ns = state[i];
      if (t.possible != nullptr) {
        ns.possible = t.possible;
      } else {
        ns.possible_storage = ComputePossibleSymbols(*t.compiled);
        ns.possible = &ns.possible_storage;
      }
      ns.symbols = AllowedSymbols(*ns.possible);
      ns.reach = ReachableStates(t.compiled->dfa, t.compiled->dfa.start(),
                                 ns.symbols);
      ns.dist = DistanceToAccepting(t.compiled->dfa, *ns.possible);
      ns.advanceable = Advanceable(t.compiled->dfa, ns);
    }
    g.nodes.push_back(std::move(node));
  }

  // -- Edges. ---------------------------------------------------------------
  // Edge evaluation depends only on (target, action, source class), so a
  // 1000-trigger rulebase sharing one action does O(n) automaton work, not
  // O(n²) (bench_analyze's ≤25% overhead gate relies on this). The n²
  // candidate pairs are still enumerated, so the memo lookup must be a
  // flat array index, not a per-pair key build: intern the distinct
  // (action, source class) keys up front and index by target × key.
  std::map<std::pair<std::string, std::string>, size_t> sig_ids;
  std::vector<size_t> src_sig(n, static_cast<size_t>(-1));
  for (size_t from = 0; from < n; ++from) {
    const CascadeNode& src = g.nodes[from];
    if (!src.compiled || src.action.empty()) continue;
    auto sig_it = effects.find(src.action);
    if (sig_it == effects.end() || sig_it->second.effects.empty()) continue;
    src_sig[from] =
        sig_ids.emplace(std::make_pair(src.action, src.class_name),
                        sig_ids.size())
            .first->second;
  }
  std::deque<EdgeEval> memo_storage;  // Stable addresses for edge_eval.
  std::vector<const EdgeEval*> memo(n * sig_ids.size(), nullptr);
  std::vector<const EdgeEval*> edge_eval;  // Parallel to g.edges.
  auto push_edge = [&](CascadeEdge edge, const EdgeEval* eval) {
    if (g.edges.size() >= options.max_edges) {
      g.truncated = true;
      return;
    }
    g.edges.push_back(std::move(edge));
    edge_eval.push_back(eval);
  };
  for (size_t from = 0; from < n; ++from) {
    const CascadeNode& src = g.nodes[from];
    if (!src.compiled || src.action.empty()) continue;
    if (g.truncated) break;
    auto sig_it = effects.find(src.action);
    if (sig_it == effects.end()) {
      // Opaque action: assume it can advance any trigger some realizable
      // symbol advances (the over-approximation T003 reports).
      for (size_t to = 0; to < n; ++to) {
        if (!g.nodes[to].compiled || !state[to].advanceable) continue;
        CascadeEdge edge;
        edge.from = from;
        edge.to = to;
        edge.via = src.action;
        edge.opaque = true;
        edge.why = StrFormat(
            "action '%s' declares no effect signature; assumed able to "
            "advance '%s'",
            src.action.c_str(), g.nodes[to].name.c_str());
        push_edge(std::move(edge), nullptr);
      }
      continue;
    }
    const ActionSignature& sig = sig_it->second;
    if (sig.effects.empty()) continue;  // Declared pure.
    const size_t sidx = src_sig[from];
    for (size_t to = 0; to < n; ++to) {
      const CascadeTrigger& tgt = triggers[to];
      if (tgt.compiled == nullptr) continue;
      const EdgeEval*& slot = memo[to * sig_ids.size() + sidx];
      if (slot == nullptr) {
        std::vector<SymbolId> syms =
            EffectSymbols(*tgt.compiled, sig, src.class_name,
                          g.nodes[to].class_name, *state[to].possible);
        memo_storage.push_back(EvaluateEdge(tgt.compiled->dfa, state[to],
                                            syms, options.max_chain_steps));
        slot = &memo_storage.back();
      }
      const EdgeEval& ev = *slot;
      if (!ev.advance) continue;
      CascadeEdge edge;
      edge.from = from;
      edge.to = to;
      edge.fires = ev.fires;
      SymbolId base_sym =
          static_cast<SymbolId>(ev.via >> tgt.compiled->num_gates());
      edge.via = RenderSymbolEvent(tgt.compiled->alphabet, base_sym);
      if (ev.via_accepting) {
        edge.why = StrFormat("action '%s' may post %s, on which '%s' fires",
                             src.action.c_str(), edge.via.c_str(),
                             g.nodes[to].name.c_str());
      } else {
        edge.why = StrFormat(
            "action '%s' may post %s, advancing '%s' from %d to %d step(s) "
            "from firing",
            src.action.c_str(), edge.via.c_str(), g.nodes[to].name.c_str(),
            ev.from_dist, ev.to_dist);
      }
      push_edge(std::move(edge), &ev);
    }
  }

  // -- Cycle structure. -----------------------------------------------------
  // Two passes: *strong* edges (signature-backed, firing) prove cascades —
  // their cycles are T001 findings; the all-edge pass decides whether any
  // cycle exists at all (has_cycle, acyclic-chain depth, T001 notes for
  // cycles that rely on assumed/progress-only edges).
  std::vector<std::vector<size_t>> strong_adj(n);
  std::vector<std::vector<std::pair<size_t, size_t>>> strong_out(n);
  std::vector<std::vector<size_t>> all_adj(n);
  for (size_t e = 0; e < g.edges.size(); ++e) {
    const CascadeEdge& edge = g.edges[e];
    all_adj[edge.from].push_back(edge.to);
    if (!edge.opaque && edge.fires) {
      strong_adj[edge.from].push_back(edge.to);
      strong_out[edge.from].push_back({edge.to, e});
    }
  }
  int strong_comps = 0;
  std::vector<int> strong_comp = SccIds(n, strong_adj, &strong_comps);
  std::vector<size_t> comp_size(static_cast<size_t>(strong_comps), 0);
  for (size_t v = 0; v < n; ++v) ++comp_size[strong_comp[v]];
  std::vector<bool> comp_self(static_cast<size_t>(strong_comps), false);
  for (size_t v = 0; v < n; ++v) {
    for (const auto& te : strong_out[v]) {
      if (te.first == v) comp_self[strong_comp[v]] = true;
    }
  }
  std::vector<bool> node_in_strong_cycle(n, false);
  std::vector<int> cyclic_comps;  // In first-member order.
  {
    std::vector<bool> seen(static_cast<size_t>(strong_comps), false);
    for (size_t v = 0; v < n; ++v) {
      int c = strong_comp[v];
      bool cyclic = comp_size[c] > 1 || comp_self[c];
      if (cyclic) node_in_strong_cycle[v] = true;
      if (cyclic && !seen[c]) {
        seen[c] = true;
        cyclic_comps.push_back(c);
      }
    }
  }

  // One representative shortest cycle per cyclic strong component.
  for (int c : cyclic_comps) {
    size_t root = n;
    for (size_t v = 0; v < n; ++v) {
      if (strong_comp[v] == c) {
        root = v;
        break;
      }
    }
    // BFS from root along strong edges inside the component until an edge
    // re-enters root.
    std::vector<int> par_node(n, -1);
    std::vector<int> par_edge(n, -1);
    std::vector<bool> visited(n, false);
    visited[root] = true;
    std::deque<size_t> queue{root};
    CascadeCycle cycle;
    bool found = false;
    while (!queue.empty() && !found) {
      size_t v = queue.front();
      queue.pop_front();
      for (const auto& [to, e] : strong_out[v]) {
        if (strong_comp[to] != c) continue;
        if (to == root) {
          // Close the cycle: root → ... → v → root.
          std::vector<size_t> rev_nodes;
          std::vector<size_t> rev_edges{e};
          size_t walk = v;
          while (walk != root) {
            rev_nodes.push_back(walk);
            rev_edges.push_back(static_cast<size_t>(par_edge[walk]));
            walk = static_cast<size_t>(par_node[walk]);
          }
          cycle.nodes.push_back(root);
          for (auto it = rev_nodes.rbegin(); it != rev_nodes.rend(); ++it) {
            cycle.nodes.push_back(*it);
          }
          for (auto it = rev_edges.rbegin(); it != rev_edges.rend(); ++it) {
            cycle.edges.push_back(*it);
          }
          found = true;
          break;
        }
        if (!visited[to]) {
          visited[to] = true;
          par_node[to] = static_cast<int>(v);
          par_edge[to] = static_cast<int>(e);
          queue.push_back(to);
        }
      }
    }
    if (!found) continue;  // Unreachable for a cyclic component.
    cycle.all_perpetual = true;
    for (size_t v : cycle.nodes) {
      if (!g.nodes[v].perpetual) cycle.all_perpetual = false;
    }
    g.cycles.push_back(std::move(cycle));
  }

  int all_comps = 0;
  std::vector<int> all_comp = SccIds(n, all_adj, &all_comps);
  std::vector<size_t> all_size(static_cast<size_t>(all_comps), 0);
  std::vector<bool> all_self(static_cast<size_t>(all_comps), false);
  for (size_t v = 0; v < n; ++v) {
    ++all_size[all_comp[v]];
    for (size_t to : all_adj[v]) {
      if (to == v) all_self[all_comp[v]] = true;
    }
  }
  for (int c = 0; c < all_comps; ++c) {
    if (all_size[c] > 1 || all_self[c]) g.has_cycle = true;
  }

  // Longest cascade chain over all edges when acyclic. Tarjan numbers
  // components in reverse topological order, so ascending component id is
  // a sinks-first schedule.
  if (!g.has_cycle && n > 0) {
    std::vector<size_t> by_comp(n);
    for (size_t v = 0; v < n; ++v) by_comp[v] = v;
    std::sort(by_comp.begin(), by_comp.end(), [&](size_t a, size_t b) {
      return all_comp[a] < all_comp[b];
    });
    std::vector<size_t> dp(n, 1);
    for (size_t v : by_comp) {
      for (size_t to : all_adj[v]) {
        dp[v] = std::max(dp[v], dp[to] + 1);
      }
      g.max_chain = std::max(g.max_chain, dp[v]);
    }
  }

  // -- Diagnostics. ---------------------------------------------------------
  // T001: proven cascade cycles.
  for (const CascadeCycle& cycle : g.cycles) {
    size_t first = cycle.nodes.front();
    Diagnostic d;
    d.id = "T001";
    d.severity = cycle.all_perpetual ? Severity::kError : Severity::kWarning;
    d.trigger = g.nodes[first].name;
    d.span = SpecSpan(triggers[first].spec);
    std::string chain_why;
    for (size_t e : cycle.edges) {
      if (!chain_why.empty()) chain_why += "; ";
      chain_why += g.edges[e].why;
    }
    d.message = StrFormat(
        "potential non-termination: trigger cascade cycle %s: %s%s",
        JoinCycleNames(g, cycle).c_str(), chain_why.c_str(),
        cycle.all_perpetual
            ? " (every member is perpetual: the cascade is self-sustaining "
              "and will hit the runtime posting-depth limit)"
            : " (non-perpetual members disarm after firing, so each "
              "activation bounds one pass; re-activation re-arms the "
              "cycle)");
    // Witness cascade: a priming history firing the first member, then one
    // oracle-replayed history per cycle edge showing the posted effects
    // firing the next member.
    bool witnessable = options.witnesses;
    for (size_t v : cycle.nodes) {
      const CascadeTrigger& t = triggers[v];
      if (t.compiled == nullptr || t.compiled->num_gates() > 0 ||
          t.spec == nullptr || t.spec->event == nullptr) {
        witnessable = false;  // Gates consult run-time state (see witness.h).
      }
    }
    if (witnessable) {
      const Dfa& head_dfa = triggers[first].compiled->dfa;
      std::optional<std::vector<SymbolId>> priming =
          ShortestAcceptedPath(head_dfa, head_dfa.start(),
                               state[first].symbols, options.witness.max_steps);
      // Each history must fire trigger `v` at its last step.
      auto replay = [&](size_t v, const std::vector<SymbolId>& history,
                        std::string claim) {
        return ReplayWitness(triggers[v].compiled->alphabet,
                             {triggers[v].spec->event}, {g.nodes[v].name},
                             std::move(claim), history, AllFireAtEnd);
      };
      std::vector<WitnessHistory> histories;
      bool ok = priming.has_value();
      if (ok) {
        std::optional<WitnessHistory> h = replay(
            first, *priming,
            StrFormat("cascade priming: shortest realizable history firing "
                      "'%s'",
                      g.nodes[first].name.c_str()));
        ok = h.has_value();
        if (ok) histories.push_back(std::move(*h));
      }
      for (size_t hop = 0; ok && hop < cycle.edges.size(); ++hop) {
        size_t from_v = cycle.nodes[hop];
        size_t to_v = cycle.nodes[(hop + 1) % cycle.nodes.size()];
        const EdgeEval* ev = edge_eval[cycle.edges[hop]];
        if (ev == nullptr || !ev->fires) {
          ok = false;
          break;
        }
        std::vector<SymbolId> history =
            state[to_v].reach.PathTo(ev->fire_source);
        size_t prefix = history.size();
        history.insert(history.end(), ev->fire_chain.begin(),
                       ev->fire_chain.end());
        std::optional<WitnessHistory> h = replay(
            to_v, history,
            StrFormat("cascade step %zu: events posted by '%s' (action '%s') "
                      "fire '%s'",
                      hop + 1, g.nodes[from_v].name.c_str(),
                      g.nodes[from_v].action.c_str(),
                      g.nodes[to_v].name.c_str()));
        ok = h.has_value();
        if (!ok) break;
        for (size_t p = 0; p < history.size(); ++p) {
          h->steps[p].note =
              p < prefix ? "priming (external)"
                         : StrFormat("posted by '%s' action '%s'",
                                     g.nodes[from_v].name.c_str(),
                                     g.nodes[from_v].action.c_str());
        }
        histories.push_back(std::move(*h));
      }
      if (ok) {
        result.witnesses += histories.size();
        d.witness = std::move(histories);
      } else if (priming.has_value()) {
        ++result.witness_failures;
      }
    }
    result.diagnostics.push_back(std::move(d));
  }

  // T001 notes: cycles that exist only with assumed / progress-only edges.
  {
    std::vector<bool> noted(static_cast<size_t>(all_comps), false);
    for (size_t v = 0; v < n; ++v) {
      int c = all_comp[v];
      if (noted[c]) continue;
      if (all_size[c] <= 1 && !all_self[c]) continue;
      bool has_strong = false;
      for (size_t w = 0; w < n; ++w) {
        if (all_comp[w] == c && node_in_strong_cycle[w]) has_strong = true;
      }
      if (has_strong) continue;  // Already a proper T001.
      noted[c] = true;
      std::string members;
      for (size_t w = 0; w < n; ++w) {
        if (all_comp[w] != c) continue;
        if (!members.empty()) members += ", ";
        members += StrFormat("'%s'", g.nodes[w].name.c_str());
      }
      Diagnostic d;
      d.id = "T001";
      d.severity = Severity::kNote;
      d.trigger = g.nodes[v].name;
      d.span = SpecSpan(triggers[v].spec);
      d.message = StrFormat(
          "potential cascade cycle among %s relying on assumed or "
          "progress-only edges; declare effect signatures to decide it",
          members.c_str());
      result.diagnostics.push_back(std::move(d));
    }
  }

  // T002: self-loops on immediate-coupling triggers.
  for (size_t e = 0; e < g.edges.size(); ++e) {
    const CascadeEdge& edge = g.edges[e];
    if (edge.opaque || edge.from != edge.to) continue;
    const CascadeNode& node = g.nodes[edge.from];
    if (!node.immediate) continue;
    Diagnostic d;
    d.id = "T002";
    d.severity = Severity::kWarning;
    d.trigger = node.name;
    d.span = SpecSpan(triggers[edge.from].spec);
    d.message = StrFormat(
        "trigger '%s' can retrigger itself within the posting transaction "
        "(immediate coupling self-loop): %s before the transaction "
        "completes",
        node.name.c_str(), edge.why.c_str());
    result.diagnostics.push_back(std::move(d));
  }

  // T003: one note per opaque action.
  {
    std::vector<std::string> reported;
    for (size_t v = 0; v < n; ++v) {
      const CascadeNode& node = g.nodes[v];
      if (!node.opaque_action || !node.compiled) continue;
      if (std::find(reported.begin(), reported.end(), node.action) !=
          reported.end()) {
        continue;
      }
      reported.push_back(node.action);
      size_t users = 0;
      size_t assumed = 0;
      for (size_t w = 0; w < n; ++w) {
        if (g.nodes[w].action == node.action && g.nodes[w].compiled) ++users;
      }
      for (const CascadeEdge& edge : g.edges) {
        if (edge.opaque && g.nodes[edge.from].action == node.action) {
          ++assumed;
        }
      }
      Diagnostic d;
      d.id = "T003";
      d.severity = Severity::kNote;
      d.trigger = node.name;
      d.span = SpecSpan(triggers[v].spec);
      d.message = StrFormat(
          "action '%s' declares no effect signature: %zu assumed triggering "
          "edge(s) from %zu trigger(s) make the cascade graph an "
          "over-approximation (declare its effects to refine)",
          node.action.c_str(), assumed, users);
      result.diagnostics.push_back(std::move(d));
    }
  }

  // T004: acyclic, but the runtime depth limit cuts legal cascades short.
  // A chain of k firings needs max_posting_depth >= k (each cascaded
  // posting enters the engine one level deeper).
  if (!g.has_cycle && options.runtime_depth_limit > 0 &&
      g.max_chain > static_cast<size_t>(options.runtime_depth_limit)) {
    Diagnostic d;
    d.id = "T004";
    d.severity = Severity::kWarning;
    d.message = StrFormat(
        "rulebase cascades up to %zu chained firings but the runtime "
        "posting-depth limit is %d; legal cascades would trip "
        "kResourceExhausted (raise DatabaseOptions::max_posting_depth)",
        g.max_chain, options.runtime_depth_limit);
    result.diagnostics.push_back(std::move(d));
  }

  return result;
}

}  // namespace ode
