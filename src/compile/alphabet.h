#ifndef ODE_COMPILE_ALPHABET_H_
#define ODE_COMPILE_ALPHABET_H_

#include <functional>
#include <string>
#include <vector>

#include "automaton/committed_transform.h"
#include "automaton/symbol_set.h"
#include "common/result.h"
#include "event/posted_event.h"
#include "lang/event_ast.h"
#include "mask/mask_ast.h"

namespace ode {

/// A mask together with the formal parameter declarations of the atom that
/// owns it. Parameter names are positional aliases for the posted event's
/// actual arguments: `after withdraw(Item i, int q) && q > 1000` binds `q`
/// to the second argument of the posted withdraw whatever the method itself
/// calls it (§3.1/§3.2).
struct MaskSlot {
  MaskExprPtr mask;
  std::vector<ParamDecl> params;

  /// Identity used for deduplication within a group.
  std::string Key() const;
};

/// The alphabet of a compiled trigger, implementing the §5 mask
/// disjointness rewrite.
///
/// Logical events inside one trigger must be pairwise disjoint so the
/// object's history is a well-defined symbol sequence. We group the
/// trigger's atoms by basic event; a basic event carrying k distinct masks
/// m_1..m_k contributes 2^k *micro-symbols*, one per sign assignment of the
/// masks (the paper's Boolean-combination rewrite). An atom with mask m_i
/// denotes the union of the micro-symbols whose i-th bit is set; a maskless
/// atom denotes the whole group. One extra OTHER symbol stands for any
/// posted event the trigger does not mention — such events still advance
/// the history (they matter to `!`, `sequence`, `choose`, `every`).
///
/// At run time, classifying a posted event costs k mask evaluations and
/// produces exactly one symbol: the bit vector of mask outcomes indexes the
/// group's micro-symbols. Detection is then a single DFA transition (§5).
class Alphabet {
 public:
  struct Options {
    /// Guarantee that `after tbegin` / `after tcommit` / `after tabort`
    /// groups exist even if the expression does not mention them (needed by
    /// the §6 committed transform, which must observe transaction
    /// boundaries).
    bool include_txn_markers = false;
    /// Cap on distinct masks per basic event; the 2^k expansion is rejected
    /// beyond it (the paper: "in practice we do not expect to see enough
    /// such overlap for this explosion to be a worry").
    size_t max_masks_per_group = 12;
  };

  /// Collects the expression's atoms and builds the symbol space.
  ///
  /// Fails with kInvalidArgument if the trigger references the same method
  /// both with and without a signature: such specifications overlap without
  /// being rewritable into disjoint logical events. (Two different declared
  /// arities are fine — arity keeps them disjoint.)
  static Result<Alphabet> Build(const EventExpr& expr,
                                const Options& options);
  static Result<Alphabet> Build(const EventExpr& expr);

  /// Total number of symbols (micro-symbols of all groups + OTHER).
  size_t size() const { return size_; }

  SymbolId other_symbol() const { return static_cast<SymbolId>(size_ - 1); }

  /// The set of symbols denoted by a logical-event atom (kAtom node).
  Result<SymbolSet> SymbolsFor(const EventExpr& atom) const;

  /// All micro-symbols of the group matching `spec`; empty set if the
  /// trigger has no such group.
  SymbolSet GroupSymbols(const BasicEvent& spec) const;

  /// Marker symbol sets for the §6 transform (empty when the marker has no
  /// group; build with include_txn_markers to guarantee presence).
  TxnMarkerSymbols txn_markers() const;

  /// Evaluates one mask slot against a posted event; supplied by the engine
  /// (binds positional parameter names, object attributes, host functions).
  using MaskEvalFn =
      std::function<Result<bool>(const MaskSlot&, const PostedEvent&)>;

  /// Maps a posted event to its unique symbol. Events matching no group
  /// map to OTHER. Mask evaluation errors propagate. When `group` is
  /// non-null it receives the index of the matched group, or -1 for OTHER
  /// (witness capture, §9, keeps one occurrence per group).
  Result<SymbolId> Classify(const PostedEvent& event,
                            const MaskEvalFn& eval_mask,
                            int* group = nullptr) const;

  /// The index of the group owning symbol `s`, or -1 for OTHER.
  int GroupOfSymbol(SymbolId s) const;

  /// The index of the group `event` falls into, or -1 for OTHER: the group
  /// Classify reports, found without evaluating a mask.
  int GroupOf(const PostedEvent& event) const;

  /// True when no group carries masks, i.e. symbols correspond one-to-one
  /// to basic events (plus OTHER).
  bool IsMaskFree() const;

  /// For a mask-free alphabet: the basic event owning symbol `s`, or null
  /// for the OTHER symbol. Used by the decompiler (compile/decompile.h).
  const BasicEvent* SpecForSymbol(SymbolId s) const;

  /// Number of mask evaluations Classify performs for this event kind
  /// (cost model for benchmarks).
  size_t ClassifyCost(const PostedEvent& event) const;

  /// Human-readable names per symbol (for dot export and diagnostics).
  std::vector<std::string> SymbolNames() const;

  /// The time basic events referenced by this trigger; the engine registers
  /// a clock timer for each at activation (§3.1).
  std::vector<BasicEvent> TimeEvents() const;

  /// --- Read-only access to the §5 grouping (static analysis) -----------
  size_t num_groups() const { return groups_.size(); }
  const BasicEvent& group_spec(size_t g) const { return groups_[g].spec; }
  const std::vector<MaskSlot>& group_masks(size_t g) const {
    return groups_[g].masks;
  }
  /// First micro-symbol id of group `g`; the group spans
  /// [base, base + 2^masks) (micro-symbol bit i = group_masks()[i] holds).
  SymbolId group_base(size_t g) const { return groups_[g].base; }
  size_t group_num_symbols(size_t g) const {
    return groups_[g].num_symbols();
  }

 private:
  struct Group {
    BasicEvent spec;               ///< Representative basic event.
    std::vector<MaskSlot> masks;   ///< Distinct masks; bit i = masks[i].
    SymbolId base = 0;             ///< First micro-symbol id.
    size_t num_symbols() const { return size_t{1} << masks.size(); }
  };

  const Group* FindGroup(const BasicEvent& spec) const;
  const Group* MatchGroup(const PostedEvent& event) const;

  std::vector<Group> groups_;
  size_t size_ = 0;
};

}  // namespace ode

#endif  // ODE_COMPILE_ALPHABET_H_
