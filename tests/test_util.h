#ifndef ODE_TESTS_TEST_UTIL_H_
#define ODE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "compile/alphabet.h"
#include "compile/compiler.h"
#include "lang/event_parser.h"
#include "lang/mask_parser.h"

namespace ode {
namespace testing_util {

/// Fails the current test (fatally) if the result is an error.
#define ODE_ASSERT_OK(expr)                                         \
  do {                                                              \
    auto _s = (expr);                                               \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                          \
  } while (0)

#define ODE_EXPECT_OK(expr)                                         \
  do {                                                              \
    auto _s = (expr);                                               \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                          \
  } while (0)

/// Lowercase hex of `bytes`, for byte-exact golden comparisons.
inline std::string HexOf(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

/// Parses an event expression, aborting the test on failure.
inline EventExprPtr ParseOrDie(std::string_view text) {
  Result<EventExprPtr> r = ParseEvent(text);
  EXPECT_TRUE(r.ok()) << "parse of '" << text
                      << "' failed: " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

inline MaskExprPtr ParseMaskOrDie(std::string_view text) {
  Result<MaskExprPtr> r = ParseMask(text);
  EXPECT_TRUE(r.ok()) << "mask parse of '" << text
                      << "' failed: " << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

/// A compiled expression + alphabet pair for detector comparisons.
struct Compiled {
  EventExprPtr expr;
  CompiledEvent event;
};

inline Compiled CompileOrDie(std::string_view text,
                             const CompileOptions& options = {}) {
  Compiled out;
  out.expr = ParseOrDie(text);
  Result<CompiledEvent> compiled = CompileEvent(out.expr, options);
  EXPECT_TRUE(compiled.ok())
      << "compile of '" << text << "' failed: "
      << compiled.status().ToString();
  if (compiled.ok()) out.event = std::move(*compiled);
  return out;
}

/// Random-testing helpers. Symbol histories are drawn over the compiled
/// alphabet (which includes the OTHER symbol); expressions without masks or
/// gates have extended alphabet == base alphabet.
inline std::vector<SymbolId> RandomHistory(std::mt19937* rng,
                                           size_t alphabet_size,
                                           size_t length) {
  std::uniform_int_distribution<int> dist(
      0, static_cast<int>(alphabet_size) - 1);
  std::vector<SymbolId> out(length);
  for (SymbolId& s : out) s = dist(*rng);
  return out;
}

/// Generates a random mask-free event expression over method events
/// a(), b(), c(), ... (`depth` bounds the tree height).
inline EventExprPtr RandomExpr(std::mt19937* rng, int depth,
                               int num_methods = 3) {
  std::uniform_int_distribution<int> pick(0, 11);
  std::uniform_int_distribution<int> pick_method(0, num_methods - 1);
  std::uniform_int_distribution<int> pick_n(1, 3);
  auto atom = [&]() {
    std::string name(1, static_cast<char>('a' + pick_method(*rng)));
    EventQualifier q = (*rng)() % 2 == 0 ? EventQualifier::kBefore
                                         : EventQualifier::kAfter;
    return EventExpr::Atom(BasicEvent::Method(q, name));
  };
  if (depth <= 0) return atom();
  switch (pick(*rng)) {
    case 0:
      return atom();
    case 1:
      return EventExpr::Or(RandomExpr(rng, depth - 1, num_methods),
                           RandomExpr(rng, depth - 1, num_methods));
    case 2:
      return EventExpr::And(RandomExpr(rng, depth - 1, num_methods),
                            RandomExpr(rng, depth - 1, num_methods));
    case 3:
      return EventExpr::Not(RandomExpr(rng, depth - 1, num_methods));
    case 4:
      return EventExpr::Relative({RandomExpr(rng, depth - 1, num_methods),
                                  RandomExpr(rng, depth - 1, num_methods)});
    case 5:
      return EventExpr::RelativePlus(RandomExpr(rng, depth - 1, num_methods));
    case 6:
      return EventExpr::RelativeN(pick_n(*rng),
                                  RandomExpr(rng, depth - 1, num_methods));
    case 7:
      return EventExpr::Prior({RandomExpr(rng, depth - 1, num_methods),
                               RandomExpr(rng, depth - 1, num_methods)});
    case 8:
      return EventExpr::Sequence({RandomExpr(rng, depth - 1, num_methods),
                                  RandomExpr(rng, depth - 1, num_methods)});
    case 9:
      return EventExpr::Choose(pick_n(*rng),
                               RandomExpr(rng, depth - 1, num_methods));
    case 10:
      return EventExpr::Every(pick_n(*rng),
                              RandomExpr(rng, depth - 1, num_methods));
    default:
      return EventExpr::Fa(RandomExpr(rng, depth - 1, num_methods),
                           RandomExpr(rng, depth - 1, num_methods),
                           RandomExpr(rng, depth - 1, num_methods));
  }
}

}  // namespace testing_util
}  // namespace ode

#endif  // ODE_TESTS_TEST_UTIL_H_
