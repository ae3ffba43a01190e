// Bit-level pins of the steady-state, long-run reward, reachability
// reward and unbounded-until (P0) values on a model with several bottom
// SCCs and transient states.  S and R[S] share one BSCC pass, and P0,
// R[F] and the per-BSCC stationary solve share one principal-submatrix
// helper; these pins hold all four measures to the bits they had before
// that sharing, on the plain, the lumped and the reordered checker.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "logic/parser.hpp"
#include "models/synthetic.hpp"

namespace csrl {
namespace {

/// Ten-state base: transient states 0-3 ("safe") drain into three bottom
/// SCCs -- the cycle {4, 5, 6}, the pair {7, 8} and the absorbing state 9.
/// Impulses sit on 1 -> 4 and 4 -> 5.  Two clones of it (replicated_mrm)
/// give six BSCCs, and every clone copy lumps with its sibling.
Mrm pin_model() {
  CsrBuilder rates(10, 10);
  rates.add(0, 1, 2.0);
  rates.add(0, 2, 1.0);
  rates.add(0, 3, 0.5);
  rates.add(1, 0, 1.5);
  rates.add(1, 4, 1.0);
  rates.add(1, 7, 0.25);
  rates.add(2, 1, 0.7);
  rates.add(2, 9, 0.3);
  rates.add(3, 2, 1.1);
  rates.add(3, 7, 2.0);
  rates.add(4, 5, 3.0);
  rates.add(5, 6, 1.0);
  rates.add(5, 4, 0.5);
  rates.add(6, 4, 2.0);
  rates.add(7, 8, 1.0);
  rates.add(8, 7, 4.0);
  Labelling labels(10);
  for (std::size_t s : {0, 4, 6, 8}) labels.add_label(s, "up");
  for (std::size_t s : {4, 5}) labels.add_label(s, "goal");
  for (std::size_t s : {4, 7, 9}) labels.add_label(s, "done");
  for (std::size_t s : {0, 1, 2, 3}) labels.add_label(s, "safe");
  CsrBuilder impulses(10, 10);
  impulses.add(1, 4, 2.0);
  impulses.add(4, 5, 0.75);
  const Mrm base(Ctmc(rates.build()),
                 {1.0, 2.0, 0.5, 3.0, 4.0, 1.0, 2.0, 0.0, 5.0, 0.0},
                 std::move(labels), 0);
  return replicated_mrm(base.with_impulses(impulses.build()), 2);
}

struct Pin {
  const char* formula;
  std::vector<double> base_values;  // per base state; each clone repeats it
};

// Plain checker; the lumped checker lifts exactly these bits too.
const Pin kPlainPins[] = {
    {"S=? [ up ]",
     {0x1.48e27044e4bf7p-2, 0x1.80310a09a667ep-2, 0x1.0cef20a05ae24p-2,
      0x1.c71d50f5ee192p-3, 0x1.ffffffffff424p-2, 0x1.ffffffffff424p-2,
      0x1.ffffffffff424p-2, 0x1.9999999999e14p-3, 0x1.9999999999e14p-3,
      0x0p+0}},
    {"R=? [ S ]",
     {0x1.a37dbd56592eep+0, 0x1.eaa1ad17d387fp+0, 0x1.57712c5d7a78cp+0,
      0x1.1f07204233d42p+0, 0x1.47fffffffff22p+1, 0x1.47fffffffff22p+1,
      0x1.47fffffffff22p+1, 0x1.00000000002ccp+0, 0x1.00000000002ccp+0,
      0x0p+0}},
    {"R=? [ F done ]",
     {0x1.93b8962ebd558p+1, 0x1.9664af0238ba4p+1, 0x1.5c79adb4c14f2p+1,
      0x1.ef0c07a99171fp+0, 0x0p+0, 0x1.5555555555555p+0,
      0x1p+0, 0x0p+0, 0x1.4p+0,
      0x0p+0}},
    {"P=? [ safe U goal ]",
     {0x1.0c5620075a3a5p-1, 0x1.4c8c11785fc2cp-1, 0x1.d190e5421faa3p-2,
      0x1.4a66d43f714f8p-3, 0x1p+0, 0x1p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0}},
};

// CheckOptions::reorder_states: the renumbered solve sums in another
// order, so its bits differ from the plain ones.
const Pin kReorderedPins[] = {
    {"S=? [ up ]",
     {0x1.48e27044e48fep-2, 0x1.80310a09a64dfp-2, 0x1.0cef20a05a244p-2,
      0x1.c71d50f5ed924p-3, 0x1.ffffffffff427p-2, 0x1.ffffffffff427p-2,
      0x1.ffffffffff427p-2, 0x1.9999999999e14p-3, 0x1.9999999999e14p-3,
      0x0p+0}},
    {"R=? [ S ]",
     {0x1.a37dbd5658f24p+0, 0x1.eaa1ad17d366fp+0, 0x1.57712c5d79872p+0,
      0x1.1f072042337e6p+0, 0x1.47fffffffff24p+1, 0x1.47fffffffff24p+1,
      0x1.47fffffffff24p+1, 0x1.00000000002ccp+0, 0x1.00000000002ccp+0,
      0x0p+0}},
    {"R=? [ F done ]",
     {0x1.93b8962ebd486p+1, 0x1.9664af0238b32p+1, 0x1.5c79adb4c129ep+1,
      0x1.ef0c07a991578p+0, 0x0p+0, 0x1.5555555555555p+0,
      0x1p+0, 0x0p+0, 0x1.4p+0,
      0x0p+0}},
    {"P=? [ safe U goal ]",
     {0x1.0c5620075a142p-1, 0x1.4c8c11785fadep-1, 0x1.d190e5421ea3ep-2,
      0x1.4a66d43f70956p-3, 0x1p+0, 0x1p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      0x0p+0}},
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_pins(const Checker& checker, const Pin (&pins)[4],
                 const std::string& what) {
  for (const Pin& pin : pins) {
    const std::vector<double> values =
        checker.values(*parse_formula(pin.formula));
    ASSERT_EQ(values.size(), 2 * pin.base_values.size()) << what;
    for (std::size_t s = 0; s < values.size(); ++s) {
      const double want = pin.base_values[s % pin.base_values.size()];
      EXPECT_TRUE(same_bits(values[s], want))
          << what << " " << pin.formula << " state " << s << ": got "
          << std::hexfloat << values[s] << ", pinned " << want;
    }
  }
}

TEST(ValuePins, PlainChecker) {
  const Mrm model = pin_model();
  expect_pins(Checker(model), kPlainPins, "plain");
}

TEST(ValuePins, LumpedChecker) {
  const Mrm model = pin_model();
  CheckOptions options;
  options.lump = true;
  expect_pins(Checker(model, options), kPlainPins, "lumped");
}

TEST(ValuePins, ReorderedChecker) {
  const Mrm model = pin_model();
  CheckOptions options;
  options.reorder_states = true;
  expect_pins(Checker(model, options), kReorderedPins, "reordered");
}

}  // namespace
}  // namespace csrl
