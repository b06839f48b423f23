// udwn-expect: raw-assert rng-source
// tools/ gets every line rule, so a raw assert and a <random> engine are
// refused here as in src/, but not the src-only passes: its getenv read is
// not env-hygiene's business.
#include <cstdlib>
#include <random>
namespace udwn {
inline unsigned pick_seed() {
  const char* text = std::getenv("UDWN_SEED");
  assert(text != nullptr);
  std::mt19937 engine(static_cast<unsigned>(std::atoi(text)));
  return static_cast<unsigned>(engine());
}
}  // namespace udwn
