// udwn-expect: det-wall-clock
// Raw std::chrono outside src/obs and bench is a determinism leak.
#include <chrono>
namespace udwn {
inline long long stamp() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
}  // namespace udwn
