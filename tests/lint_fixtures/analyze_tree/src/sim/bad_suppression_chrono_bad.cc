// udwn-expect: bad-suppression det-wall-clock
// A bare allow() without `: reason` suppresses nothing and is itself
// reported, so a typo can never silently disable a rule.
#include <chrono>
namespace udwn {
inline long long stamp() {
  return std::chrono::steady_clock::now()  // udwn-lint: allow(det-wall-clock)
      .time_since_epoch()
      .count();
}
}  // namespace udwn
