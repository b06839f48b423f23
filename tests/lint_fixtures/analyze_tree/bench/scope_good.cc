// udwn-expect: none
// bench/ gets the line rules only. Its getenv reads are its own (no
// env-hygiene), and its allocating free run() stays out of the call graph,
// though the hot Fields::resolve in src/sim/hot_alloc_cold_good.cc calls a
// free run().
#include <cstdlib>
#include <vector>
namespace udwn {
inline const char* json_sink() { return std::getenv("UDWN_JSON"); }

inline void run(int n) {
  std::vector<int> out;
  out.push_back(n);
}
}  // namespace udwn
