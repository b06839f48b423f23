// udwn-expect: none
// Allocation in a function NOT reachable from a hot root is fine: rebuild()
// is only called on topology changes, and nothing hot calls it. The free
// run() that resolve() calls is defined only under bench/, which is not in
// the call graph (bench/scope_good.cc).
#include <vector>
namespace udwn {
void run(int n);

class Fields {
 public:
  UDWN_HOT void resolve(int n);
  void rebuild(int n);

 private:
  std::vector<double> field_;
};

void Fields::resolve(int n) {
  for (int i = 0; i < n; ++i) field_[static_cast<unsigned>(i)] = 0.0;
  run(n);
}

void Fields::rebuild(int n) { field_.resize(static_cast<unsigned>(n)); }
}  // namespace udwn
