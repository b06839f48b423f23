// udwn-expect: hot-path-alloc
// The last method of a chained call a.b().c(...) joins the hot call graph:
// through the class b() is declared to return (Recorder& recorder() ->
// Recorder::gather), and, when b()'s class is unknown (auto), through
// every class that declares the method (-> Spool::spill).
#include <vector>
namespace udwn {
class Recorder {
 public:
  void gather(int v) { seen_.push_back(v); }

 private:
  std::vector<int> seen_;
};

class Spool {
 public:
  void spill(int v) { out_.emplace_back(v); }

 private:
  std::vector<int> out_;
};

class Pipeline {
 public:
  UDWN_HOT void step(int v);
  Recorder& recorder() { return recorder_; }
  auto& spool() { return spool_; }

 private:
  Recorder recorder_;
  Spool spool_;
};

void Pipeline::step(int v) {
  recorder().gather(v);
  spool().spill(v);
}
}  // namespace udwn
