// udwn-expect: det-unordered-iter
// A read-only scan over an unordered member is flagged too: that a loop is
// order-insensitive is the author's claim to make in a suppression reason,
// not the checker's to guess from the loop body.
#include <unordered_map>
namespace udwn {
class Directory {
 public:
  bool knows(int key) const {
    for (auto it = weights_.begin(); it != weights_.end(); ++it) {
      if (it->first == key) return true;
    }
    return false;
  }

 private:
  std::unordered_map<int, double> weights_;
};
}  // namespace udwn
