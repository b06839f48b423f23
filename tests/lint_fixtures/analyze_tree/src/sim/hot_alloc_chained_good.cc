// udwn-expect: none
// A chained call resolves through the class its receiver call is declared
// to return: ledger().tally() reaches Ledger::tally, which only adds, and
// not Journal::tally, which allocates but is never called on a hot path.
#include <vector>
namespace udwn {
class Ledger {
 public:
  void tally(int v) { sum_ += v; }

 private:
  int sum_ = 0;
};

class Journal {
 public:
  void tally(int v) { lines_.push_back(v); }

 private:
  std::vector<int> lines_;
};

class Books {
 public:
  UDWN_HOT void post(int v);
  Ledger& ledger() { return ledger_; }

 private:
  Ledger ledger_;
};

void Books::post(int v) { ledger().tally(v); }
}  // namespace udwn
