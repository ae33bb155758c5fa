#ifndef FIXTURE_CORE_TABLE_H_
#define FIXTURE_CORE_TABLE_H_
namespace xydiff {
class Mutex {};
// Two classes define Size(), so only the implicit `this->` in
// Table::Rebuild tells which one it calls.
class Ledger {
 public:
  int Size();
};
class Table {
 public:
  int Size();
  void Grow();
  void Rebuild();

 private:
  Mutex rows_mutex_;
  Mutex index_mutex_;
  int rows_ = 0;
};
}  // namespace xydiff
#endif
