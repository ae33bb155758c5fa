#include "core/table.h"
namespace xydiff {
int Ledger::Size() { return 0; }
int Table::Size() {
  MutexLock rows(rows_mutex_);
  return rows_;
}
void Table::Grow() {
  MutexLock rows(rows_mutex_);
  MutexLock index(index_mutex_);
  ++rows_;
}
void Table::Rebuild() {
  const int size = Size();
  MutexLock index(index_mutex_);
  rows_ = size;
}
}  // namespace xydiff
