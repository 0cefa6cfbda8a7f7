// lint-fixture: src/query/compare.cc
#include "bench/baselines/row_store.h"
#include "util/status.h"

void Compare() {}
