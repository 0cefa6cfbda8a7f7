// lint-fixture: bench/baselines/bad_store.cc
#include "util/sync.h"

std::mutex rows_mutex;
