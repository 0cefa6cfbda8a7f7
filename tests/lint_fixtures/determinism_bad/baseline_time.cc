// lint-fixture: bench/baselines/bad_store.cc
#include <cstdlib>

int BlockRows() { return getenv("ROWS") != nullptr ? 1 : 4096; }
