// lint-fixture: bench/baselines/bad_store.cc
#include <cstdio>

void Persist() {
  FILE* f = fopen("rows.bin", "wb");
  (void)f;
}
