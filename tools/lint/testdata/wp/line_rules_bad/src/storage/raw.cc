// Fixture: raw C stdio in storage code bypasses the Env seam.
#include <cstdio>

namespace s2rdf::storage {

void Dump(const char* path) {
  FILE* f = fopen(path, "wb");
  if (f) std::fclose(f);
}

}  // namespace s2rdf::storage
