// Fixture: the same stdio call in a standalone tool, where the tools/
// profile relaxes raw-io.
#include <cstdio>

namespace s2rdf::gen {

void Dump(const char* path) {
  FILE* f = fopen(path, "wb");
  if (f) std::fclose(f);
}

}  // namespace s2rdf::gen
