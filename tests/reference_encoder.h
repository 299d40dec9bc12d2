#ifndef S2RDF_TESTS_REFERENCE_ENCODER_H_
#define S2RDF_TESTS_REFERENCE_ENCODER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/table.h"

// The S2TB writer as three trial encodings and string appends: each
// column encoded with all three codecs and the smallest kept (ties go to
// plain, then RLE), each blob built by appending to a string. It defines
// the bytes storage::EncodeColumn and storage::SerializeTable — which
// size a blob in one counting pass and then write it in place — must
// produce; the byte-identity tests in storage_test.cc and
// segment_layout_test.cc compare against it.

namespace s2rdf::reference {

// The payload of `column` under each codec (no tag, no row count).
std::string EncodePlain(const std::vector<uint32_t>& column);
std::string EncodeRle(const std::vector<uint32_t>& column);
std::string EncodeDelta(const std::vector<uint32_t>& column);

// Codec tag, row count and the smallest of the three payloads.
std::string EncodeColumn(const std::vector<uint32_t>& column);

// The whole S2TB v2 blob of `table`.
std::string SerializeTable(const rdf::Table& table);

}  // namespace s2rdf::reference

#endif  // S2RDF_TESTS_REFERENCE_ENCODER_H_
