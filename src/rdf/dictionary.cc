#include "rdf/dictionary.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/hash.h"
#include "common/mutex.h"

namespace s2rdf::rdf {

TermId Dictionary::Encode(std::string_view canonical) {
  std::string key(canonical);
  {
    // Fast path: the term is usually already interned (shared lock).
    ReaderLock lock(&mu_);
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
  }
  WriterLock lock(&mu_);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;  // Raced with another writer.
  TermId id = static_cast<TermId>(by_id_.size());
  auto [inserted, _] = ids_.emplace(std::move(key), id);
  by_id_.push_back(&inserted->first);
  return id;
}

std::optional<TermId> Dictionary::Find(std::string_view canonical) const {
  ReaderLock lock(&mu_);
  auto it = ids_.find(std::string(canonical));
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Dictionary::Decode(TermId id) const {
  // The returned reference stays valid after unlock: map nodes are
  // stable and entries are never erased.
  ReaderLock lock(&mu_);
  S2RDF_CHECK(id < by_id_.size());
  return *by_id_[id];
}

namespace {

// The blob envelope: magic, the payload's FNV-1a64 in hex, newline.
constexpr char kBlobMagic[] = "S2DICT1\n";
constexpr size_t kMagicLen = sizeof(kBlobMagic) - 1;
constexpr size_t kHeaderLen = kMagicLen + 17;

std::string ChecksumHex(std::string_view payload) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(payload)));
  return hex;
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

bool GetU32(std::string_view blob, size_t* pos, uint32_t* v) {
  if (*pos + 4 > blob.size()) return false;
  std::memcpy(v, blob.data() + *pos, 4);
  *pos += 4;
  return true;
}

}  // namespace

std::string Dictionary::Serialize(TermId first, TermId end) const {
  std::string blob(kBlobMagic);
  blob.append(17, '\n');  // The checksum goes here once the payload is in.
  {
    ReaderLock lock(&mu_);
    end = std::min<TermId>(end, static_cast<TermId>(by_id_.size()));
    first = std::min(first, end);
    PutU32(&blob, end - first);
    for (TermId id = first; id < end; ++id) {
      PutU32(&blob, static_cast<uint32_t>(by_id_[id]->size()));
      blob += *by_id_[id];
    }
  }
  blob.replace(kMagicLen, 16,
               ChecksumHex(std::string_view(blob).substr(kHeaderLen)));
  return blob;
}

Status Dictionary::Append(std::string_view blob) {
  if (blob.size() < kHeaderLen || blob.substr(0, kMagicLen) != kBlobMagic) {
    return InvalidArgumentError("dictionary header missing");
  }
  if (blob[kHeaderLen - 1] != '\n') {
    return InvalidArgumentError("dictionary header malformed");
  }
  const std::string_view payload = blob.substr(kHeaderLen);
  if (blob.substr(kMagicLen, 16) != ChecksumHex(payload)) {
    return InvalidArgumentError("dictionary checksum mismatch");
  }
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetU32(payload, &pos, &count)) {
    return InvalidArgumentError("dictionary blob truncated (count)");
  }
  auto next = static_cast<TermId>(size());
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!GetU32(payload, &pos, &len) || pos + len > payload.size()) {
      return InvalidArgumentError("dictionary blob truncated (entry)");
    }
    if (Encode(payload.substr(pos, len)) != next++) {
      return InvalidArgumentError("dictionary blob has duplicate terms");
    }
    pos += len;
  }
  return Status::Ok();
}

}  // namespace s2rdf::rdf
