#include "storage/encoding.h"

#include <cstring>

#include "common/hash.h"

namespace s2rdf::storage {

void PutVarint64(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint64(std::string_view data, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

ColumnPlan PlanColumn(const std::vector<uint32_t>& column) {
  size_t plain = 0;
  size_t rle = 0;
  size_t delta = 0;
  if (!column.empty()) {
    int64_t prev = 0;
    uint32_t run_value = column[0];
    uint64_t run = 0;
    for (uint32_t v : column) {
      plain += VarintLength(v);
      delta += VarintLength(ZigZagEncode(static_cast<int64_t>(v) - prev));
      prev = static_cast<int64_t>(v);
      if (v != run_value) {
        rle += VarintLength(run_value) + VarintLength(run);
        run_value = v;
        run = 0;
      }
      ++run;
    }
    rle += VarintLength(run_value) + VarintLength(run);
  }
  ColumnPlan plan;
  size_t payload = plain;
  if (rle < payload) {
    plan.codec = ColumnCodec::kRle;
    payload = rle;
  }
  if (delta < payload) {
    plan.codec = ColumnCodec::kDeltaVarint;
    payload = delta;
  }
  plan.block_bytes = 1 + VarintLength(column.size()) + payload;
  return plan;
}

char* WriteColumn(const std::vector<uint32_t>& column, const ColumnPlan& plan,
                  char* out) {
  *out++ = static_cast<char>(plan.codec);
  out = PutVarint64(out, column.size());
  switch (plan.codec) {
    case ColumnCodec::kPlainVarint:
      for (uint32_t v : column) out = PutVarint64(out, v);
      break;
    case ColumnCodec::kRle:
      for (size_t i = 0; i < column.size();) {
        size_t run = 1;
        while (i + run < column.size() && column[i + run] == column[i]) ++run;
        out = PutVarint64(out, column[i]);
        out = PutVarint64(out, run);
        i += run;
      }
      break;
    case ColumnCodec::kDeltaVarint: {
      int64_t prev = 0;
      for (uint32_t v : column) {
        out = PutVarint64(out, ZigZagEncode(static_cast<int64_t>(v) - prev));
        prev = static_cast<int64_t>(v);
      }
      break;
    }
  }
  return out;
}

std::string EncodeColumn(const std::vector<uint32_t>& column) {
  const ColumnPlan plan = PlanColumn(column);
  std::string block(plan.block_bytes, '\0');
  WriteColumn(column, plan, block.data());
  return block;
}

Status DecodeColumn(std::string_view block, std::vector<uint32_t>* column) {
  column->clear();
  if (block.empty()) return InvalidArgumentError("empty column block");
  auto codec = static_cast<ColumnCodec>(block[0]);
  size_t pos = 1;
  uint64_t count = 0;
  if (!GetVarint64(block, &pos, &count)) {
    return InvalidArgumentError("column block truncated (count)");
  }
  column->reserve(count);
  switch (codec) {
    case ColumnCodec::kPlainVarint: {
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t v = 0;
        if (!GetVarint64(block, &pos, &v)) {
          return InvalidArgumentError("column block truncated (plain)");
        }
        column->push_back(static_cast<uint32_t>(v));
      }
      return Status::Ok();
    }
    case ColumnCodec::kRle: {
      while (column->size() < count) {
        uint64_t value = 0;
        uint64_t run = 0;
        if (!GetVarint64(block, &pos, &value) ||
            !GetVarint64(block, &pos, &run)) {
          return InvalidArgumentError("column block truncated (rle)");
        }
        for (uint64_t i = 0; i < run; ++i) {
          column->push_back(static_cast<uint32_t>(value));
        }
      }
      if (column->size() != count) {
        return InvalidArgumentError("rle run overshoots row count");
      }
      return Status::Ok();
    }
    case ColumnCodec::kDeltaVarint: {
      int64_t prev = 0;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t zz = 0;
        if (!GetVarint64(block, &pos, &zz)) {
          return InvalidArgumentError("column block truncated (delta)");
        }
        prev += ZigZagDecode(zz);
        column->push_back(static_cast<uint32_t>(prev));
      }
      return Status::Ok();
    }
  }
  return InvalidArgumentError("unknown column codec");
}

char* WriteColumnChecksummed(const std::vector<uint32_t>& column,
                             const ColumnPlan& plan, char* out) {
  char* end = WriteColumn(column, plan, out);
  const uint64_t checksum =
      Fnv1a64(std::string_view(out, static_cast<size_t>(end - out)));
  std::memcpy(end, &checksum, kChunkChecksumBytes);
  return end + kChunkChecksumBytes;
}

Status VerifyColumnChecksum(std::string_view chunk) {
  if (chunk.size() < kChunkChecksumBytes + 1) {
    return InvalidArgumentError("column chunk too short for its checksum");
  }
  uint64_t stored = 0;
  std::memcpy(&stored, chunk.data() + chunk.size() - kChunkChecksumBytes,
              kChunkChecksumBytes);
  if (Fnv1a64(chunk.substr(0, chunk.size() - kChunkChecksumBytes)) != stored) {
    return InvalidArgumentError("column chunk checksum mismatch");
  }
  return Status::Ok();
}

Status DecodeColumnChecksummed(std::string_view chunk,
                               std::vector<uint32_t>* column) {
  S2RDF_RETURN_IF_ERROR(VerifyColumnChecksum(chunk));
  return DecodeColumn(chunk.substr(0, chunk.size() - kChunkChecksumBytes),
                      column);
}

}  // namespace s2rdf::storage
