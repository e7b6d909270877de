#ifndef AURORA_ENGINE_ROW_CODEC_H_
#define AURORA_ENGINE_ROW_CODEC_H_

#include <string>

#include "common/coding.h"
#include "common/result.h"
#include "common/slice.h"

namespace aurora {

/// The stored form of a user-table row: a varint32 schema version stamp
/// (online DDL, §7.3) followed by the value.
inline std::string EncodeRow(uint32_t version, const Slice& value) {
  std::string row;
  PutVarint32(&row, version);
  row.append(value.data(), value.size());
  return row;
}

inline Status DecodeRow(const std::string& row, uint32_t* version,
                        std::string* value) {
  Slice in(row);
  if (!GetVarint32(&in, version)) return Status::Corruption("bad row header");
  value->assign(in.data(), in.size());
  return Status::OK();
}

/// The completion of every row read, on the writer and on the replicas:
/// `s` is the read's status and `row` the stored row it found. Readers
/// decode any historical version, so the stamp is dropped.
inline Result<std::string> FinishRowRead(const Status& s,
                                         const std::string& row) {
  if (!s.ok()) return s;
  uint32_t version;
  std::string value;
  Status ds = DecodeRow(row, &version, &value);
  if (!ds.ok()) return ds;
  return value;
}

}  // namespace aurora

#endif  // AURORA_ENGINE_ROW_CODEC_H_
