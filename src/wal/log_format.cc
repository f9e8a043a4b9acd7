#include "wal/log_format.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/strutil.h"
#include "ode/snapshot_codec.h"

namespace ode {
namespace wal {

namespace {

/// Table-driven CRC-32 (IEEE, reflected), table built once at startup.
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint8_t>(p[0]) |
         (uint32_t{static_cast<uint8_t>(p[1])} << 8) |
         (uint32_t{static_cast<uint8_t>(p[2])} << 16) |
         (uint32_t{static_cast<uint8_t>(p[3])} << 24);
}

/// Bounds-checked reader over a record payload (same discipline as the
/// wire Cursor: a failed read latches ok_ false and reads nothing).
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > size_) return Fail();
    *v = static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_]) |
                               (uint16_t{static_cast<uint8_t>(
                                    data_[pos_ + 1])}
                                << 8));
    pos_ += 2;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return Fail();
    uint64_t r = 0;
    for (int i = 7; i >= 0; --i) {
      r = (r << 8) | static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += 8;
    *v = r;
    return true;
  }
  bool ReadBytes(size_t n, std::string* v) {
    if (n > size_ || pos_ > size_ - n) return Fail();
    v->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const auto& table = CrcTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kEveryN: return "every-n";
    case FsyncPolicy::kEveryMs: return "every-ms";
    case FsyncPolicy::kNever: return "never";
  }
  return "?";
}

Status AppendRecord(std::string* out, const WalRecord& record) {
  if (record.method.size() > kMaxWalMethodLen) {
    return Status::InvalidArgument(
        StrFormat("wal record method is %zu bytes, limit %zu",
                  record.method.size(), kMaxWalMethodLen));
  }
  if (record.args.size() > kMaxWalArgs) {
    return Status::InvalidArgument(StrFormat(
        "wal record has %zu args, limit %zu", record.args.size(),
        kMaxWalArgs));
  }
  if (record.producer_id.size() > kMaxWalIdentityLen) {
    return Status::InvalidArgument(
        StrFormat("wal producer id is %zu bytes, limit %zu",
                  record.producer_id.size(), kMaxWalIdentityLen));
  }
  std::string payload;
  payload.reserve(32 + record.method.size() + record.producer_id.size());
  PutU64(&payload, record.lsn);
  PutU64(&payload, record.oid.id);
  PutU64(&payload, record.producer_seq);
  PutU16(&payload, static_cast<uint16_t>(record.producer_id.size()));
  payload.append(record.producer_id);
  PutU16(&payload, static_cast<uint16_t>(record.method.size()));
  payload.append(record.method);
  PutU16(&payload, static_cast<uint16_t>(record.args.size()));
  for (const Value& v : record.args) {
    std::string text = EncodeSnapshotValue(v);
    if (text.size() > UINT16_MAX) {
      return Status::InvalidArgument("wal record arg value too large");
    }
    PutU16(&payload, static_cast<uint16_t>(text.size()));
    payload.append(text);
  }
  if (payload.size() > kMaxWalPayload) {
    return Status::InvalidArgument(
        StrFormat("wal record payload is %zu bytes, limit %zu",
                  payload.size(), kMaxWalPayload));
  }
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload.data(), payload.size()));
  out->append(payload);
  return Status::OK();
}

DecodeStatus DecodeRecord(const char* data, size_t size, WalRecord* out,
                          size_t* consumed, std::string* error) {
  *consumed = 0;
  if (size < 8) return DecodeStatus::kNeedMore;
  const uint32_t payload_len = GetU32(data);
  if (payload_len > kMaxWalPayload) {
    if (error != nullptr) {
      *error = StrFormat("record length %u exceeds limit %zu", payload_len,
                         kMaxWalPayload);
    }
    return DecodeStatus::kCorrupt;
  }
  if (size < 8 + static_cast<size_t>(payload_len)) {
    return DecodeStatus::kNeedMore;
  }
  const uint32_t declared_crc = GetU32(data + 4);
  const char* payload = data + 8;
  if (Crc32(payload, payload_len) != declared_crc) {
    if (error != nullptr) *error = "record CRC mismatch";
    return DecodeStatus::kCorrupt;
  }

  *out = WalRecord{};
  Reader in(payload, payload_len);
  uint64_t oid = 0;
  uint16_t id_len = 0, method_len = 0, argc = 0;
  bool ok = in.ReadU64(&out->lsn) && in.ReadU64(&oid) &&
            in.ReadU64(&out->producer_seq) && in.ReadU16(&id_len);
  if (ok && id_len > kMaxWalIdentityLen) ok = false;
  ok = ok && in.ReadBytes(id_len, &out->producer_id) &&
       in.ReadU16(&method_len);
  if (ok && method_len > kMaxWalMethodLen) ok = false;
  ok = ok && in.ReadBytes(method_len, &out->method) && in.ReadU16(&argc);
  if (ok && argc > kMaxWalArgs) ok = false;
  if (ok) {
    out->oid = Oid{oid};
    out->args.reserve(argc);
    for (uint16_t i = 0; ok && i < argc; ++i) {
      uint16_t len = 0;
      std::string text;
      ok = in.ReadU16(&len) && in.ReadBytes(len, &text);
      if (!ok) break;
      Result<Value> v = DecodeSnapshotValue(text);
      if (!v.ok()) {
        ok = false;
        break;
      }
      out->args.push_back(std::move(*v));
    }
  }
  if (!ok || !in.ok() || !in.exhausted()) {
    // The CRC matched, so this is a writer bug or a deliberately crafted
    // payload rather than disk rot — still corrupt from the reader's view.
    if (error != nullptr) *error = "record payload malformed";
    return DecodeStatus::kCorrupt;
  }
  *consumed = 8 + static_cast<size_t>(payload_len);
  return DecodeStatus::kRecord;
}

void SeqSet::Add(uint64_t seq) {
  // First run with hi >= seq - 1 (the run `seq` joins or extends).
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), seq,
      [](const std::pair<uint64_t, uint64_t>& run, uint64_t s) {
        return run.second + 1 < s && run.second != UINT64_MAX;
      });
  if (it == runs_.end() || seq + 1 < it->first) {
    runs_.insert(it, {seq, seq});
    return;
  }
  if (seq >= it->first && seq <= it->second) return;  // Already present.
  if (seq + 1 == it->first) {
    it->first = seq;  // Extend left; cannot touch the previous run (else
                      // lower_bound would have landed there).
    return;
  }
  // seq == it->second + 1: extend right, then merge with the next run if
  // the gap closed.
  it->second = seq;
  auto next = it + 1;
  if (next != runs_.end() && it->second + 1 == next->first) {
    it->second = next->second;
    runs_.erase(next);
  }
}

bool SeqSet::Contains(uint64_t seq) const {
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), seq,
      [](const std::pair<uint64_t, uint64_t>& run, uint64_t s) {
        return run.second < s;
      });
  return it != runs_.end() && seq >= it->first;
}

uint64_t SeqSet::count() const {
  uint64_t n = 0;
  for (const auto& [lo, hi] : runs_) n += hi - lo + 1;
  return n;
}

std::string SeqSet::ToString() const {
  std::string out;
  for (const auto& [lo, hi] : runs_) {
    if (!out.empty()) out += ',';
    if (lo == hi) {
      out += StrFormat("%llu", static_cast<unsigned long long>(lo));
    } else {
      out += StrFormat("%llu-%llu", static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi));
    }
  }
  return out;
}

Result<SeqSet> SeqSet::Parse(std::string_view text) {
  SeqSet set;
  uint64_t prev_hi = 0;
  bool first = true;
  for (std::string_view part : Split(text, ',')) {
    if (part.empty()) continue;
    uint64_t lo = 0, hi = 0;
    size_t dash = part.find('-');
    auto parse_u64 = [](std::string_view s, uint64_t* out) {
      if (s.empty()) return false;
      uint64_t v = 0;
      for (char c : s) {
        if (c < '0' || c > '9') return false;
        if (v > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) {
          return false;
        }
        v = v * 10 + static_cast<uint64_t>(c - '0');
      }
      *out = v;
      return true;
    };
    bool ok = dash == std::string_view::npos
                  ? parse_u64(part, &lo) && (hi = lo, true)
                  : parse_u64(part.substr(0, dash), &lo) &&
                        parse_u64(part.substr(dash + 1), &hi);
    // Runs must be sorted, disjoint and non-adjacent (adjacent runs would
    // have been merged): lo > prev_hi + 1, written so that a run ending
    // at UINT64_MAX cannot wrap.
    if (!ok || hi < lo || (!first && (lo == 0 || lo - 1 <= prev_hi))) {
      return Status::InvalidArgument(
          StrFormat("bad seq set run '%.*s'", static_cast<int>(part.size()),
                    part.data()));
    }
    set.runs_.emplace_back(lo, hi);
    prev_hi = hi;
    first = false;
  }
  return set;
}

}  // namespace wal
}  // namespace ode
