#ifndef ODE_COMMON_BYTE_CODEC_H_
#define ODE_COMMON_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ode {

// The little-endian byte codec shared by every binary format in the tree:
// the wire protocol (net/wire.h), the shard WAL (wal/log_format.h) and the
// sequencer order log (seq/order_log.h).

/// Writes `v` little-endian to p[0, sizeof(T)) (patching a placeholder).
template <typename T>
inline void StoreFixed(char* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<char>(v >> (8 * i));
  }
}

template <typename T>
inline void PutFixed(std::string* out, T v) {
  char bytes[sizeof(T)];
  StoreFixed(bytes, v);
  out->append(bytes, sizeof(T));
}

inline void PutU8(std::string* out, uint8_t v) { PutFixed(out, v); }
inline void PutU16(std::string* out, uint16_t v) { PutFixed(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutFixed(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutFixed(out, v); }

/// Reads a little-endian T from `p`, which must hold sizeof(T) bytes.
template <typename T>
inline T GetFixed(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(static_cast<uint8_t>(p[i])) << (8 * i));
  }
  return v;
}

inline uint32_t GetU32(const char* p) { return GetFixed<uint32_t>(p); }

/// Bounds-checked sequential reader over one payload. A read that would
/// pass the end reads nothing, returns false and latches ok() false, so a
/// decoder may chain reads and check once at the end.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ReadU8(uint8_t* v) { return ReadFixed(v); }
  bool ReadU16(uint16_t* v) { return ReadFixed(v); }
  bool ReadU32(uint32_t* v) { return ReadFixed(v); }
  bool ReadU64(uint64_t* v) { return ReadFixed(v); }

  /// Views the next `n` bytes (valid while the underlying buffer is).
  bool ReadBytes(size_t n, std::string_view* v) {
    if (n > size_ - pos_) return Fail();
    *v = std::string_view(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool ReadBytes(size_t n, std::string* v) {
    std::string_view view;
    if (!ReadBytes(n, &view)) return false;
    v->assign(view);
    return true;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  template <typename T>
  bool ReadFixed(T* v) {
    if (sizeof(T) > size_ - pos_) return Fail();
    *v = GetFixed<T>(data_ + pos_);
    pos_ += sizeof(T);
    return true;
  }
  bool Fail() {
    ok_ = false;
    return false;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ode

#endif  // ODE_COMMON_BYTE_CODEC_H_
