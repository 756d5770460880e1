#include "common/serial.h"

#include <cstring>

namespace causer::serial {
namespace {

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

/// Sanity cap on length-prefixed reads: a corrupted length prefix must not
/// turn into a multi-gigabyte allocation before the (inevitable) short-read
/// failure. No legitimate blob in this codebase approaches this.
constexpr uint64_t kMaxElements = uint64_t{1} << 32;

}  // namespace

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendI32(std::string* out, int32_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendF32(std::string* out, float v) { AppendRaw(out, &v, sizeof(v)); }
void AppendF64(std::string* out, double v) { AppendRaw(out, &v, sizeof(v)); }

void AppendString(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

void AppendFloats(std::string* out, const std::vector<float>& v) {
  AppendFloats(out, v.data(), v.size());
}

void AppendFloats(std::string* out, const float* data, size_t n) {
  AppendU64(out, n);
  AppendRaw(out, data, n * sizeof(float));
}

void AppendDoubles(std::string* out, const std::vector<double>& v) {
  AppendU64(out, v.size());
  AppendRaw(out, v.data(), v.size() * sizeof(double));
}

bool Reader::Take(void* dst, size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  // An empty vector's data() may be null, and memcpy forbids null even
  // for n == 0.
  if (n > 0) std::memcpy(dst, data_ + pos_, n);
  pos_ += n;
  return true;
}

bool Reader::Skip(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  pos_ += n;
  return true;
}

bool Reader::ReadU32(uint32_t* v) { return Take(v, sizeof(*v)); }
bool Reader::ReadU64(uint64_t* v) { return Take(v, sizeof(*v)); }
bool Reader::ReadI32(int32_t* v) { return Take(v, sizeof(*v)); }
bool Reader::ReadF32(float* v) { return Take(v, sizeof(*v)); }
bool Reader::ReadF64(double* v) { return Take(v, sizeof(*v)); }

bool Reader::ReadString(std::string* s) {
  uint64_t n = 0;
  if (!ReadU64(&n) || n > kMaxElements || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  s->assign(data_ + pos_, n);
  pos_ += n;
  return true;
}

bool Reader::ReadFloats(std::vector<float>* v) {
  uint64_t n = 0;
  if (!ReadU64(&n) || n > kMaxElements ||
      size_ - pos_ < n * sizeof(float)) {
    ok_ = false;
    return false;
  }
  v->resize(n);
  return Take(v->data(), n * sizeof(float));
}

bool Reader::ReadDoubles(std::vector<double>* v) {
  uint64_t n = 0;
  if (!ReadU64(&n) || n > kMaxElements ||
      size_ - pos_ < n * sizeof(double)) {
    ok_ = false;
    return false;
  }
  v->resize(n);
  return Take(v->data(), n * sizeof(double));
}

namespace {

/// Nibble-wise CRC-32 table: 16 entries instead of 256 keeps the static
/// footprint trivial; checkpoint payloads are small enough that the extra
/// shift per byte is invisible next to the file I/O around it.
constexpr uint32_t kCrcNibble[16] = {
    0x00000000, 0x1DB71064, 0x3B6E20C8, 0x26D930AC, 0x76DC4190, 0x6B6B51F4,
    0x4DB26158, 0x5005713C, 0xEDB88320, 0xF00F9344, 0xD6D6A3E8, 0xCB61B38C,
    0x9B64C2B0, 0x86D3D2D4, 0xA00AE278, 0xBDBDF21C,
};

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    crc = (crc >> 4) ^ kCrcNibble[crc & 0x0F];
    crc = (crc >> 4) ^ kCrcNibble[crc & 0x0F];
  }
  return ~crc;
}

}  // namespace causer::serial
