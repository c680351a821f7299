// Bounds-checked little-endian (de)serialization primitives, and the field
// list adapters built on them.
//
// ByteWriter/ByteReader started life inside the server protocol
// (server/protocol.h) and moved here when the durable job journal
// (src/jobs) needed the same total-decoding discipline without pulling the
// whole protocol in: every component that persists or ships bytes — GAF1
// payloads, the cache log, the job journal — encodes with the writer and
// decodes with the reader, whose every getter returns false (and poisons
// the reader) on underflow so decoders can chain reads and check once.
//
// Each byte layout is stated once, as a field list:
//
//   template <class IO>
//   void Fields(IO& io, PutGraphResult& m) {
//     io.U64(m.content_hash);
//     io.Bool(m.already_present);
//   }
//
// WireEncoder walks the list and appends each field; WireDecoder walks the
// same list and reads each field back. A field's cap or rule is an argument
// of the field (a string's max length, a sequence's max count, the bytes a
// bool accepts, an enum's largest value), so the decoder enforces it where
// the field is read. Checks that span fields are Require/Fail calls placed
// after the fields they read; the encoder ignores them.
//
// Decoder failure is sticky: the first one latches an error message and
// every later read is a no-op, so a field list never branches on success.
// The message is the label current at the failure (set with Label), or the
// text passed to Fail.
#ifndef GRAPHALIGN_COMMON_WIRE_H_
#define GRAPHALIGN_COMMON_WIRE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace graphalign {

class ByteWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v);
  // u32 length followed by the raw bytes.
  void Str(std::string_view s);

  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// Every getter returns false (and leaves the reader poisoned) on underflow,
// so decoders can chain reads and check once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool F64(double* v);
  // Reads a u32-length-prefixed string of at most max_len bytes.
  bool Str(std::string* s, size_t max_len);

  bool failed() const { return failed_; }
  bool AtEnd() const { return !failed_ && pos_ == bytes_.size(); }
  size_t remaining() const { return failed_ ? 0 : bytes_.size() - pos_; }

 private:
  bool Take(size_t n, const char** p);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// What byte a bool field accepts on decode. Encoding always writes 0 or 1.
enum class BoolRule {
  kNonzero,    // Any nonzero byte reads as true.
  kZeroOrOne,  // Any other byte is rejected.
};

// Walks a field list and appends every field. It only reads the message:
// callers may pass a const message through const_cast.
class WireEncoder {
 public:
  // `key` names the field for adapters that emit named output (the
  // gateway's JSON stats); the byte adapters ignore it.
  void U8(uint8_t& v) { w_.U8(v); }
  void U32(uint32_t& v) { w_.U32(v); }
  void U64(uint64_t& v, const char* /*key*/ = nullptr) { w_.U64(v); }
  void I32(int32_t& v) { w_.I32(v); }
  void I64(int64_t& v) { w_.U64(static_cast<uint64_t>(v)); }
  void F64(double& v, const char* /*key*/ = nullptr) { w_.F64(v); }
  void Bool(bool& v, BoolRule /*rule*/ = BoolRule::kNonzero) {
    w_.U8(v ? 1 : 0);
  }
  void Str(std::string& s, size_t /*max_len*/) { w_.Str(s); }
  // A non-negative int carried as a u32.
  void U32Below(int& v, uint64_t /*limit*/) {
    w_.U32(static_cast<uint32_t>(v));
  }
  // An enum carried as its underlying u8 or u32.
  template <class E>
  void Enum(E& e, E /*max*/ = E{}) {
    auto v = static_cast<std::underlying_type_t<E>>(e);
    Underlying(v);
  }
  // A sequence: its u32 (Seq32) or u64 (Seq64) count, then each element
  // walked by `each`.
  template <class T, class Each>
  void Seq32(std::vector<T>& v, uint32_t /*max_count*/, Each each,
             const char* /*key*/ = nullptr) {
    w_.U32(static_cast<uint32_t>(v.size()));
    for (T& x : v) each(x);
  }
  template <class T, class Each>
  void Seq64(std::vector<T>& v, uint64_t /*max_count*/, Each each) {
    w_.U64(v.size());
    for (T& x : v) each(x);
  }

  void Label(const char* /*label*/) {}
  void Require(bool /*cond*/) {}
  void Fail(const std::string& /*message*/) {}
  void End() {}

  std::string Take() { return w_.Take(); }

 private:
  void Underlying(uint8_t& v) { U8(v); }
  void Underlying(uint32_t& v) { U32(v); }

  ByteWriter w_;
};

// Walks a field list and reads every field back, enforcing each field's
// cap or rule. Construct it with the label for failures; check ok() after
// the walk and End().
class WireDecoder {
 public:
  WireDecoder(std::string_view bytes, const char* label)
      : r_(bytes), label_(label) {}

  void U8(uint8_t& v) { Require(r_.U8(&v)); }
  void U32(uint32_t& v) { Require(r_.U32(&v)); }
  void U64(uint64_t& v, const char* /*key*/ = nullptr) {
    Require(r_.U64(&v));
  }
  void I32(int32_t& v) { Require(r_.I32(&v)); }
  void I64(int64_t& v) {
    uint64_t u = 0;
    U64(u);
    v = static_cast<int64_t>(u);
  }
  void F64(double& v, const char* /*key*/ = nullptr) { Require(r_.F64(&v)); }
  void Bool(bool& v, BoolRule rule = BoolRule::kNonzero) {
    uint8_t b = 0;
    U8(b);
    Require(rule == BoolRule::kNonzero || b <= 1);
    v = b != 0;
  }
  // Rejects a string longer than max_len before copying it.
  void Str(std::string& s, size_t max_len) { Require(r_.Str(&s, max_len)); }
  // Rejects a value >= limit.
  void U32Below(int& v, uint64_t limit) {
    uint32_t u = 0;
    U32(u);
    Require(u < limit);
    v = static_cast<int>(u);
  }
  template <class E>
  void Enum(E& e) {
    auto v = static_cast<std::underlying_type_t<E>>(e);
    Underlying(v);
    e = static_cast<E>(v);
  }
  // Rejects a value above max.
  template <class E>
  void Enum(E& e, E max) {
    Enum(e);
    Require(e <= max);
  }
  // Rejects a count above max_count before allocating anything.
  template <class T, class Each>
  void Seq32(std::vector<T>& v, uint32_t max_count, Each each,
             const char* /*key*/ = nullptr) {
    uint32_t n = 0;
    U32(n);
    Elements(v, n, max_count, each);
  }
  template <class T, class Each>
  void Seq64(std::vector<T>& v, uint64_t max_count, Each each) {
    uint64_t n = 0;
    U64(n);
    Elements(v, n, max_count, each);
  }

  // Names what a failure from here on means.
  void Label(const char* label) { label_ = label; }
  // Only the first failure counts; later ones keep its message.
  void Require(bool cond) {
    if (!cond) Fail(label_);
  }
  void Fail(const std::string& message) {
    if (!ok_) return;
    ok_ = false;
    error_ = message;
  }
  // Rejects trailing bytes.
  void End() { Require(r_.AtEnd()); }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

 private:
  void Underlying(uint8_t& v) { U8(v); }
  void Underlying(uint32_t& v) { U32(v); }

  template <class T, class Each>
  void Elements(std::vector<T>& v, uint64_t n, uint64_t max_count,
                Each& each) {
    Require(n <= max_count);
    v.clear();
    if (!ok_) return;
    // Every element takes at least one byte, so a hostile count reserves
    // no more than the payload could hold.
    v.reserve(std::min<uint64_t>(n, r_.remaining()));
    for (uint64_t i = 0; i < n && ok_; ++i) each(v.emplace_back());
  }

  ByteReader r_;
  const char* label_;
  bool ok_ = true;
  std::string error_;
};

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_WIRE_H_
