#pragma once
// Byte-exact text wire format for checkpoint persistence.
//
// Snapshots must survive a disk round trip bit-for-bit — the digest
// contract of the serve layer compares a re-warmed branch against serial
// re-simulation, so one flipped mantissa bit is a divergence. Doubles
// therefore travel as the hex of their raw bit pattern (printf %.17g does
// not preserve NaN payloads or distinguish every -0.0 path), integers as
// decimal tokens, and byte strings length-prefixed so embedded spaces and
// newlines never confuse the tokenizer.
//
// One number codec serves every snapshot image — WireWriter / WireReader
// here, MetricsRegistry::serialize/deserialize (embedded in every Network
// snapshot) and the SnapshotStore file header: format_u64 / format_hex64
// write, parse_u64 / parse_hex64 read. No token costs a heap allocation
// of its own: formatting is std::to_chars plus a zero-padded hex loop
// into a stack buffer, parsing is std::from_chars plus a hex loop over a
// string_view. Only canonical tokens — exactly what the formatters emit —
// are accepted: no sign, no leading whitespace or zeros, no 0x, no
// uppercase hex, no overflow. Every accepted image therefore re-encodes
// to the same bytes, and a mutated image cannot alias a different value.
//
// WireReader is fail-soft: any malformed token latches ok() to false and
// every subsequent read returns a zero value, so decoders can run a whole
// field list and check ok() once at the end — corrupt input must yield a
// clean rejection, never UB or a throw from parsing.

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "sim/geometry.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace iobt::sim {

/// Longest token format_u64 writes (UINT64_MAX has 20 digits).
inline constexpr std::size_t kMaxU64Chars = 20;

/// Writes `v` as decimal at `out` (room for kMaxU64Chars); returns the end.
inline char* format_u64(char* out, std::uint64_t v) {
  return std::to_chars(out, out + kMaxU64Chars, v).ptr;
}

/// Writes the 16 zero-padded lowercase hex digits of `v` at `out`;
/// returns the end.
inline char* format_hex64(char* out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out + 16;
}

/// Parses a canonical decimal token (what format_u64 writes) into `v`.
/// False — `v` untouched — on an empty token, a sign, whitespace, a
/// leading zero, any non-digit, or a value past UINT64_MAX.
inline bool parse_u64(std::string_view tok, std::uint64_t& v) {
  if (tok.empty() || (tok[0] == '0' && tok.size() > 1)) return false;
  const char* end = tok.data() + tok.size();
  std::uint64_t x = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), end, x);
  if (ec != std::errc() || ptr != end) return false;
  v = x;
  return true;
}

/// Parses exactly 16 lowercase hex digits (what format_hex64 writes).
inline bool parse_hex64(std::string_view tok, std::uint64_t& v) {
  if (tok.size() != 16) return false;
  std::uint64_t x = 0;
  for (const char c : tok) {
    std::uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    x = (x << 4) | d;
  }
  v = x;
  return true;
}

class WireWriter {
 public:
  WireWriter& u64(std::uint64_t v) {
    char tok[kMaxU64Chars + 1];
    char* end = format_u64(tok, v);
    *end++ = ' ';
    buf_.append(tok, end);
    return *this;
  }
  /// Two's-complement round trip through the u64 token space.
  WireWriter& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  WireWriter& boolean(bool b) { return u64(b ? 1 : 0); }
  /// Raw bit pattern as 16 hex chars — the only bit-exact text encoding.
  WireWriter& f64(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    char tok[17];
    format_hex64(tok, bits)[0] = ' ';
    buf_.append(tok, sizeof tok);
    return *this;
  }
  /// Length-prefixed raw bytes (binary-safe: embedded separators are fine).
  WireWriter& bytes(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
    buf_ += ' ';
    return *this;
  }
  WireWriter& time(SimTime t) { return i64(t.nanos()); }
  WireWriter& dur(Duration d) { return i64(d.nanos()); }
  WireWriter& vec2(Vec2 v) { return f64(v.x).f64(v.y); }
  WireWriter& rect(const Rect& r) { return vec2(r.min).vec2(r.max); }
  WireWriter& rng(const Rng& g) {
    const Rng::State st = g.state();
    for (std::uint64_t word : st.s) u64(word);
    return f64(st.cached_normal).boolean(st.has_cached_normal);
  }

  const std::string& out() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}

  std::uint64_t u64() {
    std::string_view tok;
    std::uint64_t v = 0;
    if (!next_token(tok) || !parse_u64(tok, v)) return fail_u64();
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() {
    const std::uint64_t v = u64();
    if (v > 1) return static_cast<bool>(fail_u64());
    return v != 0;
  }
  double f64() {
    std::string_view tok;
    std::uint64_t bits = 0;
    if (!next_token(tok) || !parse_hex64(tok, bits)) {
      return static_cast<double>(fail_u64());
    }
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    return x;
  }
  std::string bytes() { return std::string(bytes_view()); }
  /// bytes() without the copy: a view into the reader's input, valid as
  /// long as that input is.
  std::string_view bytes_view() {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining()) {
      fail_u64();
      return {};
    }
    const std::string_view s = in_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    // Consume the trailing separator the writer always emits.
    if (pos_ >= in_.size() || in_[pos_] != ' ') {
      fail_u64();
      return {};
    }
    ++pos_;
    return s;
  }
  SimTime time() { return SimTime(i64()); }
  Duration dur() { return Duration(i64()); }
  Vec2 vec2() {
    Vec2 v;
    v.x = f64();
    v.y = f64();
    return v;
  }
  Rect rect() {
    Rect r;
    r.min = vec2();
    r.max = vec2();
    return r;
  }
  Rng rng() {
    Rng::State st;
    for (std::uint64_t& word : st.s) word = u64();
    st.cached_normal = f64();
    st.has_cached_normal = boolean();
    return Rng::from_state(st);
  }

  /// A corrupt element count must never drive a giant allocation: callers
  /// gate `reserve(n)` on n <= remaining() (every element is >= 2 bytes on
  /// the wire, so a legitimate count can never exceed the bytes left).
  std::size_t remaining() const { return in_.size() - pos_; }
  bool at_end() const { return pos_ == in_.size(); }
  bool ok() const { return ok_; }

 private:
  bool next_token(std::string_view& tok) {
    if (!ok_) return false;
    const std::size_t sep = in_.find(' ', pos_);
    if (sep == std::string_view::npos || sep == pos_) {
      ok_ = false;
      return false;
    }
    tok = in_.substr(pos_, sep - pos_);
    pos_ = sep + 1;
    return true;
  }
  std::uint64_t fail_u64() {
    ok_ = false;
    return 0;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace iobt::sim
