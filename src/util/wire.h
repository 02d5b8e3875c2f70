// Bounds-checked binary (de)serialization used for every on-the-wire
// structure in the system: tickets, protocol messages, channel lists.
//
// The format is deliberately simple and deterministic — fixed-width
// little-endian integers and length-prefixed byte strings — so that a
// structure's signature can be computed over its exact encoding and verified
// after re-parsing (tickets are signed bytes, not signed objects).
//
// Each plain wire struct states its layout once, as a field list:
//
//   template <class Io> void fields(Io& io) { io(version, email, key); }
//
// WireWriter walks the list to encode and WireReader walks the same list to
// decode, so the two directions cannot drift apart. How a field goes on the
// wire follows from its C++ type:
//   - bool: one byte, 0 or 1; the reader rejects anything above 1;
//   - uint8/16/32/64 and int64: fixed-width little endian;
//   - a uint8 enum: one byte; the reader rejects codes outside the range
//     that `wire_range(E{})` (found by ADL) returns;
//   - Bytes and std::string: u32 length, then the bytes;
//   - BytesView: the same bytes as Bytes; the reader hands back a view into
//     its input instead of a copy, valid as long as that input is;
//   - std::array<uint8_t, N>: N raw bytes; NetAddr: its u32 address;
//   - std::optional<T>: a presence byte, 0 (absent) or 1 (then T); the
//     reader rejects anything above 1;
//   - counted(vec, max) / counted_backed(vec, min_item_bytes): u32 count,
//     then the items; the reader caps the count;
//   - Nested<T>: T's field list as a length-prefixed blob, written in place
//     (the bytes of a Bytes field holding T's encoding, without building
//     that encoding first). Write-only: a reader takes the blob as Bytes or
//     BytesView and decodes T from it;
//   - a type with `Bytes encode() const` and `static T decode(BytesView)`
//     (RsaPublicKey, Signed<T>): its own encoding as a length-prefixed blob;
//   - any other struct: its field list, inline.
// Framed or checksummed formats stay hand-written over the primitives:
// Snapshot (magic, length, CRC), the journal records, the farm-store state
// wrap, the MAC'd content-key wrap, and the ViewingLog and UserDirectory
// states with their duplicate checks.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/bytes.h"
#include "util/ids.h"

namespace p2pdrm::util {

/// Thrown by WireReader on truncated or malformed input. Protocol handlers
/// catch this and turn it into a protocol-level rejection.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// The legal codes of a wire enum; an enum type E opts in with a
/// `constexpr EnumRange<E> wire_range(E)` next to its declaration.
template <class E>
struct EnumRange {
  E first;
  E last;
};

/// A counted vector field. The reader rejects a count above `max_count`,
/// and, when `min_item_bytes` is set, one the rest of the input could not
/// back at that many bytes per item.
template <class V>
struct Counted {
  using Item = typename V::value_type;
  V& items;
  std::uint32_t max_count;
  std::size_t min_item_bytes;
};

template <class V>
Counted<V> counted(V& items, std::uint32_t max_count) {
  return {items, max_count, 0};
}

template <class V>
Counted<V> counted_backed(V& items, std::size_t min_item_bytes) {
  return {items, UINT32_MAX, min_item_bytes};
}

/// A struct written as a length-prefixed blob of its field list (see the
/// header comment).
template <class T>
struct Nested {
  const T& value;
};

namespace wire_detail {

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <class T>
struct IsCounted : std::false_type {};
template <class V>
struct IsCounted<Counted<V>> : std::true_type {};

template <class T>
struct IsNested : std::false_type {};
template <class T>
struct IsNested<Nested<T>> : std::true_type {};

template <class T>
struct IsByteArray : std::false_type {};
template <std::size_t N>
struct IsByteArray<std::array<std::uint8_t, N>> : std::true_type {};

/// A type that encodes to its own buffer nests as a length-prefixed blob.
template <class T>
concept Framed = requires(const T& v, BytesView b) {
  { v.encode() } -> std::same_as<Bytes>;
  { T::decode(b) } -> std::same_as<T>;
};

template <class T>
inline constexpr bool kUnsupported = false;

}  // namespace wire_detail

/// Appends fixed-width integers and length-prefixed strings to a buffer.
class WireWriter {
 public:
  WireWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u32) byte string.
  void bytes(BytesView v);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view v);
  /// Raw bytes with no length prefix (caller knows the width).
  void raw(BytesView v);

  /// Write each field by its type (see the header comment).
  template <class... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }

  /// Write `v`'s field list (not its own framing).
  template <class T>
  void fields_of(const T& v) {
    // Field lists are non-const so that one list serves both directions;
    // the writer only reads through it.
    const_cast<T&>(v).fields(*this);
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put(const T& v);

  Bytes buf_;
};

/// Reads the same encoding back, throwing WireError on any overrun. Field
/// lists are read into freshly constructed objects.
class WireReader {
 public:
  explicit WireReader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  Bytes bytes();
  /// A length-prefixed byte string as a view into the input (no copy).
  BytesView bytes_view();
  std::string str();
  /// Read exactly n raw bytes.
  Bytes raw(std::size_t n);

  /// Read each field by its type (see the header comment).
  template <class... T>
  void operator()(T&&... fields) {
    (get(fields), ...);
  }

  /// Read one value of type T by its type.
  template <class T>
  T read() {
    T v{};
    get(v);
    return v;
  }

  /// Read `v`'s field list (not its own framing).
  template <class T>
  void fields_of(T& v) {
    v.fields(*this);
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }
  /// The prefix of the input consumed so far (used to compute the byte range
  /// a signature covers).
  BytesView consumed() const { return data_.subspan(0, pos_); }

 private:
  void need(std::size_t n) const;
  void copy_to(std::uint8_t* out, std::size_t n);
  std::uint32_t count(std::uint32_t max_count, std::size_t min_item_bytes);
  std::uint8_t code(std::uint8_t first, std::uint8_t last);

  template <class T>
  void get(T& v);

  BytesView data_;
  std::size_t pos_ = 0;
};

template <class T>
void WireWriter::put(const T& v) {
  using namespace wire_detail;
  if constexpr (std::is_same_v<T, bool>) {
    u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "wire enums are one byte");
    u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    u8(v);
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    u16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    u64(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    i64(v);
  } else if constexpr (std::is_same_v<T, Bytes> || std::is_same_v<T, BytesView>) {
    bytes(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    str(v);
  } else if constexpr (IsByteArray<T>::value) {
    raw(BytesView(v.data(), v.size()));
  } else if constexpr (std::is_same_v<T, NetAddr>) {
    u32(v.ip);
  } else if constexpr (IsNested<T>::value) {
    const std::size_t at = buf_.size();
    u32(0);  // the length, patched once the fields are down
    fields_of(v.value);
    store_le32(buf_.data() + at, static_cast<std::uint32_t>(buf_.size() - at - 4));
  } else if constexpr (IsOptional<T>::value) {
    u8(v.has_value() ? 1 : 0);
    if (v) put(*v);
  } else if constexpr (IsCounted<T>::value) {
    u32(static_cast<std::uint32_t>(v.items.size()));
    for (const auto& item : v.items) put(item);
  } else if constexpr (Framed<T>) {
    bytes(v.encode());
  } else if constexpr (requires(T& t, WireWriter& w) { t.fields(w); }) {
    fields_of(v);
  } else {
    static_assert(kUnsupported<T>, "no wire encoding for this field type");
  }
}

template <class T>
void WireReader::get(T& v) {
  using namespace wire_detail;
  if constexpr (std::is_same_v<T, bool>) {
    v = code(0, 1) == 1;
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "wire enums are one byte");
    constexpr EnumRange<T> range = wire_range(T{});
    v = static_cast<T>(code(static_cast<std::uint8_t>(range.first),
                            static_cast<std::uint8_t>(range.last)));
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = u8();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    v = u16();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = u64();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    v = i64();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = bytes();
  } else if constexpr (std::is_same_v<T, BytesView>) {
    v = bytes_view();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = str();
  } else if constexpr (IsByteArray<T>::value) {
    copy_to(v.data(), v.size());
  } else if constexpr (std::is_same_v<T, NetAddr>) {
    v.ip = u32();
  } else if constexpr (IsOptional<T>::value) {
    if (code(0, 1) == 1) v = read<typename T::value_type>();
  } else if constexpr (IsCounted<T>::value) {
    const std::uint32_t n = count(v.max_count, v.min_item_bytes);
    // Every item takes at least one byte, so this never over-reserves for
    // a count the input cannot back.
    v.items.reserve(std::min<std::size_t>(n, remaining()));
    for (std::uint32_t i = 0; i < n; ++i) {
      v.items.push_back(read<typename T::Item>());
    }
  } else if constexpr (Framed<T>) {
    v = T::decode(bytes());
  } else if constexpr (requires(T& t, WireReader& r) { t.fields(r); }) {
    fields_of(v);
  } else {
    static_assert(kUnsupported<T>, "no wire decoding for this field type");
  }
}

/// The encoding of `msg`'s field list.
template <class T>
Bytes encode_fields(const T& msg) {
  WireWriter w;
  w.fields_of(msg);
  return w.take();
}

/// Parse `data` as T's field list. Bytes past the last field are a
/// WireError, so every accepted input is the encoding of what it decodes to.
template <class T>
T decode_fields(BytesView data) {
  WireReader r(data);
  T msg{};
  r.fields_of(msg);
  if (!r.at_end()) throw WireError("wire: trailing bytes");
  return msg;
}

}  // namespace p2pdrm::util
