#include "services/durable_ops.h"

#include "util/wire.h"

namespace p2pdrm::services {

util::Bytes encode_viewing_entry(const ViewingLog::Entry& entry) {
  return util::encode_fields(entry);
}

ViewingLog::Entry decode_viewing_entry(util::BytesView data) {
  return util::decode_fields<ViewingLog::Entry>(data);
}

util::Bytes encode_user_record(const UserRecord& rec) { return util::encode_fields(rec); }

UserRecord decode_user_record(util::BytesView data) {
  return util::decode_fields<UserRecord>(data);
}

util::Bytes encode_user_directory(const UserDirectory& dir) {
  util::WireWriter w;
  w.u64(dir.next_user_in);
  w.u32(static_cast<std::uint32_t>(dir.users.size()));
  for (const auto& [email, rec] : dir.users) w(rec);
  return w.take();
}

UserDirectory decode_user_directory(util::BytesView data) {
  util::WireReader r(data);
  UserDirectory dir;
  dir.next_user_in = r.u64();
  const std::uint32_t count = r.u32();
  // ≥ 50 bytes per record (user_in + email prefix + 32-byte shp + times);
  // reject counts the input cannot back.
  if (count > r.remaining() / 50) {
    throw util::WireError("user directory: implausible record count");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    UserRecord rec = r.read<UserRecord>();
    // The encoder writes records in email order; any other order, or a
    // duplicate, is not an encoding of a directory.
    if (!dir.users.empty() && rec.account.email <= dir.users.rbegin()->first) {
      throw util::WireError("user directory: emails out of order");
    }
    dir.users[rec.account.email] = std::move(rec);
  }
  if (!r.at_end()) throw util::WireError("user directory: trailing bytes");
  return dir;
}

}  // namespace p2pdrm::services
