// Wire codecs for the per-op payloads a durable farm replica journals and
// replicates (store::ReplicatedOp bodies) and for the snapshot form of the
// UM user directory. The records carry their own field lists; these
// functions frame them, so the store layer stays ignorant of what it is
// persisting.
#pragma once

#include "services/channel_manager.h"
#include "services/user_manager.h"
#include "util/bytes.h"

namespace p2pdrm::services {

/// CM replicated op: one viewing-log entry.
util::Bytes encode_viewing_entry(const ViewingLog::Entry& entry);
ViewingLog::Entry decode_viewing_entry(util::BytesView data);  // throws WireError

/// UM replicated op: one provisioned user record (email, shp, grants, …).
util::Bytes encode_user_record(const UserRecord& rec);
UserRecord decode_user_record(util::BytesView data);  // throws WireError

/// UM snapshot state: the whole directory. Deterministic (map order).
util::Bytes encode_user_directory(const UserDirectory& dir);
UserDirectory decode_user_directory(util::BytesView data);  // throws WireError

}  // namespace p2pdrm::services
