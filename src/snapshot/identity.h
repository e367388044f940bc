// Run identity: the configuration a snapshot was taken under, written as
// named, typed fields so a refused resume or migration can say which
// field differs.
//
// Payload layout (wire.h encoding, inside a snapshot section such as
// engine.meta or query.meta):
//
//   [4]  u32  kIdentityTag ("VQID")
//   per field, in the writer's order:
//     [1]   u8   kind: 's' string, 'u' u64, 'f' double (IEEE-754 bits)
//     [4+n] name (u32 byte-length prefix + bytes)
//     value: u32-prefixed bytes for 's', u64 otherwise
//
// A run writes its own identity once and stores the bytes; checking a
// snapshot walks the saved (untrusted) payload against that live encoding.
// The encoding is canonical, so the check passes only when the saved bytes
// equal the live ones, and any other payload is refused.

#ifndef VQE_SNAPSHOT_IDENTITY_H_
#define VQE_SNAPSHOT_IDENTITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "snapshot/wire.h"

namespace vqe {

/// First four bytes of every identity payload. Identity payloads that
/// predate the tagged layout start with something else and are refused as
/// written by an incompatible build.
inline constexpr uint32_t kIdentityTag = 0x44495156u;  // "VQID"

/// Appends named fields to an identity payload. Doubles are recorded by
/// bit pattern: a resumed run must match the saved configuration exactly.
class IdentityWriter {
 public:
  IdentityWriter() { w_.U32(kIdentityTag); }

  IdentityWriter& Str(const std::string& name, const std::string& value);
  IdentityWriter& U64(const std::string& name, uint64_t value);
  IdentityWriter& F64(const std::string& name, double value);

  const std::vector<uint8_t>& bytes() const { return w_.bytes(); }

 private:
  ByteWriter w_;
};

/// OK when `saved` holds exactly the fields of `live`. FailedPrecondition
/// naming the first field that differs, is missing or is extra, and for a
/// payload without kIdentityTag; DataLoss when `saved` is malformed.
Status ExpectSameIdentity(ByteReader saved, const IdentityWriter& live);

}  // namespace vqe

#endif  // VQE_SNAPSHOT_IDENTITY_H_
