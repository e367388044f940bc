#include "snapshot/identity.h"

#include <bit>
#include <charconv>

namespace vqe {
namespace {

constexpr uint8_t kStrKind = 's';
constexpr uint8_t kU64Kind = 'u';
constexpr uint8_t kF64Kind = 'f';

struct Field {
  uint8_t kind = 0;
  std::string name;
  std::string str;
  uint64_t bits = 0;
};

Status ReadField(ByteReader& r, Field* f) {
  VQE_RETURN_NOT_OK(r.U8(&f->kind));
  VQE_RETURN_NOT_OK(r.Str(&f->name));
  switch (f->kind) {
    case kStrKind:
      return r.Str(&f->str);
    case kU64Kind:
    case kF64Kind:
      return r.U64(&f->bits);
    default:
      return Status::DataLoss("identity field '" + f->name +
                              "' has unknown kind " + std::to_string(f->kind));
  }
}

std::string ValueString(const Field& f) {
  if (f.kind == kStrKind) return "'" + f.str + "'";
  if (f.kind == kU64Kind) return std::to_string(f.bits);
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof(buf), std::bit_cast<double>(f.bits)).ptr;
  return std::string(buf, end);
}

}  // namespace

IdentityWriter& IdentityWriter::Str(const std::string& name,
                                    const std::string& value) {
  w_.U8(kStrKind);
  w_.Str(name);
  w_.Str(value);
  return *this;
}

IdentityWriter& IdentityWriter::U64(const std::string& name, uint64_t value) {
  w_.U8(kU64Kind);
  w_.Str(name);
  w_.U64(value);
  return *this;
}

IdentityWriter& IdentityWriter::F64(const std::string& name, double value) {
  w_.U8(kF64Kind);
  w_.Str(name);
  w_.F64(value);
  return *this;
}

Status ExpectSameIdentity(ByteReader saved, const IdentityWriter& live) {
  uint32_t tag = 0;
  VQE_RETURN_NOT_OK(saved.U32(&tag));
  if (tag != kIdentityTag) {
    return Status::FailedPrecondition(
        "snapshot identity has an unknown layout (written by an "
        "incompatible build)");
  }
  ByteReader expected(live.bytes().data(), live.bytes().size());
  VQE_RETURN_NOT_OK(expected.Skip(sizeof(kIdentityTag)));
  while (expected.remaining() > 0) {
    Field want, have;
    VQE_RETURN_NOT_OK(ReadField(expected, &want));
    if (saved.remaining() == 0) {
      return Status::FailedPrecondition("snapshot identity lacks field '" +
                                        want.name + "'");
    }
    VQE_RETURN_NOT_OK(ReadField(saved, &have));
    if (have.kind != want.kind || have.name != want.name) {
      return Status::FailedPrecondition("snapshot identity has field '" +
                                        have.name + "' where this run has '" +
                                        want.name + "'");
    }
    if (have.str != want.str || have.bits != want.bits) {
      return Status::FailedPrecondition(
          "snapshot was taken with a different " + want.name + ": " +
          ValueString(have) + " (this run: " + ValueString(want) + ")");
    }
  }
  if (saved.remaining() > 0) {
    Field extra;
    VQE_RETURN_NOT_OK(ReadField(saved, &extra));
    return Status::FailedPrecondition("snapshot identity has extra field '" +
                                      extra.name + "'");
  }
  return Status::OK();
}

}  // namespace vqe
