// Object checksums (docs/INTEGRITY.md).
//
// Every stored/replicated object version carries a 64-bit FNV-1a checksum
// bound to (key, version, payload). Binding the key and version — not just
// the payload — means a checksum cannot validate a payload that was swapped
// between keys or replayed under a different version, only the exact object
// version it was computed for.
//
// The integrity rule, stated once for every layer:
//  * A seal is object_checksum over the exact bytes sent or stored.
//  * A seal of 0 means "unsealed" (e.g. an internal forward): nothing to
//    check against.
//  * A receiver checks under one of three Checks. kOff is a replica whose
//    verify_checksums is false; kIfSealed checks sealed payloads and passes
//    unsealed ones; kRequired fails an unsealed payload too, whatever
//    verify_checksums says (a repair must prove itself).
//  * What a failed check costs — the counter, the kDataLoss — is the
//    layer's one verify function (WieraPeer::verify_seal,
//    WieraClient::verify_response, TieraInstance::read_version).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace wiera {

inline constexpr uint64_t kUnsealed = 0;

// Checksum of one object version. `version` is 0 for a fresh client PUT
// (the version is not yet allocated); the storing replica recomputes the
// binding checksum once the version is known.
inline uint64_t object_checksum(std::string_view key, int64_t version,
                                std::string_view payload) {
  uint64_t h = fnv1a64(kFnv1aBasis, key);
  // Separator keeps ("ab", "c") distinct from ("a", "bc").
  const uint8_t sep = 0xFF;
  h = fnv1a64(h, &sep, 1);
  h = fnv1a64_word(h, static_cast<uint64_t>(version));
  return fnv1a64(h, payload);
}

inline uint64_t object_checksum(std::string_view key, int64_t version,
                                const Blob& payload) {
  return object_checksum(key, version, payload.view());
}

enum class SealCheck { kOff, kIfSealed, kRequired };

inline SealCheck seal_check(bool verify_checksums) {
  return verify_checksums ? SealCheck::kIfSealed : SealCheck::kOff;
}

// True when `payload` passes `check` as the bytes of (key, version) sealed
// with `seal`. Hashes the payload at most once.
inline bool seal_holds(SealCheck check, uint64_t seal, std::string_view key,
                       int64_t version, std::string_view payload) {
  if (check == SealCheck::kOff) return true;
  if (seal == kUnsealed) return check == SealCheck::kIfSealed;
  return object_checksum(key, version, payload) == seal;
}

}  // namespace wiera
