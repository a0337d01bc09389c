//===- support/Hash.h - Content fingerprinting ------------------*- C++ -*-===//
///
/// \file
/// Streaming 128-bit content hashing for the compile service's
/// content-addressed code cache (src/service/, docs/SERVICE.md). The
/// soundness of fingerprint memoization rests on the determinism
/// contract (core/ParallelCompiler.h): compiled output is a pure
/// function of the module, so equal canonical serializations imply
/// byte-identical code. The hash only has to make *accidental*
/// collisions negligible — it is not cryptographic and must not be used
/// against adversarial inputs.
///
/// The hasher consumes one 64-bit word per step. Two independent 64-bit
/// lanes each mix every word with a published round of a different
/// structure — lane A the MurmurHash3 x64 round (the word is pre-mixed on
/// its own, then XORed into the state, which is rotated and stepped
/// affinely), lane B the XXH64 round (the scaled word is added to the
/// state, which is rotated and multiplied) — so a collision in one lane
/// does not imply one in the other. A splitmix64 finalizer over each lane
/// and the total byte length gives the 128-bit digest, putting the
/// birthday bound near 2^64 distinct modules. Each step is an injection
/// of the word for a fixed state (every operation in both rounds is
/// invertible), so two streams of equal length that differ in a single
/// word never collide.
///
/// Hashing is allocation-free and streaming: callers feed the module's
/// dense arrays in index order (a canonical serialization — see
/// uir::fingerprintModule / tpde_tir::fingerprintModule), packing small
/// fields into whole words and tagging variable-length runs with their
/// length so distinct structures cannot collide by concatenation. The
/// digest is a function of the sequence of calls, not of the
/// concatenated bytes: bytes() pads its tail to a word, so bytes("ab")
/// followed by bytes("c") differs from bytes("abc").
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_HASH_H
#define TPDE_SUPPORT_HASH_H

// tpde-lint: hot-path -- runs on every service submit, cache hits
// included; the zero-allocation policy (docs/PERF.md) is machine-enforced
// here by scripts/tpde_lint.py.

#include "support/Common.h"

#include <cstring>
#include <span>
#include <string_view>

namespace tpde::support {

/// A 128-bit content fingerprint. Value type; usable as a hash-map key
/// through Fp128Hash.
struct Fp128 {
  u64 Hi = 0;
  u64 Lo = 0;

  bool operator==(const Fp128 &O) const { return Hi == O.Hi && Lo == O.Lo; }
  bool operator!=(const Fp128 &O) const { return !(*this == O); }
};

/// Map-key hash for Fp128: the fingerprint is already uniformly mixed,
/// so folding the halves is enough.
struct Fp128Hash {
  size_t operator()(const Fp128 &F) const {
    return static_cast<size_t>(F.Lo ^ (F.Hi * 0x9e3779b97f4a7c15ull));
  }
};

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
inline u64 avalanche64(u64 X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Two 32-bit fields as one hash word (\p Lo in the low half).
inline u64 packWord(u32 Lo, u32 Hi) { return u64{Lo} | u64{Hi} << 32; }

/// Streaming two-lane hasher producing an Fp128. Feed content through
/// the typed helpers; call digest() at the end (the hasher stays usable
/// for further updates — digest() is a pure read of the running state).
class Hasher128 {
public:
  /// Mixes \p N raw bytes: each whole 8-byte word, then the remaining
  /// 1-7 bytes zero-padded to one tail word. Words are read in host byte
  /// order; a fingerprint is an in-process cache key, never persisted.
  void bytes(const void *P, size_t N) {
    const u8 *B = static_cast<const u8 *>(P);
    size_t I = 0;
    for (; I + 8 <= N; I += 8) {
      u64 W;
      std::memcpy(&W, B + I, 8);
      mix(W);
    }
    if (I < N) {
      u64 W = 0;
      std::memcpy(&W, B + I, N - I);
      mix(W);
    }
    Len += N;
  }

  // Each typed helper mixes its value as one word.
  void u8v(u8 V) { word(V, 1); }
  void u32v(u32 V) { word(V, 4); }
  void u64v(u64 V) { word(V, 8); }
  void i64v(i64 V) { u64v(static_cast<u64>(V)); }
  void f64v(double V) {
    // Hash the bit pattern: -0.0 vs 0.0 and NaN payloads are distinct IR
    // constants and must fingerprint distinctly.
    u64 Bits;
    std::memcpy(&Bits, &V, 8);
    u64v(Bits);
  }
  /// Length-prefixed string: "ab" + "c" cannot collide with "a" + "bc".
  void str(std::string_view S) {
    len(S.size());
    bytes(S.data(), S.size());
  }
  /// Length tag for a variable-length run the caller is about to feed.
  void len(size_t N) { u64v(static_cast<u64>(N)); }
  /// Length-tagged run of u32s; see u32run().
  void u32s(std::span<const u32> L) {
    len(L.size());
    u32run(L);
  }
  /// A run of u32s whose length is already hashed: two per word, an odd
  /// last one zero-extended.
  void u32run(std::span<const u32> L) {
    size_t I = 0;
    for (; I + 2 <= L.size(); I += 2)
      mix(packWord(L[I], L[I + 1]));
    if (I < L.size())
      mix(L[I]);
    Len += L.size_bytes();
  }

  /// The 128-bit digest of everything fed so far.
  Fp128 digest() const {
    Fp128 F;
    F.Hi = avalanche64(A ^ (Len * 0xff51afd7ed558ccdull));
    F.Lo = avalanche64(Bl + Len);
    return F;
  }

private:
  static u64 rotl(u64 X, unsigned R) { return (X << R) | (X >> (64 - R)); }

  void word(u64 W, size_t Width) {
    mix(W);
    Len += Width;
  }

  void mix(u64 W) {
    // Lane A: MurmurHash3 x64 round (c1, c2, the 31/27 rotations, *5 + n).
    u64 K = rotl(W * 0x87c37b91114253d5ull, 31) * 0x4cf5ad432745937full;
    A = rotl(A ^ K, 27) * 5 + 0x52dce729;
    // Lane B: XXH64 round (PRIME64_2, rotate 31, PRIME64_1).
    Bl = rotl(Bl + W * 0xc2b2ae3d27d4eb4full, 31) * 0x9e3779b185ebca87ull;
  }

  u64 A = 0xcbf29ce484222325ull;  ///< Arbitrary nonzero seed.
  u64 Bl = 0x27d4eb2f165667c5ull; ///< XXH64 PRIME64_5.
  u64 Len = 0;                    ///< Total bytes fed.
};

} // namespace tpde::support

#endif // TPDE_SUPPORT_HASH_H
