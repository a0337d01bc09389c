//===- support/StringPool.h - Interned strings ------------------*- C++ -*-===//
///
/// \file
/// A string uniquing pool: each distinct string is stored once (in arena
/// slabs, so views stay stable forever) and identified by a dense u32 id.
/// Interning an already-known string is a hash probe with zero heap
/// traffic, which makes symbol handling on the compile hot path
/// allocation-free once a module's names have been seen (docs/PERF.md).
///
/// Hashing is FNV-1a over the bytes; the table is open-addressed with
/// power-of-two capacity like support::DenseMap.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_STRINGPOOL_H
#define TPDE_SUPPORT_STRINGPOOL_H

#include "support/Arena.h"
#include "support/Common.h"

#include <cstring>
#include <string_view>
#include <vector>

namespace tpde::support {

class StringPool {
public:
  /// Dense id of an interned string; ids are assigned 0, 1, 2, ...
  using StrId = u32;
  static constexpr StrId InvalidId = ~0u;

  /// Interns \p S, returning the id shared by all equal strings.
  StrId intern(std::string_view S) {
    u64 H = fnv1a(S);
    if (Table.empty())
      growTable(16);
    size_t I = H & (Table.size() - 1);
    while (Table[I] != 0) {
      StrId Id = Table[I] - 1;
      const Entry &E = Entries[Id];
      if (E.Hash == H && E.Len == S.size() &&
          std::memcmp(E.Ptr, S.data(), S.size()) == 0)
        return Id;
      I = (I + 1) & (Table.size() - 1);
    }
    // New string. Everything that can throw comes before the table takes
    // the entry: a growth that fails past that point would leave the
    // table fuller than its load factor, and a full table makes every
    // probe for an absent string loop forever.
    if ((Entries.size() + 2) * 4 > Table.size() * 3) {
      growTable(Table.size() * 2);
      I = H & (Table.size() - 1);
      while (Table[I] != 0)
        I = (I + 1) & (Table.size() - 1);
    }
    // Copy the bytes into stable slab storage.
    char *Mem = static_cast<char *>(Bytes.alloc(S.size() ? S.size() : 1, 1));
    std::memcpy(Mem, S.data(), S.size());
    StrId Id = static_cast<StrId>(Entries.size());
    Entries.push_back(Entry{Mem, static_cast<u32>(S.size()), H});
    Table[I] = Id + 1;
    return Id;
  }

  /// Looks up \p S without interning; InvalidId if never seen.
  StrId lookup(std::string_view S) const {
    if (Table.empty())
      return InvalidId;
    u64 H = fnv1a(S);
    size_t I = H & (Table.size() - 1);
    while (Table[I] != 0) {
      StrId Id = Table[I] - 1;
      const Entry &E = Entries[Id];
      if (E.Hash == H && E.Len == S.size() &&
          std::memcmp(E.Ptr, S.data(), S.size()) == 0)
        return Id;
      I = (I + 1) & (Table.size() - 1);
    }
    return InvalidId;
  }

  /// The stable view of an interned string. Valid for the pool's lifetime.
  std::string_view str(StrId Id) const {
    assert(Id < Entries.size() && "invalid string id");
    return std::string_view(Entries[Id].Ptr, Entries[Id].Len);
  }

  u32 count() const { return static_cast<u32>(Entries.size()); }

  static u64 fnv1a(std::string_view S) {
    u64 H = 0xCBF29CE484222325ull;
    for (char C : S) {
      H ^= static_cast<u8>(C);
      H *= 0x100000001B3ull;
    }
    return H;
  }

private:
  struct Entry {
    const char *Ptr;
    u32 Len;
    u64 Hash;
  };

  void growTable(size_t NewSize) {
    Table.assign(NewSize, 0);
    for (StrId Id = 0; Id < Entries.size(); ++Id) {
      size_t I = Entries[Id].Hash & (NewSize - 1);
      while (Table[I] != 0)
        I = (I + 1) & (NewSize - 1);
      Table[I] = Id + 1;
    }
  }

  std::vector<Entry> Entries;
  std::vector<u32> Table; ///< Id + 1; 0 marks an empty slot.
  Arena Bytes{16 * 1024};
};

} // namespace tpde::support

#endif // TPDE_SUPPORT_STRINGPOOL_H
