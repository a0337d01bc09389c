//===- asmx/JITMapper.cpp - In-memory code mapping for JIT ---------------===//

#include "asmx/JITMapper.h"
#include "support/DenseMap.h"
#include "support/Sync.h"

#include <algorithm>
#include <cstring>
#include <sys/mman.h>
#include <type_traits>
#include <unistd.h>

using namespace tpde;
using namespace tpde::asmx;

namespace {

/// Released page runs kept for reuse, oldest first. Reusing a run saves
/// the mmap, the first-touch page faults and the munmap that a fresh
/// mapping costs; the read+write flip at release is the one syscall left.
/// Syscalls happen outside the lock.
class RunPool {
public:
  /// Takes the most recently released run of exactly \p Size bytes, or
  /// returns nullptr when none is pooled.
  u8 *take(u64 Size) TPDE_EXCLUDES(Mtx) {
    LockGuard L(Mtx);
    for (unsigned I = NumRuns; I-- > 0;) {
      if (Runs[I].Size != Size)
        continue;
      u8 *Base = Runs[I].Base;
      std::copy(Runs + I + 1, Runs + NumRuns, Runs + I);
      --NumRuns;
      Bytes -= Size;
      return Base;
    }
    return nullptr;
  }

  /// Flips the run back to read+write and pools it, unmapping the oldest
  /// runs that no longer fit. A run larger than the bound, or one whose
  /// flip failed, is unmapped instead.
  void release(u8 *Base, u64 Size) TPDE_EXCLUDES(Mtx) {
    if (Size > JITMapper::MaxPooledBytes ||
        ::mprotect(Base, Size, PROT_READ | PROT_WRITE) != 0) {
      ::munmap(Base, Size);
      return;
    }
    Run Evicted[MaxRuns];
    unsigned NumEvicted = 0;
    {
      LockGuard L(Mtx);
      while (NumRuns - NumEvicted == MaxRuns ||
             Bytes + Size > JITMapper::MaxPooledBytes) {
        Bytes -= Runs[NumEvicted].Size;
        Evicted[NumEvicted] = Runs[NumEvicted];
        ++NumEvicted;
      }
      std::copy(Runs + NumEvicted, Runs + NumRuns, Runs);
      NumRuns -= NumEvicted;
      Runs[NumRuns++] = {Base, Size};
      Bytes += Size;
    }
    for (unsigned I = 0; I < NumEvicted; ++I)
      ::munmap(Evicted[I].Base, Evicted[I].Size);
  }

private:
  struct Run {
    u8 *Base;
    u64 Size;
  };
  /// Every run spans at least one 4 KiB page.
  static constexpr unsigned MaxRuns = JITMapper::MaxPooledBytes / 4096;

  Mutex Mtx;
  Run Runs[MaxRuns] TPDE_GUARDED_BY(Mtx) = {};
  unsigned NumRuns TPDE_GUARDED_BY(Mtx) = 0;
  u64 Bytes TPDE_GUARDED_BY(Mtx) = 0;
};

// Constant-initialized and never destroyed, so a mapper that dies during
// static destruction still finds a working pool.
static_assert(std::is_trivially_destructible_v<RunPool>);
constinit RunPool Pool;

} // namespace

JITMapper::~JITMapper() { release(); }

void JITMapper::release() {
  if (MapBase)
    Pool.release(MapBase, MapSize);
  MapBase = nullptr;
}

JITMapper &JITMapper::operator=(JITMapper &&O) noexcept {
  if (this == &O)
    return *this;
  release();
  Asm = O.Asm;
  MapBase = O.MapBase;
  MapSize = O.MapSize;
  for (unsigned I = 0; I < NumSections; ++I)
    SecBase[I] = O.SecBase[I];
  O.MapBase = nullptr;
  O.MapSize = 0;
  O.Asm = nullptr;
  Status = std::move(O.Status);
  return *this;
}

bool JITMapper::map(const Assembler &A, const Resolver &Resolve,
                    StubArch Arch) {
  release();
  Asm = &A;
  Status.clear();
  auto fail = [&](support::CompileErr E, std::string_view Sym,
                  std::string Msg) {
    Status.Err = E;
    Status.Symbol.assign(Sym);
    Status.Message = std::move(Msg);
    return false;
  };
  const u64 Page = static_cast<u64>(::sysconf(_SC_PAGESIZE));

  // Host symbols can be farther than +-2 GiB from the JIT mapping, which a
  // PC32 call cannot reach. Reserve one 16-byte stub (8-byte address slot +
  // "jmp [rip+slot]") per undefined symbol in the executable region; PC32
  // relocations that would overflow are redirected to the stub.
  u64 NumUndef = 0;
  for (const Symbol &S : A.symbols())
    if (!S.Defined)
      ++NumUndef;
  const u64 StubBytes = NumUndef * 16;

  // Lay out all four sections in one mapping, each page-aligned so that
  // permissions can be applied per section. Stubs live right after text so
  // they share its execute permission.
  u64 SecOff[NumSections];
  u64 SecSize[NumSections];
  u64 Off = 0;
  for (unsigned I = 0; I < NumSections; ++I) {
    const Section &S = A.section(static_cast<SecKind>(I));
    SecOff[I] = Off;
    SecSize[I] = (static_cast<SecKind>(I) == SecKind::BSS) ? S.BssSize
                                                           : S.Data.size();
    if (static_cast<SecKind>(I) == SecKind::Text)
      SecSize[I] += StubBytes ? StubBytes + 16 : 0;
    Off = alignTo(Off + SecSize[I], Page);
  }
  MapSize = Off ? Off : Page;
  const u64 StubAreaOff = alignTo(A.text().Data.size(), 16);

  MapBase = Pool.take(MapSize);
  const bool Recycled = MapBase != nullptr;
  if (!Recycled) {
    void *Mem = ::mmap(nullptr, MapSize, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Mem == MAP_FAILED)
      return fail(support::CompileErr::JitMapFailed, {},
                  "mmap of JIT image failed");
    MapBase = static_cast<u8 *>(Mem);
  }
  // A recycled run still holds its previous image: zero every byte the new
  // one does not write (section tails, stub slots, BSS).
  u64 Written = 0;
  for (unsigned I = 0; I < NumSections; ++I) {
    SecBase[I] = MapBase + SecOff[I];
    const Section &S = A.section(static_cast<SecKind>(I));
    const u64 Bytes =
        static_cast<SecKind>(I) == SecKind::BSS ? 0 : S.Data.size();
    if (Recycled)
      std::memset(MapBase + Written, 0, SecOff[I] - Written);
    if (Bytes)
      std::memcpy(SecBase[I], S.Data.data(), Bytes);
    Written = SecOff[I] + Bytes;
  }
  if (Recycled)
    std::memset(MapBase + Written, 0, MapSize - Written);

  // Resolve every relocation. Defined symbols resolve to their mapped
  // location; undefined ones are looked up through the resolver.
  auto symAddr = [&](SymRef Ref) -> u8 * {
    const Symbol &Sym = A.symbol(Ref);
    if (Sym.Defined)
      return SecBase[static_cast<unsigned>(Sym.Sec)] + Sym.Off;
    if (Resolve)
      return static_cast<u8 *>(Resolve(Sym.Name));
    return nullptr;
  };

  // Lazily build a jump stub for an out-of-range undefined symbol.
  u8 *StubArea = SecBase[0] + StubAreaOff;
  support::DenseMap<u32, u8 *> StubFor;
  auto stubAddr = [&](SymRef Ref, u8 *Target) -> u8 * {
    if (u8 **Known = StubFor.find(Ref.Idx))
      return *Known;
    u8 *Stub = StubArea;
    StubArea += 16;
    if (Arch == StubArch::X64) {
      // jmp [rip+2]; 8-byte target address follows.
      static constexpr u8 JmpIndirect[] = {0xFF, 0x25, 0x02, 0x00, 0x00, 0x00,
                                       0x90, 0x90};
      std::memcpy(Stub, JmpIndirect, sizeof(JmpIndirect));
    } else {
      // ldr x16, <pc+8>; br x16; 8-byte target address follows.
      static constexpr u32 A64Stub[] = {0x58000050u, 0xD61F0200u};
      std::memcpy(Stub, A64Stub, sizeof(A64Stub));
    }
    u64 T = reinterpret_cast<u64>(Target);
    std::memcpy(Stub + 8, &T, 8);
    StubFor.insert(Ref.Idx, Stub);
    return Stub;
  };

  for (const Reloc &R : A.relocs()) {
    u8 *S = symAddr(R.Sym);
    if (!S)
      return fail(support::CompileErr::JitMapFailed, A.symbol(R.Sym).Name,
                  "unresolved symbol '" + std::string(A.symbol(R.Sym).Name) +
                      "'");
    u8 *P = SecBase[static_cast<unsigned>(R.Sec)] + R.Off;
    switch (R.Kind) {
    case RelocKind::Abs64: {
      u64 V = reinterpret_cast<u64>(S) + static_cast<u64>(R.Addend);
      std::memcpy(P, &V, 8);
      break;
    }
    case RelocKind::PC32: {
      i64 V = reinterpret_cast<i64>(S) + R.Addend - reinterpret_cast<i64>(P);
      if (!isInt32(V) && !A.symbol(R.Sym).Defined) {
        // Route the call through a nearby stub.
        S = stubAddr(R.Sym, S);
        V = reinterpret_cast<i64>(S) + R.Addend - reinterpret_cast<i64>(P);
      }
      if (!isInt32(V))
        return fail(support::CompileErr::JitMapFailed, A.symbol(R.Sym).Name,
                    "PC32 relocation overflow against '" +
                        std::string(A.symbol(R.Sym).Name) + "'");
      i32 V32 = static_cast<i32>(V);
      std::memcpy(P, &V32, 4);
      break;
    }
    case RelocKind::A64Call26: {
      i64 Rel = reinterpret_cast<i64>(S) + R.Addend - reinterpret_cast<i64>(P);
      if (!A.symbol(R.Sym).Defined &&
          (Rel < -(i64(1) << 27) || Rel >= (i64(1) << 27))) {
        // Route the call through a nearby stub.
        S = stubAddr(R.Sym, S);
        Rel = reinterpret_cast<i64>(S) + R.Addend - reinterpret_cast<i64>(P);
      }
      i64 Words = Rel >> 2;
      if ((Rel & 3) != 0 || Words < -(1 << 25) || Words >= (1 << 25))
        return fail(support::CompileErr::JitMapFailed, A.symbol(R.Sym).Name,
                    "A64 call relocation overflow against '" +
                        std::string(A.symbol(R.Sym).Name) + "'");
      u32 Inst;
      std::memcpy(&Inst, P, 4);
      Inst = (Inst & ~0x03FFFFFFu) | (static_cast<u32>(Words) & 0x03FFFFFFu);
      std::memcpy(P, &Inst, 4);
      break;
    }
    case RelocKind::A64AdrPage21: {
      i64 SPage = (reinterpret_cast<i64>(S) + R.Addend) & ~0xFFF;
      i64 PPage = reinterpret_cast<i64>(P) & ~0xFFF;
      i64 Delta = (SPage - PPage) >> 12;
      if (Delta < -(1 << 20) || Delta >= (1 << 20))
        return fail(support::CompileErr::JitMapFailed, A.symbol(R.Sym).Name,
                    "A64 page relocation overflow against '" +
                        std::string(A.symbol(R.Sym).Name) + "'");
      u32 Inst;
      std::memcpy(&Inst, P, 4);
      u32 ImmLo = static_cast<u32>(Delta) & 3;
      u32 ImmHi = (static_cast<u32>(Delta) >> 2) & 0x7FFFF;
      Inst = (Inst & ~((3u << 29) | (0x7FFFFu << 5))) | (ImmLo << 29) |
             (ImmHi << 5);
      std::memcpy(P, &Inst, 4);
      break;
    }
    case RelocKind::A64AddLo12: {
      u64 V = (reinterpret_cast<u64>(S) + static_cast<u64>(R.Addend)) & 0xFFF;
      u32 Inst;
      std::memcpy(&Inst, P, 4);
      Inst = (Inst & ~(0xFFFu << 10)) | (static_cast<u32>(V) << 10);
      std::memcpy(P, &Inst, 4);
      break;
    }
    }
  }

  // A recycled run may have held other code at these addresses; targets
  // without a coherent instruction cache must not run stale lines (a no-op
  // on x86-64).
  __builtin___clear_cache(reinterpret_cast<char *>(SecBase[0]),
                          reinterpret_cast<char *>(SecBase[0] + SecSize[0]));
  // W^X: text and rodata become non-writable.
  if (SecSize[0] && ::mprotect(SecBase[0], alignTo(SecSize[0], Page),
                               PROT_READ | PROT_EXEC) != 0)
    return fail(support::CompileErr::JitMapFailed, {},
                "mprotect of the text section to read+execute failed");
  if (SecSize[1] &&
      ::mprotect(SecBase[1], alignTo(SecSize[1], Page), PROT_READ) != 0)
    return fail(support::CompileErr::JitMapFailed, {},
                "mprotect of the rodata section to read-only failed");
  return true;
}

void *JITMapper::address(SymRef S) const {
  assert(Asm && MapBase && "not mapped");
  const Symbol &Sym = Asm->symbol(S);
  if (!Sym.Defined)
    return nullptr;
  return SecBase[static_cast<unsigned>(Sym.Sec)] + Sym.Off;
}

void *JITMapper::address(std::string_view Name) const {
  assert(Asm && MapBase && "not mapped");
  SymRef S = Asm->findSymbol(Name);
  if (!S.isValid())
    return nullptr;
  return address(S);
}
