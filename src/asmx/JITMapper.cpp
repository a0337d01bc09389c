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

u64 pageSize() { return static_cast<u64>(::sysconf(_SC_PAGESIZE)); }

} // namespace

namespace tpde::asmx {

/// Released page runs kept for reuse, oldest first. Reusing a run saves
/// the mmap, the first-touch page faults and the munmap that a fresh
/// mapping costs; the read+write flips at release are the syscalls left.
/// Syscalls happen outside the lock.
class RunPool {
public:
  using Layout = JITMapper::Layout;
  enum Range : unsigned { Text, RO, RW, NumRanges };

  /// Where the ranges of a layout lie in its run. Text and rodata, when
  /// non-empty, each sit between two PROT_NONE guard pages, and data with
  /// BSS follows the last guard.
  struct Shape {
    u64 Off[NumRanges];
    u64 Len[NumRanges];
    /// The whole run, guard pages included.
    u64 Size;
  };

  static Shape shapeOf(const Layout &L, u64 Page) {
    Shape S{{}, {L.Text, L.RO, L.RW}, 0};
    u64 Off = 0;
    for (unsigned R : {Text, RO}) {
      if (S.Len[R])
        Off += Page; // the guard before; text and rodata share one
      S.Off[R] = Off;
      Off += S.Len[R];
    }
    if (L.Text || L.RO)
      Off += Page; // the guard after
    S.Off[RW] = Off;
    S.Size = Off + L.RW;
    return S;
  }

  /// Takes the most recently released run of exactly layout \p L, or
  /// returns nullptr when none is pooled.
  u8 *take(const Layout &L) TPDE_EXCLUDES(Mtx) {
    LockGuard Lk(Mtx);
    for (unsigned I = NumRuns; I-- > 0;) {
      if (Runs[I].L != L)
        continue;
      u8 *Base = Runs[I].Base;
      std::copy(Runs + I + 1, Runs + NumRuns, Runs + I);
      --NumRuns;
      Bytes -= bytes(L);
      return Base;
    }
    return nullptr;
  }

  /// Flips each non-empty range of the run back to read+write and pools
  /// it, unmapping the oldest runs that no longer fit. A run larger than
  /// the bound, or one whose flip failed, is unmapped instead.
  void release(u8 *Base, const Layout &L) TPDE_EXCLUDES(Mtx) {
    const u64 Page = pageSize();
    const Shape S = shapeOf(L, Page);
    bool Poolable = bytes(L) <= JITMapper::MaxPooledBytes;
    for (unsigned R = 0; Poolable && R < NumRanges; ++R)
      Poolable = !S.Len[R] || ::mprotect(Base + S.Off[R], S.Len[R],
                                         PROT_READ | PROT_WRITE) == 0;
    if (!Poolable) {
      ::munmap(Base, S.Size);
      return;
    }
    Run Evicted[MaxRuns];
    unsigned NumEvicted = 0;
    {
      LockGuard Lk(Mtx);
      while (NumRuns - NumEvicted == MaxRuns ||
             Bytes + bytes(L) > JITMapper::MaxPooledBytes) {
        Bytes -= bytes(Runs[NumEvicted].L);
        Evicted[NumEvicted] = Runs[NumEvicted];
        ++NumEvicted;
      }
      std::copy(Runs + NumEvicted, Runs + NumRuns, Runs);
      NumRuns -= NumEvicted;
      Runs[NumRuns++] = {Base, L};
      Bytes += bytes(L);
    }
    for (unsigned I = 0; I < NumEvicted; ++I)
      ::munmap(Evicted[I].Base, shapeOf(Evicted[I].L, Page).Size);
  }

private:
  struct Run {
    u8 *Base;
    Layout L;
  };
  /// Every run spans at least one 4 KiB section page.
  static constexpr unsigned MaxRuns = JITMapper::MaxPooledBytes / 4096;

  /// Section bytes of a run, which the pool bound counts; guard pages are
  /// never resident.
  static u64 bytes(const Layout &L) { return L.Text + L.RO + L.RW; }

  Mutex Mtx;
  Run Runs[MaxRuns] TPDE_GUARDED_BY(Mtx) = {};
  unsigned NumRuns TPDE_GUARDED_BY(Mtx) = 0;
  u64 Bytes TPDE_GUARDED_BY(Mtx) = 0;
};

} // namespace tpde::asmx

namespace {

// Constant-initialized and never destroyed, so a mapper that dies during
// static destruction still finds a working pool.
static_assert(std::is_trivially_destructible_v<RunPool>);
constinit RunPool Pool;

} // namespace

JITMapper::~JITMapper() { release(); }

void JITMapper::release() {
  if (MapBase)
    Pool.release(MapBase, Pages);
  MapBase = nullptr;
  MapSize = 0;
}

JITMapper &JITMapper::operator=(JITMapper &&O) noexcept {
  if (this == &O)
    return *this;
  release();
  Asm = O.Asm;
  MapBase = O.MapBase;
  Pages = O.Pages;
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
  const u64 Page = pageSize();

  // Host symbols can be farther than +-2 GiB from the JIT mapping, which a
  // PC32 call cannot reach. Reserve one 16-byte stub (8-byte address slot +
  // "jmp [rip+slot]") per undefined symbol in the executable region; PC32
  // relocations that would overflow are redirected to the stub.
  u64 NumUndef = 0;
  for (const Symbol &S : A.symbols())
    if (!S.Defined)
      ++NumUndef;
  const u64 StubBytes = NumUndef * 16;

  // Give each section page-aligned bytes of its own, so that permissions
  // can be applied per section. Stubs live right after text so they share
  // its execute permission. An image with no bytes at all still maps one
  // data page.
  u64 SecSize[NumSections];
  u64 SecPages[NumSections];
  for (unsigned I = 0; I < NumSections; ++I) {
    const Section &S = A.section(static_cast<SecKind>(I));
    SecSize[I] = (static_cast<SecKind>(I) == SecKind::BSS) ? S.BssSize
                                                           : S.Data.size();
    if (static_cast<SecKind>(I) == SecKind::Text)
      SecSize[I] += StubBytes ? StubBytes + 16 : 0;
    SecPages[I] = alignTo(SecSize[I], Page);
  }
  const unsigned TextI = static_cast<unsigned>(SecKind::Text);
  const unsigned RoI = static_cast<unsigned>(SecKind::ROData);
  const unsigned DataI = static_cast<unsigned>(SecKind::Data);
  const unsigned BssI = static_cast<unsigned>(SecKind::BSS);
  if (!(SecPages[TextI] | SecPages[RoI] | SecPages[DataI] | SecPages[BssI]))
    SecPages[DataI] = Page;
  const Layout L{SecPages[TextI], SecPages[RoI],
                 SecPages[DataI] + SecPages[BssI]};
  const RunPool::Shape Shape = RunPool::shapeOf(L, Page);
  const u64 StubAreaOff = alignTo(A.text().Data.size(), 16);

  u8 *Base = Pool.take(L);
  const bool Recycled = Base != nullptr;
  if (!Recycled) {
    void *Mem = ::mmap(nullptr, Shape.Size, PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Mem == MAP_FAILED)
      return fail(support::CompileErr::JitMapFailed, {},
                  "mmap of the JIT run failed");
    Base = static_cast<u8 *>(Mem);
    static constexpr const char *RangeName[] = {"text", "rodata", "data"};
    for (unsigned R = 0; R < RunPool::NumRanges; ++R) {
      if (Shape.Len[R] && ::mprotect(Base + Shape.Off[R], Shape.Len[R],
                                     PROT_READ | PROT_WRITE) != 0) {
        ::munmap(Base, Shape.Size);
        return fail(support::CompileErr::JitMapFailed, {},
                    std::string("mprotect of the ") + RangeName[R] +
                        " pages to read+write failed");
      }
    }
  }
  MapBase = Base;
  Pages = L;
  MapSize = L.Text + L.RO + L.RW;
  SecBase[TextI] = Base + Shape.Off[RunPool::Text];
  SecBase[RoI] = Base + Shape.Off[RunPool::RO];
  SecBase[DataI] = Base + Shape.Off[RunPool::RW];
  SecBase[BssI] = SecBase[DataI] + SecPages[DataI];
  // A recycled run still holds its previous image: zero every byte the new
  // one does not write (section tails, stub slots, BSS).
  for (unsigned I = 0; I < NumSections; ++I) {
    const Section &S = A.section(static_cast<SecKind>(I));
    const u64 Bytes = I == BssI ? 0 : S.Data.size();
    if (Bytes)
      std::memcpy(SecBase[I], S.Data.data(), Bytes);
    if (Recycled)
      std::memset(SecBase[I] + Bytes, 0, SecPages[I] - Bytes);
  }

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
  u8 *StubArea = SecBase[TextI] + StubAreaOff;
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
  __builtin___clear_cache(reinterpret_cast<char *>(SecBase[TextI]),
                          reinterpret_cast<char *>(SecBase[TextI] +
                                                   SecSize[TextI]));
  // W^X: text and rodata become non-writable, each one whole VMA between
  // its guard pages.
  if (L.Text &&
      ::mprotect(SecBase[TextI], L.Text, PROT_READ | PROT_EXEC) != 0)
    return fail(support::CompileErr::JitMapFailed, {},
                "mprotect of the text section to read+execute failed");
  if (L.RO && ::mprotect(SecBase[RoI], L.RO, PROT_READ) != 0)
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
