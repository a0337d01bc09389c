//===- tests/asmx_test.cpp - Assembler/ELF/JIT substrate tests -----------===//

#include "asmx/Assembler.h"
#include "asmx/ElfWriter.h"
#include "asmx/JITMapper.h"
#include "support/AllocCounter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/mman.h>
#include <thread>
#include <unistd.h>
#include <vector>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using namespace tpde::asmx;

TEST(Section, AppendAndPatch) {
  Section S;
  S.appendLE<u32>(0xdeadbeef);
  S.appendByte(0x42);
  EXPECT_EQ(S.size(), 5u);
  EXPECT_EQ(S.readLE<u32>(0), 0xdeadbeefu);
  S.patchLE<u16>(1, 0x1234);
  EXPECT_EQ(S.Data[1], 0x34);
  EXPECT_EQ(S.Data[2], 0x12);
  S.alignToBoundary(8);
  EXPECT_EQ(S.size(), 8u);
}

TEST(Assembler, SymbolCreationAndLookup) {
  Assembler A;
  SymRef F = A.createSymbol("foo", Linkage::External, /*IsFunc=*/true);
  SymRef G = A.getOrCreateSymbol("bar");
  EXPECT_TRUE(F.isValid());
  EXPECT_TRUE(G.isValid());
  EXPECT_EQ(A.findSymbol("foo").Idx, F.Idx);
  EXPECT_EQ(A.getOrCreateSymbol("foo").Idx, F.Idx);
  EXPECT_FALSE(A.findSymbol("baz").isValid());
  EXPECT_FALSE(A.symbol(F).Defined);
  A.defineSymbol(F, SecKind::Text, 16, 32);
  EXPECT_TRUE(A.symbol(F).Defined);
  EXPECT_EQ(A.symbol(F).Off, 16u);
  EXPECT_EQ(A.symbol(F).Size, 32u);
}

TEST(Assembler, DuplicateRegistrationMergesIntoOneSymbol) {
  Assembler A;
  SymRef S1 = A.createSymbol("f", Linkage::External, /*IsFunc=*/false);
  // Re-registering the same name returns the same symbol (upgraded), it
  // does not silently create a shadowed second entry.
  SymRef S2 = A.createSymbol("f", Linkage::Internal, /*IsFunc=*/true);
  EXPECT_EQ(S1.Idx, S2.Idx);
  EXPECT_EQ(A.symbols().size(), 1u);
  EXPECT_TRUE(A.symbol(S1).IsFunc);
  EXPECT_EQ(A.symbol(S1).Link, Linkage::Internal);
}

TEST(Assembler, DuplicateStrongDefinitionIsAnError) {
  Assembler A;
  SymRef S = A.createSymbol("dup", Linkage::External, /*IsFunc=*/true);
  A.defineSymbol(S, SecKind::Text, 0, 4);
  EXPECT_FALSE(A.hasError());
  A.defineSymbol(S, SecKind::Text, 8, 4);
  EXPECT_TRUE(A.hasError());
  EXPECT_NE(A.errorMessage().find("dup"), std::string_view::npos);
  // The first definition wins; the conflicting one is ignored.
  EXPECT_EQ(A.symbol(S).Off, 0u);
}

TEST(Assembler, ReRegistrationNeverRelaxesDefinedOrLocalLinkage) {
  Assembler A;
  SymRef S = A.createSymbol("g", Linkage::Internal, /*IsFunc=*/false);
  A.defineSymbol(S, SecKind::Data, 0, 8);
  // A later Weak registration must not downgrade the defined local
  // symbol (would change ELF binding and mask duplicate-def errors).
  SymRef S2 = A.createSymbol("g", Linkage::Weak, /*IsFunc=*/false);
  EXPECT_EQ(S.Idx, S2.Idx);
  EXPECT_EQ(A.symbol(S).Link, Linkage::Internal);
  A.defineSymbol(S, SecKind::Data, 16, 8);
  EXPECT_TRUE(A.hasError()) << "second strong definition must error";
}

TEST(Assembler, WeakSymbolFirstDefinitionWins) {
  Assembler A;
  SymRef S = A.createSymbol("w", Linkage::Weak, /*IsFunc=*/false);
  A.defineSymbol(S, SecKind::Data, 0, 8);
  A.defineSymbol(S, SecKind::Data, 16, 8);
  EXPECT_FALSE(A.hasError()) << "weak redefinition is not an error";
  EXPECT_EQ(A.symbol(S).Off, 0u);
}

TEST(Assembler, ResetRetainsInternedNames) {
  Assembler A;
  SymRef S = A.createSymbol("persistent", Linkage::External, true);
  std::string_view Name = A.symbol(S).Name;
  A.reset();
  EXPECT_FALSE(A.findSymbol("persistent").isValid());
  SymRef S2 = A.createSymbol("persistent", Linkage::External, true);
  // The name view stays valid across reset (string pool persists).
  EXPECT_EQ(Name, "persistent");
  EXPECT_EQ(A.symbol(S2).Name.data(), Name.data());
}

TEST(Assembler, LabelForwardFixupRel32) {
  Assembler A;
  Section &T = A.text();
  Label L = A.makeLabel();
  // Pretend a jmp rel32: opcode byte then 4-byte displacement.
  T.appendByte(0xE9);
  u64 FixOff = T.size();
  T.appendLE<i32>(0);
  A.addFixup(L, FixupKind::Rel32, FixOff);
  T.appendByte(0x90); // some padding instruction
  A.bindLabel(L);
  EXPECT_EQ(A.labelOffset(L), 6u);
  // displacement = target(6) - end of field(5) = 1
  EXPECT_EQ(T.readLE<i32>(FixOff), 1);
}

TEST(Assembler, LabelBackwardFixup) {
  Assembler A;
  Section &T = A.text();
  Label L = A.makeLabel();
  A.bindLabel(L); // bound at offset 0
  T.appendByte(0xE9);
  u64 FixOff = T.size();
  T.appendLE<i32>(0);
  A.addFixup(L, FixupKind::Rel32, FixOff);
  EXPECT_EQ(T.readLE<i32>(FixOff), -5);
}

TEST(Assembler, MultipleFixupsOneLabel) {
  Assembler A;
  Section &T = A.text();
  Label L = A.makeLabel();
  u64 Offs[3];
  for (int I = 0; I < 3; ++I) {
    T.appendByte(0xE9);
    Offs[I] = T.size();
    T.appendLE<i32>(0);
    A.addFixup(L, FixupKind::Rel32, Offs[I]);
  }
  A.bindLabel(L);
  for (int I = 0; I < 3; ++I) {
    i64 Expect = static_cast<i64>(T.size()) - static_cast<i64>(Offs[I] + 4);
    EXPECT_EQ(T.readLE<i32>(Offs[I]), Expect);
  }
}

TEST(Assembler, A64Branch26Fixup) {
  Assembler A;
  Section &T = A.text();
  Label L = A.makeLabel();
  u64 Off = T.size();
  T.appendLE<u32>(0x14000000); // b #0
  A.addFixup(L, FixupKind::A64Branch26, Off);
  T.appendLE<u32>(0xd503201f); // nop
  A.bindLabel(L);
  // Branch distance = 8 bytes = 2 words.
  EXPECT_EQ(T.readLE<u32>(Off), 0x14000002u);
}

#ifdef NDEBUG
/// An out-of-bounds fixup offset asserts in debug builds; release builds
/// must take the checked error path (first-error-wins on the assembler)
/// instead of patching out of bounds — and reset() must clear it.
TEST(Assembler, OutOfBoundsFixupPatchIsACheckedError) {
  Assembler A;
  Section &T = A.text();
  T.appendByte(0x90);
  Label L = A.makeLabel();
  A.bindLabel(L);
  A.addFixup(L, FixupKind::Rel32, /*Off=*/64); // far past the 1-byte text
  EXPECT_EQ(T.size(), 1u) << "OOB patch wrote into the text section";
  ASSERT_TRUE(A.hasError());
  EXPECT_EQ(A.errorCode(), support::CompileErr::AssemblerError);
  EXPECT_NE(A.errorMessage().find("out of bounds"), std::string_view::npos)
      << A.errorMessage();
  A.reset();
  EXPECT_FALSE(A.hasError());
}
#endif // NDEBUG

TEST(ElfWriter, HeaderAndSymbols) {
  Assembler A;
  SymRef F = A.createSymbol("myfunc", Linkage::External, true);
  A.text().appendByte(0xC3);
  A.defineSymbol(F, SecKind::Text, 0, 1);
  SymRef L = A.createSymbol("local", Linkage::Internal, false);
  A.section(SecKind::Data).appendLE<u64>(123);
  A.defineSymbol(L, SecKind::Data, 0, 8);
  A.addReloc(SecKind::Data, 0, RelocKind::Abs64, F, 0);

  std::vector<u8> Obj = writeElfObject(A, ElfMachine::X86_64);
  ASSERT_GE(Obj.size(), 64u);
  EXPECT_EQ(Obj[0], 0x7f);
  EXPECT_EQ(Obj[1], 'E');
  EXPECT_EQ(Obj[2], 'L');
  EXPECT_EQ(Obj[3], 'F');
  EXPECT_EQ(Obj[4], 2); // 64-bit
  EXPECT_EQ(Obj[5], 1); // little endian
  // e_type == ET_REL, e_machine == EM_X86_64
  EXPECT_EQ(Obj[16], 1);
  EXPECT_EQ(Obj[18], 62);
}

TEST(ElfWriter, AArch64Machine) {
  Assembler A;
  std::vector<u8> Obj = writeElfObject(A, ElfMachine::AArch64);
  EXPECT_EQ(Obj[18], 183);
}

TEST(JITMapper, MapsDataAndResolvesAbs64) {
  Assembler A;
  // data: one pointer-sized slot relocated against "target".
  SymRef Target = A.createSymbol("target", Linkage::External, false);
  A.section(SecKind::ROData).appendLE<u64>(77); // rodata content
  SymRef RoSym = A.createSymbol("ro", Linkage::Internal, false);
  A.defineSymbol(RoSym, SecKind::ROData, 0, 8);
  A.section(SecKind::Data).appendLE<u64>(0);
  SymRef Ptr = A.createSymbol("ptr", Linkage::External, false);
  A.defineSymbol(Ptr, SecKind::Data, 0, 8);
  A.addReloc(SecKind::Data, 0, RelocKind::Abs64, Target, 16);

  static int External;
  JITMapper JIT;
  ASSERT_TRUE(JIT.map(A, [](std::string_view Name) -> void * {
    return Name == "target" ? &External : nullptr;
  }));
  u64 Stored;
  memcpy(&Stored, JIT.address("ptr"), 8);
  EXPECT_EQ(Stored, reinterpret_cast<u64>(&External) + 16);
  u64 Ro;
  memcpy(&Ro, JIT.address("ro"), 8);
  EXPECT_EQ(Ro, 77u);
}

TEST(JITMapper, UnresolvedSymbolFails) {
  Assembler A;
  SymRef Missing = A.createSymbol("missing", Linkage::External, false);
  A.section(SecKind::Data).appendLE<u64>(0);
  A.addReloc(SecKind::Data, 0, RelocKind::Abs64, Missing, 0);
  JITMapper JIT;
  EXPECT_FALSE(JIT.map(A, nullptr));
}

TEST(JITMapper, BssIsZeroed) {
  Assembler A;
  A.section(SecKind::BSS).BssSize = 64;
  SymRef B = A.createSymbol("bss_var", Linkage::External, false);
  A.defineSymbol(B, SecKind::BSS, 0, 64);
  JITMapper JIT;
  ASSERT_TRUE(JIT.map(A));
  u8 *P = static_cast<u8 *>(JIT.address("bss_var"));
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(P[I], 0);
}

// --- JIT page recycling ------------------------------------------------------

namespace {

u64 pageSize() { return static_cast<u64>(::sysconf(_SC_PAGESIZE)); }

/// One line of /proc/self/maps: the mapping [Lo, Hi) and its permissions
/// ("r-xp", "---p", ...).
struct MapEntry {
  uintptr_t Lo = 0, Hi = 0;
  std::string Perms;
};

/// The mapping that contains \p P; empty Perms if none does.
MapEntry mappingAt(const void *P) {
  std::ifstream Maps("/proc/self/maps");
  std::string Line;
  const auto Addr = reinterpret_cast<uintptr_t>(P);
  while (std::getline(Maps, Line)) {
    uintptr_t Lo = 0, Hi = 0;
    char Perms[5] = {};
    if (std::sscanf(Line.c_str(), "%lx-%lx %4s", &Lo, &Hi, Perms) == 3 &&
        Addr >= Lo && Addr < Hi)
      return {Lo, Hi, Perms};
  }
  return {};
}

/// Permissions ("r-x", "rw-", ...) of the mapping that contains \p P; empty
/// if no mapping contains it.
std::string permsAt(const void *P) { return mappingAt(P).Perms.substr(0, 3); }

/// Number of mappings (VMAs) of this process.
size_t mapCount() {
  std::ifstream Maps("/proc/self/maps");
  std::string Line;
  size_t N = 0;
  while (std::getline(Maps, Line))
    ++N;
  return N;
}

/// True while the page at \p P is mapped at all.
bool pageMapped(void *P) {
  return ::msync(P, pageSize(), MS_ASYNC) == 0 || errno != ENOMEM;
}

/// Virtual size of this process in bytes (/proc/self/statm, first field).
u64 vmSizeBytes() {
  std::ifstream Statm("/proc/self/statm");
  u64 Pages = 0;
  Statm >> Pages;
  return Pages * pageSize();
}

/// An image with \p Text, \p Ro and \p Data bytes of the given fill and
/// \p Bss bytes of BSS; "text" names the text start, "bss" the BSS start.
void buildImage(Assembler &A, u64 Text, u64 Ro, u64 Data, u64 Bss,
                u8 Fill) {
  A.reset();
  for (u64 I = 0; I < Text; ++I)
    A.text().appendByte(Fill);
  for (u64 I = 0; I < Ro; ++I)
    A.section(SecKind::ROData).appendByte(Fill ^ 0x5A);
  for (u64 I = 0; I < Data; ++I)
    A.section(SecKind::Data).appendByte(Fill ^ 0xA5);
  A.section(SecKind::BSS).BssSize = Bss;
  A.defineSymbol(A.createSymbol("text", Linkage::External, true),
                 SecKind::Text, 0, Text);
  if (Bss)
    A.defineSymbol(A.createSymbol("bss", Linkage::External, false),
                   SecKind::BSS, 0, Bss);
}

/// Fails unless every byte of each section's pages in \p JIT reads like
/// \p A: the section's bytes, then zeros (a mapping without relocations or
/// stubs must read exactly like its assembler). It walks the sections one
/// by one, because the guard pages around text and rodata fault when read.
void expectExactImage(const JITMapper &JIT, const Assembler &A) {
  u64 Bad = 0, Pages = 0;
  for (unsigned K = 0; K < NumSections; ++K) {
    const SecKind S = static_cast<SecKind>(K);
    const Section &Sec = A.section(S);
    const u64 Bytes = S == SecKind::BSS ? 0 : Sec.Data.size();
    const u64 Span =
        alignTo(S == SecKind::BSS ? Sec.BssSize : Bytes, pageSize());
    const u8 *Base = JIT.sectionBase(S);
    for (u64 Off = 0; Off < Span; ++Off)
      Bad += Base[Off] != (Off < Bytes ? Sec.Data[Off] : 0);
    Pages += Span;
  }
  EXPECT_EQ(Pages, JIT.mappedSize()) << "mappedSize() counts section pages";
  EXPECT_EQ(Bad, 0u) << "bytes that differ from a fresh mapping";
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TPDE_TEST_SANITIZER_MAPS_ON_DEMAND 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TPDE_TEST_SANITIZER_MAPS_ON_DEMAND 1
#endif
#endif

/// vm.max_map_count if a test can exhaust it here; otherwise 0, with the
/// reason in \p Why.
long exhaustibleMapCount(std::string &Why) {
#ifdef TPDE_TEST_SANITIZER_MAPS_ON_DEMAND
  Why = "the sanitizer runtime maps shadow and allocator memory on demand "
        "and aborts once vm.max_map_count is exhausted";
  return 0;
#endif
  long MaxMaps = 0;
  std::ifstream("/proc/sys/vm/max_map_count") >> MaxMaps;
  if (MaxMaps > 0 && MaxMaps <= (1 << 18))
    return MaxMaps;
  Why = "vm.max_map_count " + std::to_string(MaxMaps) +
        " is unreadable or too large to exhaust quickly";
  return 0;
}

/// Keeps vm.max_map_count exhausted while it lives: maps single pages, with
/// alternating protections so that neighbours never merge, until mmap
/// fails, then hands one back so malloc can still grow. A split still needs
/// a map count below the limit, which stays exhausted.
class MapCountExhaustion {
public:
  explicit MapCountExhaustion(long MaxMaps) {
    Probes.reserve(static_cast<size_t>(MaxMaps));
    for (;;) {
      void *P = ::mmap(nullptr, pageSize(),
                       Probes.size() % 2 ? PROT_READ : PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (P == MAP_FAILED)
        break;
      Probes.push_back(P);
    }
    ::munmap(Probes.back(), pageSize());
    Probes.pop_back();
  }
  ~MapCountExhaustion() {
    for (void *P : Probes)
      ::munmap(P, pageSize());
  }
  MapCountExhaustion(const MapCountExhaustion &) = delete;
  MapCountExhaustion &operator=(const MapCountExhaustion &) = delete;

private:
  std::vector<void *> Probes;
};

} // namespace

TEST(JITMapper, RemapReleasesThePreviousImage) {
  Assembler A;
  A.text().appendByte(0xC3);
  JITMapper JIT;
  ASSERT_TRUE(JIT.map(A));
  const u64 Before = vmSizeBytes();
  for (int I = 0; I < 10000; ++I)
    ASSERT_TRUE(JIT.map(A));
  EXPECT_LT(vmSizeBytes() - Before, u64(1) << 20);
}

TEST(JITMapper, SectionPermissionsAreWXorXForFreshAndRecycledImages) {
  const u64 Page = pageSize();
  Assembler A;
  // Larger than the pool's bound, so this image is always freshly mapped.
  buildImage(A, 100, 100, 100, JITMapper::MaxPooledBytes + Page, 0x11);
  auto expectWXorX = [&](const JITMapper &JIT) {
    EXPECT_EQ(permsAt(JIT.sectionBase(SecKind::Text)), "r-x");
    EXPECT_EQ(permsAt(JIT.sectionBase(SecKind::ROData)), "r--");
    EXPECT_EQ(permsAt(JIT.sectionBase(SecKind::Data)), "rw-");
    EXPECT_EQ(permsAt(JIT.sectionBase(SecKind::BSS)), "rw-");
  };
  {
    JITMapper Fresh;
    ASSERT_TRUE(Fresh.map(A));
    expectWXorX(Fresh);
  }
  buildImage(A, 100, 100, 100, 100, 0x22);
  u8 *FirstText;
  {
    JITMapper First;
    ASSERT_TRUE(First.map(A));
    FirstText = First.sectionBase(SecKind::Text);
  }
  JITMapper Recycled;
  ASSERT_TRUE(Recycled.map(A));
  ASSERT_EQ(Recycled.sectionBase(SecKind::Text), FirstText);
  expectWXorX(Recycled);
}

TEST(JITMapper, RecycledRunReadsLikeAFreshMapping) {
  const u64 Page = pageSize();
  Assembler Big;
  buildImage(Big, Page - 64, Page - 8, Page - 8, Page, 0xCC);
  // An undefined symbol far from any mapping fills a stub slot after text.
  SymRef Far = Big.createSymbol("far", Linkage::External, true);
  Big.addReloc(SecKind::Text, 0, RelocKind::PC32, Far, 0);
  u8 *BigText;
  {
    JITMapper JIT;
    ASSERT_TRUE(JIT.map(Big, [](std::string_view) -> void * {
      return reinterpret_cast<void *>(0x10);
    }));
    BigText = JIT.sectionBase(SecKind::Text);
    std::memset(JIT.address("bss"), 0xEE, Page);
  }
  Assembler Small;
  buildImage(Small, 24, 8, 8, 8, 0x33);
  JITMapper JIT;
  ASSERT_TRUE(JIT.map(Small));
  EXPECT_EQ(JIT.sectionBase(SecKind::Text), BigText)
      << "the same-sized released run was not reused";
  expectExactImage(JIT, Small);
}

TEST(JITMapper, RunTakenByAFailedMapIsZeroedForTheNext) {
  const u64 Page = pageSize();
  Assembler Dirty;
  buildImage(Dirty, Page - 64, Page, Page, Page, 0xCC);
  SymRef Missing = Dirty.createSymbol("missing", Linkage::External, false);
  Dirty.addReloc(SecKind::Data, 0, RelocKind::Abs64, Missing, 0);
  u8 *DirtyText;
  {
    JITMapper JIT;
    ASSERT_FALSE(JIT.map(Dirty));
    EXPECT_EQ(JIT.status().Err, support::CompileErr::JitMapFailed);
    DirtyText = JIT.sectionBase(SecKind::Text);
  }
  Assembler Small;
  buildImage(Small, 16, 16, 16, 16, 0x44);
  JITMapper JIT;
  ASSERT_TRUE(JIT.map(Small));
  EXPECT_EQ(JIT.sectionBase(SecKind::Text), DirtyText);
  expectExactImage(JIT, Small);
}

TEST(JITMapper, ConcurrentMapCallRelease) {
  constexpr unsigned Threads = 4, Images = 2000;
  std::atomic<unsigned> Wrong{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([T, &Wrong] {
      // mov eax, imm32; ret — half the images carry a data page as well,
      // so runs of two layouts pass through the pool.
      const u32 K = 0x1000 * (T + 1);
      Assembler A[2];
      for (unsigned V = 0; V < 2; ++V) {
        A[V].text().appendByte(0xB8);
        A[V].text().appendLE<u32>(K);
        A[V].text().appendByte(0xC3);
        A[V].defineSymbol(A[V].createSymbol("f", Linkage::External, true),
                          SecKind::Text, 0, 6);
      }
      A[1].section(SecKind::Data).appendLE<u64>(K);
      for (unsigned I = 0; I < Images; ++I) {
        JITMapper JIT;
        if (!JIT.map(A[I % 2])) {
          Wrong.fetch_add(1);
          continue;
        }
        auto *F = reinterpret_cast<u32 (*)()>(JIT.address("f"));
        if (F() != K)
          Wrong.fetch_add(1);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Wrong.load(), 0u);
}

TEST(JITMapper, PoolRetainsAtMostItsBound) {
  const u64 Page = pageSize();
  const u64 Keep = JITMapper::MaxPooledBytes / Page;
  Assembler A;
  A.text().appendByte(0xC3);
  std::vector<JITMapper> Live(2 * Keep + 8);
  std::vector<u8 *> Bases;
  for (JITMapper &JIT : Live) {
    ASSERT_TRUE(JIT.map(A));
    Bases.push_back(JIT.sectionBase(SecKind::Text));
  }
  for (JITMapper &JIT : Live)
    JIT = JITMapper(); // releases the images oldest first
  u64 StillMapped = 0;
  for (u8 *B : Bases)
    StillMapped += pageMapped(B);
  // The newest releases fill the pool exactly; every older run is unmapped.
  EXPECT_EQ(StillMapped, Keep);
  for (u64 I = 0; I < Bases.size(); ++I)
    EXPECT_EQ(pageMapped(Bases[I]), I >= Bases.size() - Keep) << I;
}

TEST(JITMapper, FailedReleaseFlipUnmapsTheRun) {
  const u64 Page = pageSize();
  Assembler A;
  buildImage(A, 16, 0, 16, 0, 0x55);
  u8 *Text;
  {
    JITMapper JIT;
    ASSERT_TRUE(JIT.map(A));
    ASSERT_EQ(JIT.mappedSize(), 2 * Page);
    Text = JIT.sectionBase(SecKind::Text);
    // A hole in the image makes the release's read+write flip fail.
    ASSERT_EQ(::munmap(JIT.sectionBase(SecKind::Data), Page), 0);
  }
  EXPECT_FALSE(pageMapped(Text)) << "a run whose flip failed was pooled";
}

TEST(JITMapper, MapAndReleaseNeverSplitAVMA) {
  const u64 Page = pageSize();
  Assembler A;
  for (u64 Ro : {u64(100), u64(0)}) {
    SCOPED_TRACE(Ro ? "text+rodata image" : "text-only image");
    buildImage(A, Page + 100, Ro, 100, 100, 0x77);
    {
      JITMapper Warm; // pools a run of this image's page counts
      ASSERT_TRUE(Warm.map(A));
    }
    const size_t Before = mapCount();
    JITMapper JIT;
    ASSERT_TRUE(JIT.map(A));
    const size_t Mapped = mapCount();
    // Each flipped section is one whole VMA with a guard page on each side.
    auto expectOwnVMA = [&](SecKind K, u64 Bytes, const char *Perms) {
      const u8 *Lo = JIT.sectionBase(K);
      const MapEntry E = mappingAt(Lo);
      EXPECT_EQ(E.Perms, Perms);
      EXPECT_EQ(E.Lo, reinterpret_cast<uintptr_t>(Lo));
      EXPECT_EQ(E.Hi, reinterpret_cast<uintptr_t>(Lo + Bytes));
      EXPECT_EQ(mappingAt(Lo - Page).Perms, "---p");
      EXPECT_EQ(mappingAt(Lo + Bytes).Perms, "---p");
    };
    expectOwnVMA(SecKind::Text, 2 * Page, "r-xp");
    if (Ro)
      expectOwnVMA(SecKind::ROData, Page, "r--p");
    JIT = JITMapper();
    EXPECT_EQ(Mapped, Before) << "map() split a VMA";
    EXPECT_EQ(mapCount(), Before) << "release changed the VMA count";
  }
}

TEST(JITMapper, RecycledRunMapsWithTheMapCountExhausted) {
  std::string Why;
  const long MaxMaps = exhaustibleMapCount(Why);
  if (!MaxMaps)
    GTEST_SKIP() << Why;
  Assembler A;
  buildImage(A, 16, 16, 16, 0, 0x66);
  u8 *Text;
  {
    JITMapper Warm;
    ASSERT_TRUE(Warm.map(A));
    Text = Warm.sectionBase(SecKind::Text);
  }
  // Nothing below needs a new VMA: the run is pooled, and each flip, at
  // map() and at release, changes one whole VMA. No gtest assertion runs
  // while the map count is exhausted.
  bool OK, SameRun;
  std::string Message;
  {
    MapCountExhaustion Exhausted(MaxMaps);
    JITMapper JIT; // released before the probes go
    OK = JIT.map(A);
    SameRun = JIT.sectionBase(SecKind::Text) == Text;
    if (!OK)
      Message = JIT.status().Message;
  }
  EXPECT_TRUE(OK) << Message;
  EXPECT_TRUE(SameRun) << "the pooled run was not reused";
  JITMapper Again;
  ASSERT_TRUE(Again.map(A));
  EXPECT_EQ(Again.sectionBase(SecKind::Text), Text)
      << "the release with the map count exhausted did not pool the run";
}

TEST(JITMapper, FreshRunFailsCleanlyWithTheMapCountExhausted) {
  std::string Why;
  const long MaxMaps = exhaustibleMapCount(Why);
  if (!MaxMaps)
    GTEST_SKIP() << Why;
  Assembler A;
  // Larger than the pool's bound, so no pooled run can serve it.
  buildImage(A, 16, 16, 16, JITMapper::MaxPooledBytes + pageSize(), 0x67);
  JITMapper JIT;
  bool OK;
  u64 VmBefore, VmAfter;
  {
    MapCountExhaustion Exhausted(MaxMaps);
    VmBefore = vmSizeBytes();
    OK = JIT.map(A);
    VmAfter = vmSizeBytes();
  }
  EXPECT_FALSE(OK);
  EXPECT_EQ(JIT.status().Err, support::CompileErr::JitMapFailed);
  const std::string &Msg = JIT.status().Message;
  EXPECT_TRUE(Msg.starts_with("mmap of") || Msg.starts_with("mprotect of"))
      << Msg;
  EXPECT_EQ(JIT.mappedSize(), 0u);
  EXPECT_EQ(VmAfter, VmBefore) << "the failed map left its run mapped";
}

// --- Merging (parallel shard fragments) ------------------------------------

TEST(Merge, SectionsConcatenateWithAlignmentAndRebasedOffsets) {
  Assembler Dst, Src;
  // Destination: 5 bytes of text (unaligned end), a defined symbol.
  for (int I = 0; I < 5; ++I)
    Dst.section(SecKind::Text).appendByte(0x90);
  SymRef F = Dst.createSymbol("f", Linkage::External, true);
  Dst.defineSymbol(F, SecKind::Text, 0, 5);
  // Source: 4 text bytes starting at its offset 0, plus a reloc at 0.
  Src.section(SecKind::Text).appendLE<u32>(0x11223344);
  SymRef G = Src.createSymbol("g", Linkage::External, true);
  Src.defineSymbol(G, SecKind::Text, 0, 4);
  Src.addReloc(SecKind::Text, 0, RelocKind::PC32, G, -4);

  Dst.mergeFrom(Src);
  // Source text lands 16-aligned (text alignment), so at offset 16.
  EXPECT_EQ(Dst.section(SecKind::Text).size(), 20u);
  EXPECT_EQ(Dst.section(SecKind::Text).readLE<u32>(16), 0x11223344u);
  SymRef MG = Dst.findSymbol("g");
  ASSERT_TRUE(MG.isValid());
  EXPECT_TRUE(Dst.symbol(MG).Defined);
  EXPECT_EQ(Dst.symbol(MG).Off, 16u);
  ASSERT_EQ(Dst.relocs().size(), 1u);
  EXPECT_EQ(Dst.relocs()[0].Off, 16u);
  EXPECT_EQ(Dst.relocs()[0].Sym.Idx, MG.Idx);
}

TEST(Merge, UndefinedReferenceBindsToDefinitionAcrossFragments) {
  // Fragment A calls "callee" (undefined there); fragment B defines it.
  Assembler Out, FragA, FragB;
  FragA.section(SecKind::Text).appendLE<u32>(0);
  SymRef CalleeA = FragA.createSymbol("callee", Linkage::External, true);
  FragA.addReloc(SecKind::Text, 0, RelocKind::PC32, CalleeA, -4);

  FragB.section(SecKind::Text).appendLE<u32>(0xC3C3C3C3);
  SymRef CalleeB = FragB.createSymbol("callee", Linkage::Internal, true);
  FragB.defineSymbol(CalleeB, SecKind::Text, 0, 4);

  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  SymRef C = Out.findSymbol("callee");
  ASSERT_TRUE(C.isValid());
  EXPECT_TRUE(Out.symbol(C).Defined);
  // The declaration adopted the definition's stronger linkage.
  EXPECT_EQ(Out.symbol(C).Link, Linkage::Internal);
  EXPECT_EQ(Out.symbol(C).Off, 16u); // B's text is 16-aligned after A's
  ASSERT_EQ(Out.relocs().size(), 1u);
  EXPECT_EQ(Out.relocs()[0].Sym.Idx, C.Idx);
}

TEST(Merge, DuplicateStrongDefinitionAcrossFragmentsIsAnError) {
  Assembler Out, FragA, FragB;
  for (Assembler *Frag : {&FragA, &FragB}) {
    Frag->section(SecKind::Text).appendByte(0xC3);
    SymRef S = Frag->createSymbol("twice", Linkage::External, true);
    Frag->defineSymbol(S, SecKind::Text, 0, 1);
  }
  Out.mergeFrom(FragA);
  EXPECT_FALSE(Out.hasError());
  Out.mergeFrom(FragB);
  EXPECT_TRUE(Out.hasError());
  EXPECT_NE(Out.errorMessage().find("twice"), std::string_view::npos);
}

TEST(Merge, DuplicateStrongDefinitionAfterDroppedDeclarationStillDiagnosed) {
  // The shape of the UIR parallel range path (External linkage, every
  // function a definition): the module-level globals fragment declares
  // the query (undefined, unreferenced — the merge drops that record),
  // then two shard fragments each *define* the same strong name.
  // Dropping the declaration must not launder the duplicate — the second
  // definition is still a module error — and a later fragment's
  // reference binds to the first definition.
  Assembler Out, Globals, FragA, FragB, FragC;
  Globals.createSymbol("q_dup", Linkage::External, true); // declaration only
  for (Assembler *Frag : {&FragA, &FragB}) {
    Frag->section(SecKind::Text).appendByte(0xC3);
    SymRef S = Frag->createSymbol("q_dup", Linkage::External, true);
    Frag->defineSymbol(S, SecKind::Text, 0, 1);
  }
  FragC.section(SecKind::Text).appendLE<u32>(0);
  SymRef Ref = FragC.createSymbol("q_dup", Linkage::External, true);
  FragC.addReloc(SecKind::Text, 0, RelocKind::PC32, Ref, -4);

  Out.mergeFrom(Globals);
  EXPECT_FALSE(Out.findSymbol("q_dup").isValid())
      << "unreferenced declaration should have been dropped";
  Out.mergeFrom(FragA);
  EXPECT_FALSE(Out.hasError());
  Out.mergeFrom(FragB);
  EXPECT_TRUE(Out.hasError());
  EXPECT_NE(Out.errorMessage().find("q_dup"), std::string_view::npos);
  Out.mergeFrom(FragC);
  SymRef S = Out.findSymbol("q_dup");
  ASSERT_TRUE(S.isValid());
  EXPECT_TRUE(Out.symbol(S).Defined);
  EXPECT_EQ(Out.symbol(S).Off, 0u)
      << "references must bind to the first definition";
  ASSERT_EQ(Out.relocs().size(), 1u);
  EXPECT_EQ(Out.relocs()[0].Sym.Idx, S.Idx);
}

TEST(Merge, WeakKeepsFirstDefinitionInMergeOrder) {
  Assembler Out, FragA, FragB;
  for (Assembler *Frag : {&FragA, &FragB}) {
    Frag->section(SecKind::Text).appendByte(0xC3);
    SymRef S = Frag->createSymbol("weak_fn", Linkage::Weak, true);
    Frag->defineSymbol(S, SecKind::Text, 0, 1);
  }
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_FALSE(Out.hasError());
  SymRef S = Out.findSymbol("weak_fn");
  EXPECT_EQ(Out.symbol(S).Off, 0u) << "first (fragment A) definition wins";
}

TEST(Merge, RodataPoolEntriesDeduplicateAcrossFragments) {
  // Two fragments that each materialized the same FP constant: the merged
  // module holds the bytes once and both relocations bind to that entry —
  // the pool matches what a serial whole-module compile would emit.
  Assembler Out, FragA, FragB;
  for (Assembler *Frag : {&FragA, &FragB}) {
    Frag->section(SecKind::ROData).appendLE<u64>(0x3FF0000000000000ull);
    SymRef S = Frag->createSymbol("", Linkage::Internal, false);
    Frag->defineSymbol(S, SecKind::ROData, 0, 8);
    Frag->section(SecKind::Text).appendLE<u32>(0);
    Frag->addReloc(SecKind::Text, 0, RelocKind::PC32, S, -4);
  }
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_FALSE(Out.hasError());
  ASSERT_EQ(Out.symbols().size(), 1u);
  ASSERT_EQ(Out.relocs().size(), 2u);
  EXPECT_EQ(Out.relocs()[0].Sym.Idx, Out.relocs()[1].Sym.Idx);
  EXPECT_EQ(Out.symbol(Out.relocs()[0].Sym).Off, 0u);
  EXPECT_EQ(Out.section(SecKind::ROData).size(), 8u);
}

TEST(Merge, RodataPoolKeepsDistinctEntries) {
  // Distinct constants stay distinct, appended at their own (entry-size)
  // alignment rather than the 16-byte wholesale-section alignment.
  Assembler Out, FragA, FragB;
  u64 K = 0x3FF0000000000000ull;
  for (Assembler *Frag : {&FragA, &FragB}) {
    Frag->section(SecKind::ROData).appendLE<u64>(K);
    K += 1; // different bytes per fragment
    SymRef S = Frag->createSymbol("", Linkage::Internal, false);
    Frag->defineSymbol(S, SecKind::ROData, 0, 8);
    Frag->section(SecKind::Text).appendLE<u32>(0);
    Frag->addReloc(SecKind::Text, 0, RelocKind::PC32, S, -4);
  }
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_FALSE(Out.hasError());
  ASSERT_EQ(Out.symbols().size(), 2u);
  EXPECT_NE(Out.relocs()[0].Sym.Idx, Out.relocs()[1].Sym.Idx);
  EXPECT_EQ(Out.symbol(Out.relocs()[0].Sym).Off, 0u);
  EXPECT_EQ(Out.symbol(Out.relocs()[1].Sym).Off, 8u);
  EXPECT_EQ(Out.section(SecKind::ROData).size(), 16u);
}

TEST(Merge, MixedPoolSizesTileWithEntryAlignment) {
  // A 4-byte float entry followed by an 8-byte double entry: the fragment
  // layout (4 bytes, 4 padding, 8 bytes) is eligible and reproduced.
  Assembler Out, FragA, FragB;
  for (Assembler *Frag : {&FragA, &FragB}) {
    Section &RO = Frag->section(SecKind::ROData);
    RO.appendLE<u32>(0x3F800000u);
    SymRef F = Frag->createSymbol("", Linkage::Internal, false);
    Frag->defineSymbol(F, SecKind::ROData, 0, 4);
    RO.alignToBoundary(8);
    SymRef D = Frag->createSymbol("", Linkage::Internal, false);
    u64 Off = RO.size();
    RO.appendLE<u64>(0x4000000000000000ull);
    Frag->defineSymbol(D, SecKind::ROData, Off, 8);
    Frag->section(SecKind::Text).appendLE<u32>(0);
    Frag->addReloc(SecKind::Text, 0, RelocKind::PC32, F, -4);
    Frag->addReloc(SecKind::Text, 0, RelocKind::PC32, D, -4);
  }
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_FALSE(Out.hasError());
  ASSERT_EQ(Out.symbols().size(), 2u) << "both fragments dedup to one pool";
  EXPECT_EQ(Out.section(SecKind::ROData).size(), 16u);
}

TEST(Merge, NamedRodataIsNotDeduplicated) {
  // Fragments whose rodata carries named symbols (global data, i.e. the
  // globals fragment shape) keep the wholesale section merge: identical
  // bytes under different names must remain separate objects.
  Assembler Out, FragA, FragB;
  const char *Names[2] = {"ro_a", "ro_b"};
  int N = 0;
  for (Assembler *Frag : {&FragA, &FragB}) {
    Frag->section(SecKind::ROData).appendLE<u64>(0x1122334455667788ull);
    SymRef S = Frag->createSymbol(Names[N++], Linkage::Internal, false);
    Frag->defineSymbol(S, SecKind::ROData, 0, 8);
  }
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_FALSE(Out.hasError());
  SymRef A = Out.findSymbol("ro_a"), B = Out.findSymbol("ro_b");
  ASSERT_TRUE(A.isValid());
  ASSERT_TRUE(B.isValid());
  EXPECT_EQ(Out.symbol(A).Off, 0u);
  // Wholesale path: fragment B lands at the 16-byte aligned end of A's.
  EXPECT_EQ(Out.symbol(B).Off, 16u);
}

TEST(Merge, BssSizesConcatenate) {
  Assembler Out, FragA, FragB;
  FragA.section(SecKind::BSS).BssSize = 10;
  SymRef A1 = FragA.createSymbol("a", Linkage::External, false);
  FragA.defineSymbol(A1, SecKind::BSS, 0, 10);
  FragB.section(SecKind::BSS).BssSize = 8;
  SymRef B1 = FragB.createSymbol("b", Linkage::External, false);
  FragB.defineSymbol(B1, SecKind::BSS, 0, 8);
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_EQ(Out.section(SecKind::BSS).BssSize, 24u) << "16-aligned rebase";
  EXPECT_EQ(Out.symbol(Out.findSymbol("b")).Off, 16u);
}

TEST(Merge, MergedModuleSurvivesElfAndJitConsumers) {
  // A merged module must be a first-class citizen for both output paths.
  Assembler Out, FragA, FragB;
  // Fragment A: ret-only function "one" returning via JIT call.
  // mov eax, 1; ret
  for (u8 B : {0xB8, 0x01, 0x00, 0x00, 0x00, 0xC3})
    FragA.section(SecKind::Text).appendByte(B);
  SymRef One = FragA.createSymbol("one", Linkage::External, true);
  FragA.defineSymbol(One, SecKind::Text, 0, 6);
  // Fragment B: "two" calls "one" (cross-fragment) and adds 1.
  // call rel32; inc eax; ret
  FragB.section(SecKind::Text).appendByte(0xE8);
  u64 RelOff = FragB.section(SecKind::Text).size();
  FragB.section(SecKind::Text).appendLE<u32>(0);
  SymRef OneDecl = FragB.createSymbol("one", Linkage::External, true);
  FragB.addReloc(SecKind::Text, RelOff, RelocKind::PC32, OneDecl, -4);
  for (u8 B : {0xFF, 0xC0, 0xC3}) // inc eax; ret
    FragB.section(SecKind::Text).appendByte(B);
  SymRef Two = FragB.createSymbol("two", Linkage::External, true);
  FragB.defineSymbol(Two, SecKind::Text, 0, 8);

  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  ASSERT_FALSE(Out.hasError());

  std::vector<u8> Obj = writeElfObject(Out, ElfMachine::X86_64);
  EXPECT_GT(Obj.size(), 64u);
  EXPECT_EQ(Obj[0], 0x7f);

  JITMapper JIT;
  ASSERT_TRUE(JIT.map(Out));
  auto *TwoFn = reinterpret_cast<int (*)()>(JIT.address("two"));
  ASSERT_NE(TwoFn, nullptr);
  EXPECT_EQ(TwoFn(), 2);
}

TEST(Merge, SteadyStateMergeIsAllocationFree) {
  Assembler FragA, FragB;
  for (Assembler *Frag : {&FragA, &FragB}) {
    for (int I = 0; I < 100; ++I)
      Frag->section(SecKind::Text).appendByte(0x90);
  }
  SymRef S = FragA.createSymbol("fn", Linkage::External, true);
  FragA.defineSymbol(S, SecKind::Text, 0, 100);
  SymRef D = FragB.createSymbol("fn", Linkage::External, true);
  FragB.addReloc(SecKind::Text, 0, RelocKind::PC32, D, -4);

  Assembler Out;
  for (int Warm = 0; Warm < 2; ++Warm) {
    Out.reset();
    Out.mergeFrom(FragA);
    Out.mergeFrom(FragB);
  }
  support::AllocWatch W;
  Out.reset();
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_EQ(W.newCalls(), 0u) << "steady-state merge touched the heap";
}

// --- Two-pass emission primitives (reserve / place / stitch) ---------------

namespace {

/// One fragment exercising every section at once: text defining \p FnName
/// plus a pool reference, an anonymous (dedup-eligible) rodata entry
/// holding \p PoolConst, mutable data, and BSS. Odd \p TextBytes sizes
/// force alignment padding between reserved slices.
void buildEmissionFragment(Assembler &Frag, const char *FnName,
                           u64 PoolConst, unsigned TextBytes) {
  Section &T = Frag.section(SecKind::Text);
  for (unsigned I = 0; I < TextBytes; ++I)
    T.appendByte(0x90);
  SymRef F = Frag.createSymbol(FnName, Linkage::External, true);
  Frag.defineSymbol(F, SecKind::Text, 0, TextBytes);
  Frag.section(SecKind::ROData).appendLE<u64>(PoolConst);
  SymRef K = Frag.createSymbol("", Linkage::Internal, false);
  Frag.defineSymbol(K, SecKind::ROData, 0, 8);
  u64 Off = T.size();
  T.appendLE<u32>(0);
  Frag.addReloc(SecKind::Text, Off, RelocKind::PC32, K, -4);
  Frag.section(SecKind::Data).appendLE<u64>(PoolConst ^ 0xAA55AA55ull);
  Frag.section(SecKind::BSS).BssSize = 8;
}

} // namespace

/// The tentpole contract at the primitive level: reserveFrom + placeFrom
/// + stitchFrom IS mergeFrom, resequenced. Reservations happen up front
/// in fragment order, placement runs in ANY order (the driver hands it
/// to a worker pool), stitching is the only ordered stage — and the
/// result is byte-identical to the serial mergeFrom walk down to the
/// full relocatable ELF, covering cross-fragment binding, FP-pool
/// dedup, named (wholesale) rodata, data, and BSS rebasing.
TEST(TwoPassEmission, ReservePlaceStitchMatchesMergeFrom) {
  Assembler FragA, FragB, FragC;
  buildEmissionFragment(FragA, "f_a", 0x3FF0000000000000ull, 5);
  buildEmissionFragment(FragB, "f_b", 0x3FF0000000000000ull, 7); // dedups
  // FragB also calls f_a — an undefined reference bound at stitch time.
  u64 CallOff = FragB.section(SecKind::Text).size();
  FragB.section(SecKind::Text).appendLE<u32>(0);
  SymRef ADecl = FragB.createSymbol("f_a", Linkage::External, true);
  FragB.addReloc(SecKind::Text, CallOff, RelocKind::PC32, ADecl, -4);
  // FragC carries *named* rodata — the wholesale (non-dedup) merge path.
  FragC.section(SecKind::Text).appendByte(0xC3);
  SymRef FC = FragC.createSymbol("f_c", Linkage::External, true);
  FragC.defineSymbol(FC, SecKind::Text, 0, 1);
  FragC.section(SecKind::ROData).appendLE<u64>(0x1122334455667788ull);
  SymRef RC = FragC.createSymbol("ro_c", Linkage::Internal, false);
  FragC.defineSymbol(RC, SecKind::ROData, 0, 8);

  Assembler Ref;
  Ref.mergeFrom(FragA);
  Ref.mergeFrom(FragB);
  Ref.mergeFrom(FragC);
  ASSERT_FALSE(Ref.hasError());

  Assembler Out;
  MergePlan PA, PB, PC;
  Out.reserveFrom(FragA, PA);
  Out.reserveFrom(FragB, PB);
  Out.reserveFrom(FragC, PC);
  Out.placeFrom(FragC, PC); // any order: disjoint slices
  Out.placeFrom(FragA, PA);
  Out.placeFrom(FragB, PB);
  Out.stitchFrom(FragA, PA);
  Out.stitchFrom(FragB, PB);
  Out.stitchFrom(FragC, PC);
  ASSERT_FALSE(Out.hasError()) << Out.errorMessage();

  EXPECT_EQ(writeElfObject(Out, ElfMachine::X86_64),
            writeElfObject(Ref, ElfMachine::X86_64))
      << "split reserve/place/stitch diverged from mergeFrom";
}

/// The split path shares mergeFrom's scratch (symbol maps, dedup pool
/// index) and adds only the caller-owned plans — steady-state
/// reserve/place/stitch cycles must be allocation-free once warm,
/// exactly like the serial merge (docs/PERF.md).
TEST(TwoPassEmission, SteadyStateSplitEmissionIsAllocationFree) {
  Assembler FragA, FragB;
  buildEmissionFragment(FragA, "fn_a", 0x4000000000000000ull, 96);
  buildEmissionFragment(FragB, "fn_b", 0x4000000000000000ull, 64);
  Assembler Out;
  MergePlan PA, PB;
  auto Emit = [&] {
    Out.reset();
    Out.reserveFrom(FragA, PA);
    Out.reserveFrom(FragB, PB);
    Out.placeFrom(FragA, PA);
    Out.placeFrom(FragB, PB);
    Out.stitchFrom(FragA, PA);
    Out.stitchFrom(FragB, PB);
    ASSERT_FALSE(Out.hasError());
  };
  for (int Warm = 0; Warm < 2; ++Warm)
    Emit();
  support::AllocWatch W;
  Emit();
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state split emission touched the heap (" << W.newBytes()
      << " bytes)";
}

TEST(Merge, BssRebaseHonorsOveralignedSections) {
  // A fragment whose BSS holds a 32-byte-aligned member raises the
  // section alignment; the merge must rebase to that alignment so the
  // member's intra-section offset guarantee survives.
  Assembler Out, FragA, FragB;
  FragA.section(SecKind::BSS).BssSize = 10;
  SymRef A1 = FragA.createSymbol("a", Linkage::External, false);
  FragA.defineSymbol(A1, SecKind::BSS, 0, 10);
  Section &BBss = FragB.section(SecKind::BSS);
  BBss.Align = 32;
  BBss.BssSize = 8;
  SymRef B1 = FragB.createSymbol("b", Linkage::External, false);
  FragB.defineSymbol(B1, SecKind::BSS, 0, 8);
  Out.mergeFrom(FragA);
  Out.mergeFrom(FragB);
  EXPECT_EQ(Out.symbol(Out.findSymbol("b")).Off, 32u);
  EXPECT_EQ(Out.section(SecKind::BSS).Align, 32u)
      << "merged section must keep the strictest member alignment";
}

TEST(Merge, UnreferencedDeclarationsAreDropped) {
  // Merging keeps only definitions and actually-referenced declarations
  // (linker semantics): the on-demand compiles never create
  // unreferenced declarations, and any source that does must not make
  // merging K fragments quadratic in module size.
  Assembler Out, Frag;
  Frag.section(SecKind::Text).appendLE<u32>(0);
  SymRef Def = Frag.createSymbol("defined_fn", Linkage::External, true);
  Frag.defineSymbol(Def, SecKind::Text, 0, 4);
  SymRef Called = Frag.createSymbol("called_fn", Linkage::External, true);
  Frag.addReloc(SecKind::Text, 0, RelocKind::PC32, Called, -4);
  Frag.createSymbol("unused_decl", Linkage::External, true);

  Out.mergeFrom(Frag);
  EXPECT_TRUE(Out.findSymbol("defined_fn").isValid());
  EXPECT_TRUE(Out.findSymbol("called_fn").isValid());
  EXPECT_FALSE(Out.findSymbol("unused_decl").isValid())
      << "unreferenced declaration must not survive the merge";
  EXPECT_EQ(Out.symbols().size(), 2u);
}

// --- Sparse symbol materialization (on-demand mode) ------------------------

TEST(Sparse, GetOrCreateUpgradesUndefinedExternalOnly) {
  // The on-demand entry point: materializing a call target first (as an
  // undefined external function) and the same name later with its real
  // linkage must merge into one symbol, upgrading the placeholder — but a
  // re-registration must never relax an already-specific linkage.
  Assembler A;
  SymRef Ref = A.createSymbol("callee", Linkage::External, true);
  SymRef Again = A.createSymbol("callee", Linkage::Weak, true);
  EXPECT_EQ(Ref.Idx, Again.Idx);
  EXPECT_EQ(A.symbol(Ref).Link, Linkage::Weak)
      << "undefined external placeholder adopts the stronger registration";
  SymRef Third = A.createSymbol("callee", Linkage::External, false);
  EXPECT_EQ(Third.Idx, Ref.Idx);
  EXPECT_EQ(A.symbol(Ref).Link, Linkage::Weak)
      << "a later registration must not relax the linkage back";
  EXPECT_TRUE(A.symbol(Ref).IsFunc) << "function-ness is sticky";
}

TEST(Sparse, RewindToZeroIsTheShardRewind) {
  // reset() drops the whole table at a cost proportional to it — the
  // per-shard reset of the on-demand mode. Names must be re-creatable
  // and, at steady state, re-creating them must not touch the heap
  // (pool + capacity retained).
  Assembler A;
  auto CompileShardLike = [&A](int Shard) {
    SymRef Own =
        A.createSymbol(Shard ? "f_b" : "f_a", Linkage::External, true);
    A.section(SecKind::Text).appendLE<u32>(0x90909090);
    A.defineSymbol(Own, SecKind::Text, 0, 4);
    SymRef Callee = A.createSymbol("f_shared", Linkage::External, true);
    A.addReloc(SecKind::Text, 0, RelocKind::PC32, Callee, -4);
  };
  CompileShardLike(0);
  A.reset();
  EXPECT_EQ(A.symbolCount(), 0u);
  EXPECT_FALSE(A.findSymbol("f_a").isValid());
  EXPECT_FALSE(A.findSymbol("f_shared").isValid());
  // Warm both shard shapes, then assert the steady state.
  CompileShardLike(1);
  A.reset();
  CompileShardLike(0);
  A.reset();
  support::AllocWatch W;
  CompileShardLike(1);
  A.reset();
  CompileShardLike(0);
  EXPECT_EQ(W.newCalls(), 0u)
      << "steady-state sparse reset/rebuild touched the heap";
}

TEST(Sparse, SnapshotCarriesOnlyDefinedAndReferencedRecords) {
  // A sparse worker table contains only what the shard touched; the
  // fragment snapshot (a mergeFrom) must preserve exactly those records
  // — and merging the fragments must resolve the on-demand declarations
  // across shards (undefined external -> defined).
  Assembler Worker, Frag, Out;
  // Shard-like content: one defined function, one on-demand call target.
  Worker.section(SecKind::Text).appendByte(0xE8);
  Worker.section(SecKind::Text).appendLE<u32>(0);
  Worker.section(SecKind::Text).appendByte(0xC3);
  SymRef Own = Worker.createSymbol("shard_fn", Linkage::External, true);
  Worker.defineSymbol(Own, SecKind::Text, 0, 6);
  SymRef Callee = Worker.createSymbol("other_fn", Linkage::External,
                                           true);
  Worker.addReloc(SecKind::Text, 1, RelocKind::PC32, Callee, -4);
  ASSERT_EQ(Worker.symbolCount(), 2u) << "sparse table: only touched syms";

  Frag.mergeFrom(Worker);
  EXPECT_EQ(Frag.symbolCount(), 2u)
      << "snapshot carries exactly the defined + referenced records";

  // The defining shard arrives later; the merge upgrades the undefined
  // external declaration to the definition.
  Assembler Def;
  Def.section(SecKind::Text).appendByte(0xC3);
  SymRef D = Def.createSymbol("other_fn", Linkage::External, true);
  Def.defineSymbol(D, SecKind::Text, 0, 1);

  Out.mergeFrom(Frag);
  EXPECT_FALSE(Out.symbol(Out.findSymbol("other_fn")).Defined);
  Out.mergeFrom(Def);
  EXPECT_FALSE(Out.hasError());
  SymRef Resolved = Out.findSymbol("other_fn");
  ASSERT_TRUE(Resolved.isValid());
  EXPECT_TRUE(Out.symbol(Resolved).Defined)
      << "undefined external upgraded to the cross-shard definition";
  ASSERT_EQ(Out.relocs().size(), 1u);
  EXPECT_EQ(Out.relocs()[0].Sym.Idx, Resolved.Idx);
}

TEST(Sparse, DuplicateStrongDefinitionAcrossShardsStillDiagnosed) {
  // On-demand materialization must not weaken the duplicate-strong
  // diagnostic: two shards defining the same strong symbol surface the
  // module error at merge time, exactly like the dense path.
  Assembler Out, FragA, FragB;
  for (Assembler *Frag : {&FragA, &FragB}) {
    Frag->section(SecKind::Text).appendByte(0xC3);
    SymRef S = Frag->createSymbol("dup_fn", Linkage::External, true);
    Frag->defineSymbol(S, SecKind::Text, 0, 1);
  }
  Out.mergeFrom(FragA);
  EXPECT_FALSE(Out.hasError());
  Out.mergeFrom(FragB);
  EXPECT_TRUE(Out.hasError());
  EXPECT_NE(Out.errorMessage().find("dup_fn"), std::string_view::npos);
}

// --- Canonical ELF symbol order --------------------------------------------

TEST(Elf, SymbolTableOrderIsCanonicalAcrossInsertionOrders) {
  // The ELF writer must emit a symbol order that is a pure function of
  // the symbols' content: a serial compile registers module-order, the
  // parallel merge materializes first-reference-order — both must produce
  // byte-identical objects.
  auto Populate = [](Assembler &A, bool Reversed) {
    Section &T = A.section(SecKind::Text);
    for (int I = 0; I < 8; ++I)
      T.appendByte(0xC3);
    SymRef F1, F2;
    if (!Reversed) {
      F1 = A.createSymbol("alpha", Linkage::External, true);
      F2 = A.createSymbol("beta", Linkage::Internal, true);
    } else {
      F2 = A.createSymbol("beta", Linkage::Internal, true);
      F1 = A.createSymbol("alpha", Linkage::External, true);
    }
    A.defineSymbol(F1, SecKind::Text, 0, 4);
    A.defineSymbol(F2, SecKind::Text, 4, 4);
    SymRef Und = A.createSymbol("ext_ref", Linkage::External, true);
    A.addReloc(SecKind::Text, 0, RelocKind::PC32, Und, -4);
  };
  Assembler A, B;
  Populate(A, false);
  Populate(B, true);
  EXPECT_EQ(writeElfObject(A, ElfMachine::X86_64),
            writeElfObject(B, ElfMachine::X86_64))
      << "symbol insertion order leaked into the ELF image";
}

TEST(Elf, UnreferencedDeclarationsAreOmitted) {
  // An undefined symbol no relocation references carries no
  // linker-visible information; the dense paths register whole-module
  // tables, the sparse paths never create such entries — omitting them
  // makes both paths' objects identical.
  Assembler A, B;
  for (Assembler *X : {&A, &B}) {
    X->section(SecKind::Text).appendByte(0xC3);
    SymRef S = X->createSymbol("fn", Linkage::External, true);
    X->defineSymbol(S, SecKind::Text, 0, 1);
  }
  A.createSymbol("never_called", Linkage::External, true);
  EXPECT_EQ(writeElfObject(A, ElfMachine::X86_64),
            writeElfObject(B, ElfMachine::X86_64))
      << "unreferenced declaration leaked into the ELF image";
}
