//===- tests/codegen_golden_test.cpp - Emitted bytes pinned by digest -----===//
///
/// Byte identity across commits. The determinism suites compare a serial
/// compile with a parallel one inside one build; this test instead pins
/// the output itself. It compiles a fixed corpus and checks a 128-bit
/// digest of every full ELF image against recorded constants, so a
/// refactor that claims to change no emitted byte is checked against the
/// code it replaces. The digest function is defined here (ImageDigest),
/// not taken from support/Hash.h: the table pins emitted bytes, and a
/// change to the compile service's hasher leaves it valid.
///
/// Every TIR entry hashes three images: x64 serial, a64 serial and x64
/// parallel@4, compiled with the TIR fusions either on or off. Every UIR
/// entry hashes the x64 image of uir::compileTpdeUir.
///
/// The corpus is a pure function of its seeds, and so must the bytes be:
/// a digest that differs between host compilers (GCC vs clang) is a
/// determinism bug, typically an unspecified argument-evaluation order
/// with side effects, never a reason to record per-compiler digests.
/// After an intended codegen change, re-record the table from the
/// failure message, which prints every entry's actual digest.
///
//===----------------------------------------------------------------------===//

#include "asmx/ElfWriter.h"
#include "tir/Builder.h"
#include "tpde_tir/ParallelCompiler.h"
#include "tpde_tir/TirCompilerA64.h"
#include "tpde_tir/TirCompilerX64.h"
#include "uir/TpdeUir.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace tpde;

namespace {

struct Golden {
  const char *Name;
  u64 Hi, Lo;
};

// clang-format off
constexpr Golden Expected[] = {
    {"600.perlbench/O0/fused", 0x6f28c091363afa57ull, 0x54bf6ccf3b8b3aa9ull},
    {"600.perlbench/O0/unfused", 0x1281909d36309c35ull, 0x2f1e0ec97c526ba2ull},
    {"602.gcc/O0/fused", 0x53702ef5a3cfe00dull, 0x5d7a3f040155706dull},
    {"602.gcc/O0/unfused", 0xd35a152515fdff87ull, 0x08da4fdd198a5b18ull},
    {"605.mcf/O0/fused", 0x8dde31e6e40f6ba1ull, 0xc54d6844c3794481ull},
    {"605.mcf/O0/unfused", 0x2f212bdc06361164ull, 0xb0e706ba017b5cbeull},
    {"620.omnetpp/O0/fused", 0xb8ff004dc7be4759ull, 0xd25c3202b97e5d2bull},
    {"620.omnetpp/O0/unfused", 0x1e5e81ca48f31cf7ull, 0x2b5f3572e266e130ull},
    {"623.xalancbmk/O0/fused", 0x741ce925c864f1afull, 0x07ab5e6d4173b327ull},
    {"623.xalancbmk/O0/unfused", 0x74136590a647edd1ull, 0x07cadb648d820e80ull},
    {"625.x264/O0/fused", 0xbd60d3161197b3baull, 0x9e1a5948ed1caad6ull},
    {"625.x264/O0/unfused", 0x722df207e6fa535aull, 0x1c80de40999a757bull},
    {"631.deepsjeng/O0/fused", 0x6f3c115c6f6cbcd2ull, 0xb0f0e09b6a8272edull},
    {"631.deepsjeng/O0/unfused", 0x6a9aa3ea86f400d9ull, 0x9f8f95d71e607431ull},
    {"641.leela/O0/fused", 0xa187621b344cf02bull, 0x0153c894da503b15ull},
    {"641.leela/O0/unfused", 0xf932292a0ae89bd7ull, 0x80c4f963967c5962ull},
    {"657.xz/O0/fused", 0xa1f190470c45a025ull, 0x2185f9cf17324c3dull},
    {"657.xz/O0/unfused", 0x3d99120eaad4e4a6ull, 0x5d7b6ebc1e566f15ull},
    {"600.perlbench/O1/fused", 0x0c362c19f560de14ull, 0x23e2755a909031b3ull},
    {"600.perlbench/O1/unfused", 0xe86fc33632e18ec3ull, 0x2d58877b05752b17ull},
    {"602.gcc/O1/fused", 0xb40b3bfc59fbdd0bull, 0xc3632d80e2fc500full},
    {"602.gcc/O1/unfused", 0x8a972e39e0c93a99ull, 0x4fe20f1991a8575aull},
    {"605.mcf/O1/fused", 0x8516f5d8e35a9c44ull, 0x4ec53e8107a67cd6ull},
    {"605.mcf/O1/unfused", 0x16fe7e7d105b1180ull, 0x99ed12d5fd8d2170ull},
    {"620.omnetpp/O1/fused", 0xb15ff69ac3b5a869ull, 0x0e7cf97bda1b81a3ull},
    {"620.omnetpp/O1/unfused", 0x7c526e5f9ed8a19bull, 0x6284f4ce12e720f9ull},
    {"623.xalancbmk/O1/fused", 0x3456f3931269708cull, 0xad6f51e2ddbbf0d9ull},
    {"623.xalancbmk/O1/unfused", 0xfe72b2797d7c5d0aull, 0xa0ad3f75b106aa80ull},
    {"625.x264/O1/fused", 0x65e8b69dea96900full, 0xde611be41e65b6aeull},
    {"625.x264/O1/unfused", 0x411f73570bb7c667ull, 0x8eb7043306d41c9aull},
    {"631.deepsjeng/O1/fused", 0x4485c7de0e8d9daaull, 0x2853fb875061cff3ull},
    {"631.deepsjeng/O1/unfused", 0xa59b2910bcdf795eull, 0xfe86e62441bc10d8ull},
    {"641.leela/O1/fused", 0xe3b3978cdb9998a8ull, 0xb7c50f929ce373fdull},
    {"641.leela/O1/unfused", 0xbab8a77b1d4a38cfull, 0xb9be89c7f075518cull},
    {"657.xz/O1/fused", 0xa3e2362903520155ull, 0xb99bf981fffe97cbull},
    {"657.xz/O1/unfused", 0xcdc11e0e2faf36dcull, 0x926350371c348bdbull},
    {"gen0/fused", 0x2993449b2005032full, 0x556486e0259852e9ull},
    {"gen0/unfused", 0xf0b01fcb24fa973eull, 0xd222e78da749a245ull},
    {"gen1/fused", 0x4bc6fda574276f52ull, 0xd27a2ce8da653697ull},
    {"gen1/unfused", 0x385175d20caaf85dull, 0x0b169f324af98a4full},
    {"gen2/fused", 0x05d0de5e1bcdc1afull, 0xac8bfbebfd03d5b5ull},
    {"gen2/unfused", 0x19439966dcd25a95ull, 0x905fcd51872ecba2ull},
    {"gen3/fused", 0xb3f2cf5ebb0653d5ull, 0x43f86e6a13af1d89ull},
    {"gen3/unfused", 0x2b2643d5b3bd9025ull, 0x4ee75b5faa3c4089ull},
    {"gen4/fused", 0x8866414991d74a29ull, 0xc537645d9e773051ull},
    {"gen4/unfused", 0x5362d87b32f152f2ull, 0x4a0cb403ef46257aull},
    {"gen5/fused", 0x8ae4a0bf7204a36dull, 0x993c36ae8b6a94e0ull},
    {"gen5/unfused", 0xc30c432d08e2bdc9ull, 0xff3bc74e75b3c313ull},
    {"gen6/fused", 0x16927a8495127568ull, 0xe5667b797617ff7aull},
    {"gen6/unfused", 0x029fe043ae035308ull, 0x9c2fccbcc45f2cf6ull},
    {"gen7/fused", 0x70a3df6a812df6c7ull, 0x9dbe1165e64ab4b8ull},
    {"gen7/unfused", 0x71cffa1e17925ed9ull, 0x82ceed68ed3ec30aull},
    {"gen8/fused", 0xc7bdc2df3c35c7fdull, 0x580cb567960cdd2dull},
    {"gen8/unfused", 0xf30d9bd62e007750ull, 0x843725f74116158dull},
    {"gen9/fused", 0xdb2e16bd24cf6decull, 0xfe774bc88585b06dull},
    {"gen9/unfused", 0xd4198f8b11d624b3ull, 0x6259c763e3c64733ull},
    {"gen10/fused", 0x49b9b7c89917b809ull, 0x834b299e59e5a6c5ull},
    {"gen10/unfused", 0x75695fd86db89739ull, 0x1ad4ccba340cdb1bull},
    {"gen11/fused", 0x42f0d78f60701fc5ull, 0x13f10e25ae7b108cull},
    {"gen11/unfused", 0xfed0708403225750ull, 0x53e2f3aa1877ee7eull},
    {"gen12/fused", 0x91fe60aba2e81636ull, 0x63b0a332bf352ca1ull},
    {"gen12/unfused", 0x99d907fc079fb835ull, 0x8ab0ad30d28d5bbaull},
    {"gen13/fused", 0xc7bd9abf3f4eb0eaull, 0xcf3a8128b4415af8ull},
    {"gen13/unfused", 0xc3e69f429eb01b03ull, 0x6ef4fa00f199f389ull},
    {"gen14/fused", 0xb485beda16e02cc8ull, 0xa8d0b385c2906655ull},
    {"gen14/unfused", 0x369b2c7ed932cf9full, 0x021e308fa642989dull},
    {"gen15/fused", 0xe85db72d3d4244b7ull, 0x299dfbe32bc45d61ull},
    {"gen15/unfused", 0x85eb319527ce5ee2ull, 0x921df05fe14e1954ull},
    {"gen16/fused", 0x8a168e6252a278a8ull, 0xe70d1ea4c06a1fdbull},
    {"gen16/unfused", 0x6a3c94f9ec2841b9ull, 0x01fdddf1ec5978d8ull},
    {"gen17/fused", 0x58ffd2065382376bull, 0xb9c6a8277104306eull},
    {"gen17/unfused", 0xa6033c99dbb42a06ull, 0x8c648d6e0ab29e61ull},
    {"gen18/fused", 0x262f3da46511da32ull, 0x69cc0ae4418aa2d5ull},
    {"gen18/unfused", 0x8f3227dfa802a951ull, 0xc43e620acc030be8ull},
    {"gen19/fused", 0x8c56c5ee095f6a98ull, 0x27d981486be9a600ull},
    {"gen19/unfused", 0xe2c7215b60195257ull, 0x76e315e7a44c572eull},
    {"gen20/fused", 0xa922630262280ae1ull, 0xc2cc4f35781ca5d1ull},
    {"gen20/unfused", 0xf187a39c02ae4c7eull, 0x4f7b4b5b77a9cd2dull},
    {"gen21/fused", 0xfcb03b47fab79d8full, 0x392732690b252e71ull},
    {"gen21/unfused", 0x98e91bca0fadbf59ull, 0xb233358f8bfbc48cull},
    {"gen22/fused", 0x523637585f7c8c21ull, 0xe22665cf3fae09b6ull},
    {"gen22/unfused", 0x64f00d3506e777d5ull, 0x8dfe2084a1f101b8ull},
    {"gen23/fused", 0xed6ff5b34f8a9993ull, 0xc874a99e4c1b44b6ull},
    {"gen23/unfused", 0x4bdb2863a1fcdc0full, 0x30d52569c3ff3ec8ull},
    {"gen24/fused", 0x7f046561830ec74eull, 0xe00615f133720836ull},
    {"gen24/unfused", 0xcae88f3100509448ull, 0x2edc129d34f8154full},
    {"gen25/fused", 0x5564ea9159951e37ull, 0x485cf1f66cd38b91ull},
    {"gen25/unfused", 0x7ffa651fe72dfa6bull, 0x99ca9d8cf5cd470cull},
    {"gen26/fused", 0x730907db6b03a6dcull, 0xa759832d690c0c4eull},
    {"gen26/unfused", 0x7ea1e3734ff42891ull, 0x4a8a5da61a843cb9ull},
    {"gen27/fused", 0xcb8ad81c338a4307ull, 0xa70afde73181cb96ull},
    {"gen27/unfused", 0x0e78754b79ad15e6ull, 0x1498a424f84312e5ull},
    {"gen28/fused", 0x4b6ad1e1c88646d8ull, 0x993bf117af3bfe85ull},
    {"gen28/unfused", 0xeda2c30a77635dafull, 0x2dd5545af81ee8c4ull},
    {"gen29/fused", 0xe09fee9dd1918bc1ull, 0x01d51090f40b3698ull},
    {"gen29/unfused", 0xcb8a966cb79e7665ull, 0x699407320dbb3b49ull},
    {"gen30/fused", 0x8c36639cbf0a8d29ull, 0xda636f771daf3d21ull},
    {"gen30/unfused", 0x82d732bedc9d589bull, 0x16f527df6b42e00full},
    {"gen31/fused", 0x38d1d82877e149afull, 0x798591273a4e6974ull},
    {"gen31/unfused", 0x384bc1d5b1a12068ull, 0x3cf204dbcf6080ecull},
    {"gen32/fused", 0x8dece059e19f6c3full, 0x8ee48609bc26d66full},
    {"gen32/unfused", 0x89ce9c1e64854c52ull, 0x84c678aed98ac5b5ull},
    {"gen33/fused", 0x1022a56a2e45bdf2ull, 0x832029cc982640fcull},
    {"gen33/unfused", 0xcbf3e03949efcd89ull, 0xfce8dec76dc41096ull},
    {"gen34/fused", 0xd2b46c0e67fca475ull, 0x35ee8fc16089771aull},
    {"gen34/unfused", 0x3a0d305ef61292d3ull, 0xa3756a08c20bb221ull},
    {"gen35/fused", 0x804b42d39cf38abdull, 0x40b4b4196aeef214ull},
    {"gen35/unfused", 0xbe81461129e73e58ull, 0xabe1444d811f3ecfull},
    {"gen36/fused", 0x408c0d035b4bf8ffull, 0x2739fc094971ce75ull},
    {"gen36/unfused", 0x2bcd552842322b88ull, 0x4a7292d247cf838bull},
    {"gen37/fused", 0x52e3930ac300b5faull, 0x043f56c92c2dc4c0ull},
    {"gen37/unfused", 0xc775bd102ff377eeull, 0xa5916c6ec732702aull},
    {"gen38/fused", 0x3db6d59190dba1e2ull, 0x9ef422d060abc10full},
    {"gen38/unfused", 0x9b90ea3dda1aec55ull, 0xc1e315429659c29aull},
    {"gen39/fused", 0x9eb955d353d138e9ull, 0x73045503882022abull},
    {"gen39/unfused", 0xc91d24bae46e33ffull, 0xfb7ce383c130c053ull},
    {"mixed_call/fused", 0x57f1cc64bf15770bull, 0xd5a42966f5f6c452ull},
    {"mixed_call/unfused", 0xec975ff855704d3full, 0x24822910f0ca99ffull},
    {"query1", 0x92c7c7363a63c525ull, 0xc8158a3dfb3bf0cdull},
    {"query2", 0x174698da1bc333f4ull, 0x67e0c95cc8e87a0aull},
    {"query3", 0xb851875b0d17c72dull, 0x9c4498871d5f0838ull},
    {"query4", 0x3a227b79f9d07eb9ull, 0x8e77b01c888ff48dull},
    {"tpcds_like", 0x6989d48f76d1cfa1ull, 0x84d631168f0be7fcull},
};
// clang-format on

struct Entry {
  std::string Name;
  u64 Hi, Lo;
};

/// The digest the table was recorded with: two 64-bit lanes fed one byte
/// per step (FNV-1a, and an xxhash-style rotate-multiply round), lengths
/// fed as 8 little-endian bytes, and a splitmix64 finalizer over each
/// lane and the byte count.
class ImageDigest {
public:
  void bytes(const u8 *P, size_t N) {
    for (size_t I = 0; I < N; ++I) {
      A = (A ^ P[I]) * 0x100000001b3ull;
      B = rotl(B + P[I] * 0xc2b2ae3d27d4eb4full, 31) * 0x9e3779b185ebca87ull;
    }
    Len += N;
  }
  void len(u64 N) {
    u8 Le[8];
    for (unsigned I = 0; I < 8; ++I)
      Le[I] = static_cast<u8>(N >> (8 * I));
    bytes(Le, 8);
  }
  void str(std::string_view S) {
    len(S.size());
    bytes(reinterpret_cast<const u8 *>(S.data()), S.size());
  }
  u64 hi() const { return splitmix64(A ^ (Len * 0xff51afd7ed558ccdull)); }
  u64 lo() const { return splitmix64(B + Len); }

private:
  static u64 rotl(u64 X, unsigned R) { return (X << R) | (X >> (64 - R)); }
  static u64 splitmix64(u64 X) {
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ull;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebull;
    X ^= X >> 31;
    return X;
  }

  u64 A = 0xcbf29ce484222325ull;
  u64 B = 0x27d4eb2f165667c5ull;
  u64 Len = 0;
};

/// tpde_tir::DisableFusion is a process global: set it for one scope and
/// restore the previous value afterwards.
class FusionScope {
public:
  explicit FusionScope(bool Disable) : Saved(tpde_tir::DisableFusion) {
    tpde_tir::DisableFusion = Disable;
  }
  ~FusionScope() { tpde_tir::DisableFusion = Saved; }

private:
  bool Saved;
};

void hashImage(ImageDigest &H, bool Compiled,
               const asmx::Assembler &Asm, asmx::ElfMachine Machine) {
  if (!Compiled) {
    H.str("compile failed");
    return;
  }
  std::vector<u8> Elf = asmx::writeElfObject(Asm, Machine);
  H.len(Elf.size());
  H.bytes(Elf.data(), Elf.size());
}

void addTirEntries(std::vector<Entry> &Out, const std::string &Name,
                   tir::Module &M) {
  for (bool Fused : {true, false}) {
    FusionScope Scope(!Fused);
    ImageDigest H;
    asmx::Assembler X64, A64, Par;
    bool OK = tpde_tir::compileModuleX64(M, X64);
    EXPECT_TRUE(OK) << Name << ": x64 compile failed";
    hashImage(H, OK, X64, asmx::ElfMachine::X86_64);
    OK = tpde_tir::compileModuleA64(M, A64);
    EXPECT_TRUE(OK) << Name << ": a64 compile failed";
    hashImage(H, OK, A64, asmx::ElfMachine::AArch64);
    OK = tpde_tir::compileModuleX64Parallel(M, Par, 4);
    EXPECT_TRUE(OK) << Name << ": x64 parallel@4 compile failed";
    hashImage(H, OK, Par, asmx::ElfMachine::X86_64);
    Out.push_back({Name + (Fused ? "/fused" : "/unfused"), H.hi(), H.lo()});
  }
}

void addUirEntry(std::vector<Entry> &Out, const std::string &Name,
                 uir::UModule &M) {
  ImageDigest H;
  asmx::Assembler Asm;
  bool OK = uir::compileTpdeUir(M, Asm);
  EXPECT_TRUE(OK) << Name << ": compile failed";
  hashImage(H, OK, Asm, asmx::ElfMachine::X86_64);
  Out.push_back({Name, H.hi(), H.lo()});
}

/// A caller that passes ten mixed i64/f64/i128 arguments, so both targets
/// run out of GP argument registers and place whole i128 values on the
/// stack, and then calls an external function that returns i128.
void buildMixedCallModule(tir::Module &M) {
  using namespace tir;
  u32 Ext = declareFunc(M, "ext_wide", Type::I128, {Type::I128, Type::F64});
  const Type Kinds[3] = {Type::I64, Type::F64, Type::I128};
  std::vector<Type> Params;
  for (u32 I = 0; I < 10; ++I)
    Params.push_back(Kinds[I % 3]);

  u32 Callee;
  {
    FunctionBuilder B(M, "mix10", Type::I64, Params);
    Callee = B.funcIndex();
    B.setInsertPoint(B.addBlock());
    ValRef Acc = B.constInt(Type::I64, 7);
    for (u32 I = 0; I < Params.size(); ++I) {
      ValRef A = B.arg(I);
      ValRef Part;
      if (Params[I] == Type::F64) {
        Part = B.cast(Op::Bitcast, Type::I64, A);
      } else if (Params[I] == Type::I128) {
        ValRef Hi = B.binop(Op::LShr, A, B.constInt(Type::I128, 64));
        ValRef HiLo = B.cast(Op::Trunc, Type::I64, Hi);
        Part = B.binop(Op::Xor, B.cast(Op::Trunc, Type::I64, A), HiLo);
      } else {
        Part = A;
      }
      ValRef Scaled = B.binop(Op::Mul, Acc, B.constInt(Type::I64, 31));
      Acc = B.binop(Op::Add, Scaled, Part);
    }
    B.ret(Acc);
    B.finish();
  }

  FunctionBuilder B(M, "caller", Type::I64, {Type::I64, Type::I64});
  B.setInsertPoint(B.addBlock());
  std::vector<ValRef> Args;
  for (u32 I = 0; I < Params.size(); ++I) {
    ValRef Seed = B.binop(Op::Add, B.arg(I % 2), B.constInt(Type::I64, I));
    if (Params[I] == Type::F64) {
      Args.push_back(B.cast(Op::SiToFp, Type::F64, Seed));
    } else if (Params[I] == Type::I128) {
      ValRef Lo = B.cast(Op::Zext, Type::I128, Seed);
      ValRef Hi = B.cast(Op::Zext, Type::I128, B.arg(1 - I % 2));
      ValRef Wide = B.binop(Op::Shl, Hi, B.constInt(Type::I128, 64));
      Args.push_back(B.binop(Op::Or, Wide, Lo));
    } else {
      Args.push_back(Seed);
    }
  }
  ValRef Sum = B.call(Callee, Type::I64, Args);
  ValRef W = B.call(Ext, Type::I128, {Args[2], Args[1]});
  ValRef WHi = B.binop(Op::LShr, W, B.constInt(Type::I128, 64));
  // One builder call per statement: argument evaluation order is
  // unspecified, and the order of appended values is the module.
  ValRef WLo64 = B.cast(Op::Trunc, Type::I64, W);
  ValRef WHi64 = B.cast(Op::Trunc, Type::I64, WHi);
  ValRef Fold = B.binop(Op::Xor, WLo64, WHi64);
  B.ret(B.binop(Op::Add, Sum, Fold));
  B.finish();
}

std::vector<Entry> compileCorpus() {
  std::vector<Entry> Out;
  for (bool O0 : {true, false}) {
    for (const workloads::NamedProfile &NP : workloads::specLikeProfiles(O0)) {
      tir::Module M;
      workloads::genModule(M, NP.P);
      addTirEntries(Out, std::string(NP.Name) + (O0 ? "/O0" : "/O1"), M);
    }
  }
  for (u32 S = 0; S < 40; ++S) {
    workloads::Profile P;
    P.Seed = 9000 + S;
    P.NumFuncs = 3 + S % 4;
    P.SSAForm = S % 2 == 0;
    P.I128Pct = (S % 5) * 6;
    P.FloatPct = (S % 3) * 10;
    P.CallPct = (S % 4) * 5;
    P.NarrowPct = (S % 7) * 7;
    tir::Module M;
    workloads::genModule(M, P);
    addTirEntries(Out, "gen" + std::to_string(S), M);
  }
  {
    tir::Module M;
    buildMixedCallModule(M);
    addTirEntries(Out, "mixed_call", M);
  }
  for (u32 S = 1; S <= 4; ++S) {
    workloads::QueryProfile QP;
    QP.Seed = S;
    QP.NumQueries = 12;
    uir::UModule M;
    workloads::genQueryModule(M, QP);
    addUirEntry(Out, "query" + std::to_string(S), M);
  }
  {
    uir::UModule M;
    for (const uir::QueryPlan &P : uir::tpcdsLikePlans())
      uir::compilePlan(M, P);
    addUirEntry(Out, "tpcds_like", M);
  }
  return Out;
}

std::string formatTable(const std::vector<Entry> &Entries) {
  std::string S;
  char Line[160];
  for (const Entry &E : Entries) {
    std::snprintf(Line, sizeof(Line),
                  "    {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},\n",
                  E.Name.c_str(), E.Hi, E.Lo);
    S += Line;
  }
  return S;
}

} // namespace

TEST(CodegenGolden, FullElfDigestsMatchRecorded) {
  const bool SavedFusion = tpde_tir::DisableFusion;
  std::vector<Entry> Actual = compileCorpus();
  EXPECT_EQ(tpde_tir::DisableFusion, SavedFusion)
      << "the corpus must leave the process-global fusion switch as found";

  const size_t NumExpected = sizeof(Expected) / sizeof(Expected[0]);
  size_t Mismatches = 0;
  for (size_t I = 0; I < Actual.size(); ++I) {
    const Entry &A = Actual[I];
    bool Same = I < NumExpected && A.Name == Expected[I].Name &&
                A.Hi == Expected[I].Hi && A.Lo == Expected[I].Lo;
    if (!Same)
      ++Mismatches;
  }
  EXPECT_EQ(Actual.size(), NumExpected) << "corpus size changed";
  EXPECT_EQ(Mismatches, 0u)
      << Mismatches << " of " << Actual.size()
      << " digests differ from the recorded ones. Actual digests:\n"
      << formatTable(Actual);
}
