//===- tests/service_test.cpp - Compile service & code cache --------------===//
///
/// The serving-layer suite (docs/SERVICE.md):
///
///  * Cache correctness: a cache hit returns byte-identical mapped code
///    to a fresh compile — for the UIR and the TIR/x64 paths — and the
///    service compile itself matches a solo compile byte for byte, for
///    queued jobs of different shapes compiled back to back by one
///    worker (core::ParallelModuleCompiler::compile on a replaced
///    module).
///  * Fingerprints: sensitive to every content field (each bit of every
///    hashed field moves the digest, and no two fields share one), and
///    insensitive to the adapter scratch slots compilation mutates and to
///    debug names.
///  * Single-flight: concurrent producers of one fingerprint trigger
///    exactly one compile; everyone shares the published code.
///  * Eviction: the byte budget is enforced by epoch-LRU eviction, and
///    an evicted fingerprint recompiles correctly.
///  * Robustness: a malformed job is rejected at admission with a
///    structured diagnostic; an uncompilable job fails alone while the
///    jobs queued beside it are served; a self-conflicting job fails with
///    its solo compile's status; a job that fails to map is compiled once
///    per submit and never cached; an owner that runs out of memory
///    admitting its job releases its claim, a job that runs out of memory
///    on the worker fails alone with OutOfMemory while the worker goes on
///    serving (and every job it serves matches its solo compile), and a
///    completion that cannot copy its diagnostic's text keeps the code.
///  * Support primitives: latency histogram quantiles; hasher length
///    and boundary cases.
///  * Allocation: a cache hit allocates only its result handle and the
///    verifier's scratch (docs/PERF.md).
///  * Overload control (docs/SERVICE.md, "Overload control"): admission
///    queue unit tests (capacity, arrival order, close and drain,
///    bounded-wait admission), structured Overloaded / ServiceShutdown /
///    DeadlineExceeded errors, deadline shed for queued jobs and
///    independent waiter timeout, and a flooded service across worker
///    counts — with one producer, with self-conflicting jobs among the
///    good ones, and with four producers: every submission completes with
///    one label, the counters conserve jobs, and served code matches its
///    module's solo compile.
///
//===----------------------------------------------------------------------===//

#include "service/Admission.h"
#include "support/AllocCounter.h"
#include "support/Histogram.h"
#include "support/Rng.h"
#include "tir/Builder.h"
#include "tpde_tir/Service.h"
#include "uir/Service.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>
#include <vector>

TPDE_INSTALL_ALLOC_COUNTER

using namespace tpde;
using support::CompileErr;
using support::Fp128;

namespace {

// --- helpers ---------------------------------------------------------------

/// A single-query UIR module; \p Variant perturbs the plan so distinct
/// variants have distinct content (and fingerprints).
uir::UModule makeQueryModule(const std::string &Name, u32 Variant) {
  uir::QueryPlan P;
  P.Name = Name;
  P.Preds = {{1, uir::UOp::CmpLt, 200 + static_cast<i64>(Variant)},
             {2, uir::UOp::CmpNe, 77}};
  P.AggColA = 0;
  P.AggColB = 3;
  P.AggK = static_cast<i64>(Variant);
  uir::UModule M;
  uir::compilePlan(M, P);
  return M;
}

uir::QueryPlan planOf(const std::string &Name, u32 Variant) {
  uir::QueryPlan P;
  P.Name = Name;
  P.Preds = {{1, uir::UOp::CmpLt, 200 + static_cast<i64>(Variant)},
             {2, uir::UOp::CmpNe, 77}};
  P.AggColA = 0;
  P.AggColB = 3;
  P.AggK = static_cast<i64>(Variant);
  return P;
}

/// A generated TIR module with every function name prefixed so several
/// jobs define distinct symbols (calls reference functions by index, so
/// renaming is content-neutral for codegen).
tir::Module makeTirJob(u64 Seed, u32 NumFuncs, const std::string &Prefix) {
  tir::Module M;
  workloads::Profile P;
  P.Seed = Seed;
  P.NumFuncs = NumFuncs;
  P.SSAForm = true;
  P.CallPct = 12;
  workloads::genModule(M, P);
  for (tir::Function &F : M.Funcs)
    F.Name = Prefix + "_" + F.Name;
  return M;
}

/// Makes one function uncompilable (Op::None) but verifier-clean, as in
/// robustness_test.cpp.
void sabotageTir(tir::Module &M, u32 FuncIdx) {
  for (tir::Value &V : M.Funcs[FuncIdx].Values)
    if (V.Kind == tir::ValKind::Inst && V.Opcode == tir::Op::Add) {
      V.Opcode = tir::Op::None;
      return;
    }
  FAIL() << "no Add to sabotage in function " << FuncIdx;
}

std::vector<u8> mappedText(const service::CachedCode &C) {
  auto T = C.textBytes();
  return {T.begin(), T.end()};
}

/// Fresh solo compile + map of a UIR module; returns the mapped text.
std::vector<u8> soloUirMappedText(uir::UModule M) {
  asmx::Assembler Asm;
  EXPECT_TRUE(uir::compileTpdeUir(M, Asm));
  asmx::JITMapper JIT;
  EXPECT_TRUE(JIT.map(Asm));
  const u8 *Base = JIT.sectionBase(asmx::SecKind::Text);
  return {Base, Base + Asm.text().size()};
}

std::vector<u8> soloTirMappedText(tir::Module M) {
  asmx::Assembler Asm;
  EXPECT_TRUE(tpde_tir::compileModuleX64(M, Asm));
  asmx::JITMapper JIT;
  EXPECT_TRUE(JIT.map(Asm));
  const u8 *Base = JIT.sectionBase(asmx::SecKind::Text);
  return {Base, Base + Asm.text().size()};
}

using QueryFn = i64 (*)(const i64 *const *, i64);

/// Digests of one module and of single-field variants of it. Every
/// digest must differ from every other: a field the fingerprint drops
/// leaves its variants equal to the original, and two fields packed over
/// the same bits make two variants equal.
class VariantDigests {
public:
  explicit VariantDigests(Fp128 Original) { add(Original, "the original"); }

  void add(Fp128 D, std::string What) {
    All.push_back({D, std::move(What)});
  }

  void expectAllDistinct() {
    std::sort(All.begin(), All.end(), [](const Item &X, const Item &Y) {
      return X.D.Hi != Y.D.Hi ? X.D.Hi < Y.D.Hi : X.D.Lo < Y.D.Lo;
    });
    size_t Shared = 0;
    for (size_t I = 1; I < All.size(); ++I)
      if (All[I].D == All[I - 1].D && ++Shared <= 10)
        ADD_FAILURE() << All[I - 1].What << " and " << All[I].What
                      << " share a digest";
    EXPECT_EQ(Shared, 0u) << "of " << All.size() << " digests";
  }

private:
  struct Item {
    Fp128 D;
    std::string What;
  };
  std::vector<Item> All;
};

/// An integer field's bits, or an enum field's underlying bits.
template <typename T> auto bitsOf(T V) {
  if constexpr (std::is_enum_v<T>)
    return static_cast<std::underlying_type_t<T>>(V);
  else
    return V;
}

/// Records the digest of each one-bit flip of \p Field, then restores it.
template <typename T, typename DigestFn>
void flipEachBit(VariantDigests &V, T &Field, const std::string &What,
                 const DigestFn &Digest) {
  using Bits = decltype(bitsOf(Field));
  const T Saved = Field;
  for (unsigned B = 0; B < 8 * sizeof(T); ++B) {
    Field = static_cast<T>(static_cast<Bits>(bitsOf(Saved) ^ (Bits{1} << B)));
    V.add(Digest(), What + " bit " + std::to_string(B));
  }
  Field = Saved;
}

/// Flips each bit of every entry of \p L, then appends one entry.
template <typename DigestFn>
void varyList(VariantDigests &V, std::vector<u32> &L, const std::string &What,
              const DigestFn &Digest) {
  for (size_t K = 0; K < L.size(); ++K)
    flipEachBit(V, L[K], What + "[" + std::to_string(K) + "]", Digest);
  L.push_back(0);
  V.add(Digest(), What + " appended");
  L.pop_back();
}

} // namespace

// --- support primitives ----------------------------------------------------

TEST(LatencyHistogram, QuantilesAreConservativeUpperBounds) {
  support::LatencyHistogram H;
  for (u64 I = 1; I <= 1000; ++I)
    H.record(I * 1000); // 1us .. 1ms
  EXPECT_EQ(H.count(), 1000u);
  u64 P50 = H.quantileNs(0.50);
  u64 P99 = H.quantileNs(0.99);
  EXPECT_GE(P50, 500'000u) << "p50 must not under-report";
  EXPECT_LE(P50, 500'000u + 500'000u / 8) << "within one sub-bucket width";
  EXPECT_GE(P99, 990'000u);
  EXPECT_LE(P99, 990'000u + 990'000u / 8);
  EXPECT_LE(P50, P99);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantileNs(0.5), 0u);

  // Fractional ranks round up (nearest rank = ceil(Q * N)); the
  // 1,000-sample case above only has whole-number ranks.
  for (u64 Ns : {u64{10}, u64{1'000}, u64{100'000}})
    H.record(Ns);
  EXPECT_GE(H.quantileNs(0.50), 1'000u) << "rank ceil(1.5) = 2 is 1us";
  EXPECT_LE(H.quantileNs(0.50), 1'000u + 1'000u / 8);
  H.reset();
  for (int I = 0; I < 148; ++I)
    H.record(100);
  H.record(1'000'000);
  H.record(1'000'000);
  EXPECT_GE(H.quantileNs(0.99), 1'000'000u) << "rank ceil(148.5) = 149 is 1ms";
}

// --- fingerprints ----------------------------------------------------------

TEST(Fingerprint, UirSensitiveToContentInsensitiveToScratch) {
  uir::UModule A = makeQueryModule("q", 1);
  uir::UModule B = makeQueryModule("q", 1);
  EXPECT_EQ(uir::fingerprintModule(A), uir::fingerprintModule(B))
      << "same content, same fingerprint";
  uir::UModule C = makeQueryModule("q", 2);
  EXPECT_NE(uir::fingerprintModule(A), uir::fingerprintModule(C))
      << "a changed constant must change the fingerprint";
  uir::UModule D = makeQueryModule("r", 1);
  EXPECT_NE(uir::fingerprintModule(A), uir::fingerprintModule(D))
      << "the query name is part of the content (it names the symbol)";

  // Compilation writes the adapter scratch slot (UBlock::Aux); the
  // fingerprint must not see it, or a compiled module would never hit.
  Fp128 Before = uir::fingerprintModule(A);
  asmx::Assembler Asm;
  ASSERT_TRUE(uir::compileTpdeUir(A, Asm));
  EXPECT_EQ(uir::fingerprintModule(A), Before)
      << "fingerprint must be stable across compilation";
}

TEST(Fingerprint, TirInsensitiveToDebugNamesAndScratch) {
  tir::Module A = makeTirJob(5, 4, "fp");
  Fp128 Before = tpde_tir::fingerprintModule(A);

  tir::Module B = makeTirJob(5, 4, "fp");
  B.Funcs[0].setValueName(2, "debug_name");
  B.Funcs[1].Blocks[0].Name = "entry_renamed";
  EXPECT_EQ(tpde_tir::fingerprintModule(B), Before)
      << "debug names are not content";

  asmx::Assembler Asm;
  ASSERT_TRUE(tpde_tir::compileModuleX64(A, Asm));
  EXPECT_EQ(tpde_tir::fingerprintModule(A), Before)
      << "fingerprint must be stable across compilation";

  tir::Module C = makeTirJob(6, 4, "fp");
  EXPECT_NE(tpde_tir::fingerprintModule(C), Before);
}

TEST(Fingerprint, HasherLengthAndBoundaryCases) {
  // bytes() pads its tail word with zeros; only the length tells runs of
  // 0..17 zero bytes apart, across the one- and two-word boundaries.
  const u8 Zeros[17] = {};
  support::Hasher128 Empty;
  VariantDigests V(Empty.digest());
  for (size_t N = 1; N <= sizeof(Zeros); ++N) {
    support::Hasher128 H;
    H.bytes(Zeros, N);
    V.add(H.digest(), std::to_string(N) + " zero bytes");
  }
  V.expectAllDistinct();

  support::Hasher128 X, Y;
  X.str("ab");
  X.str("c");
  Y.str("a");
  Y.str("bc");
  EXPECT_NE(X.digest(), Y.digest()) << "string boundaries are content";
}

TEST(Fingerprint, UirEveryFieldMovesTheDigest) {
  workloads::QueryProfile QP;
  QP.Seed = 31;
  QP.NumQueries = 3;
  std::vector<uir::UModule> Mods;
  for (const uir::QueryPlan &P : workloads::genQueryPlans(QP)) {
    Mods.emplace_back();
    uir::compilePlan(Mods.back(), P);
  }
  Mods.push_back(makeQueryModule("fields", 5));

  for (uir::UModule &M : Mods) {
    const auto Fp = [&M] { return uir::fingerprintModule(M); };
    const Fp128 Original = Fp();
    VariantDigests V(Original);
    for (uir::UFunc &F : M.Funcs) {
      for (size_t I = 0; I < F.Vals.size(); ++I) {
        uir::UInst &In = F.Vals[I];
        const std::string At = F.Name + " value " + std::to_string(I) + " ";
        flipEachBit(V, In.Op, At + "Op", Fp);
        flipEachBit(V, In.Ty, At + "Ty", Fp);
        flipEachBit(V, In.Ops[0], At + "Ops[0]", Fp);
        flipEachBit(V, In.Ops[1], At + "Ops[1]", Fp);
        flipEachBit(V, In.Aux, At + "Aux", Fp);
        flipEachBit(V, In.Block, At + "Block", Fp);
        flipEachBit(V, In.InBlock[0], At + "InBlock[0]", Fp);
        flipEachBit(V, In.InBlock[1], At + "InBlock[1]", Fp);
        flipEachBit(V, In.InVal[0], At + "InVal[0]", Fp);
        flipEachBit(V, In.InVal[1], At + "InVal[1]", Fp);
      }
      for (size_t B = 0; B < F.Blocks.size(); ++B) {
        uir::UBlock &Blk = F.Blocks[B];
        const std::string At = F.Name + " block " + std::to_string(B) + " ";
        varyList(V, Blk.Phis, At + "Phis", Fp);
        varyList(V, Blk.Insts, At + "Insts", Fp);
        varyList(V, Blk.Succs, At + "Succs", Fp);
        Blk.Aux ^= 1;
        EXPECT_EQ(Fp(), Original) << At << "Aux is scratch, not content";
        Blk.Aux ^= 1;
      }
      flipEachBit(V, F.NumArgs, F.Name + " NumArgs", Fp);
      F.Name += "x";
      V.add(Fp(), F.Name + " (name lengthened)");
      F.Name.pop_back();
    }
    EXPECT_EQ(Fp(), Original) << "every variant was undone";
    V.expectAllDistinct();
  }
}

TEST(Fingerprint, TirEveryFieldMovesTheDigest) {
  // A small SSA module (phis, calls, the generator's initialized global)
  // plus one -O0-flavored function (stack variables).
  tir::Module M;
  workloads::Profile P;
  P.Seed = 77;
  P.NumFuncs = 2;
  P.RegionBudget = 3;
  P.InstsPerBlock = 4;
  P.CallPct = 20;
  workloads::genModule(M, P);
  P.SSAForm = false;
  workloads::genFunction(M, "o0_fn", P);

  const auto Fp = [&M] { return tpde_tir::fingerprintModule(M); };
  const Fp128 Original = Fp();
  // A flipped opcode may turn a value into a phi, which reads the phi
  // block pool at its operand positions: pad the pool to the operand
  // pool's size. Entries at non-phi positions are not content.
  for (tir::Function &F : M.Funcs)
    F.PhiBlockPool.resize(F.OperandPool.size(), tir::InvalidRef);
  ASSERT_EQ(Fp(), Original) << "phi pool padding is not content";

  VariantDigests V(Original);
  bool SawPhi = false;
  for (tir::Function &F : M.Funcs) {
    const std::string Fn = F.Name + " ";
    for (size_t I = 0; I < F.Values.size(); ++I) {
      tir::Value &Val = F.Values[I];
      const std::string At = Fn + "value " + std::to_string(I) + " ";
      flipEachBit(V, Val.Kind, At + "Kind", Fp);
      flipEachBit(V, Val.Opcode, At + "Opcode", Fp);
      flipEachBit(V, Val.Ty, At + "Ty", Fp);
      flipEachBit(V, Val.Block, At + "Block", Fp);
      flipEachBit(V, Val.Aux, At + "Aux", Fp);
      flipEachBit(V, Val.Aux2, At + "Aux2", Fp);
      // NumOps bounds the operand read: only clear its set bits.
      for (unsigned B = 0; B < 32; ++B) {
        if (!(Val.NumOps >> B & 1))
          continue;
        Val.NumOps ^= 1u << B;
        V.add(Fp(), At + "NumOps bit " + std::to_string(B));
        Val.NumOps ^= 1u << B;
      }
      for (u32 K = 0; K < Val.NumOps; ++K) {
        const std::string Op = At + "operand " + std::to_string(K);
        flipEachBit(V, F.OperandPool[Val.OpBegin + K], Op, Fp);
        if (Val.Opcode != tir::Op::Phi)
          continue;
        SawPhi = true;
        flipEachBit(V, F.PhiBlockPool[Val.OpBegin + K], Op + " phi block", Fp);
      }
    }
    for (size_t B = 0; B < F.Blocks.size(); ++B) {
      tir::Block &Blk = F.Blocks[B];
      const std::string At = Fn + "block " + std::to_string(B) + " ";
      varyList(V, Blk.Phis, At + "Phis", Fp);
      varyList(V, Blk.Insts, At + "Insts", Fp);
      varyList(V, Blk.Succs, At + "Succs", Fp);
      Blk.Aux ^= 1;
      EXPECT_EQ(Fp(), Original) << At << "Aux is scratch, not content";
      Blk.Aux ^= 1;
    }
    varyList(V, F.Args, Fn + "Args", Fp);
    varyList(V, F.StackVars, Fn + "StackVars", Fp);
    for (size_t K = 0; K < F.ParamTys.size(); ++K)
      flipEachBit(V, F.ParamTys[K], Fn + "ParamTys[" + std::to_string(K) + "]",
                  Fp);
    F.ParamTys.push_back(tir::Type::I64);
    V.add(Fp(), Fn + "ParamTys appended");
    F.ParamTys.pop_back();
    flipEachBit(V, F.Link, Fn + "Link", Fp);
    flipEachBit(V, F.RetTy, Fn + "RetTy", Fp);
    F.IsDeclaration = !F.IsDeclaration;
    V.add(Fp(), Fn + "IsDeclaration");
    F.IsDeclaration = !F.IsDeclaration;
    F.Name += "x";
    V.add(Fp(), Fn + "(name lengthened)");
    F.Name.pop_back();
  }
  EXPECT_TRUE(SawPhi) << "the module must exercise phi blocks";
  EXPECT_FALSE(M.Funcs.back().StackVars.empty())
      << "the module must exercise stack variables";

  ASSERT_FALSE(M.Globals.empty());
  tir::Global &G = M.Globals[0];
  ASSERT_FALSE(G.Init.empty());
  for (size_t K = 0; K < G.Init.size(); ++K)
    flipEachBit(V, G.Init[K], "global Init[" + std::to_string(K) + "]", Fp);
  G.Init.push_back(0);
  V.add(Fp(), "global Init appended");
  G.Init.pop_back();
  flipEachBit(V, G.Size, "global Size", Fp);
  flipEachBit(V, G.Align, "global Align", Fp);
  flipEachBit(V, G.Link, "global Link", Fp);
  G.ReadOnly = !G.ReadOnly;
  V.add(Fp(), "global ReadOnly");
  G.ReadOnly = !G.ReadOnly;
  G.Defined = !G.Defined;
  V.add(Fp(), "global Defined");
  G.Defined = !G.Defined;
  G.Name += "x";
  V.add(Fp(), "global name lengthened");
  G.Name.pop_back();

  EXPECT_EQ(Fp(), Original) << "every variant was undone";
  V.expectAllDistinct();
}

// --- cache correctness -----------------------------------------------------

TEST(ServiceCache, UirHitIsByteIdenticalToFreshCompile) {
  std::vector<u8> Solo = soloUirMappedText(makeQueryModule("svc_q0", 3));

  uir::UirCompileService Svc({.NumWorkers = 1});
  auto Miss = Svc.submit(makeQueryModule("svc_q0", 3));
  Miss->wait();
  ASSERT_TRUE(Miss->ok()) << Miss->status().Message;
  EXPECT_FALSE(Miss->hit());
  EXPECT_EQ(mappedText(*Miss->code()), Solo)
      << "service-compiled code must match a solo compile byte for byte";

  auto Hit = Svc.submit(makeQueryModule("svc_q0", 3));
  Hit->wait();
  ASSERT_TRUE(Hit->ok());
  EXPECT_TRUE(Hit->hit());
  EXPECT_EQ(Hit->code().get(), Miss->code().get())
      << "a hit shares the published mapping";
  EXPECT_EQ(mappedText(*Hit->code()), Solo);

  // The served code executes correctly.
  uir::Table T(6, 10'000, /*Seed=*/11);
  auto *Q = reinterpret_cast<QueryFn>(Hit->address("svc_q0"));
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q(T.ColPtrs.data(), static_cast<i64>(T.Rows)),
            uir::evalPlan(planOf("svc_q0", 3), T));

  auto S = Svc.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.CachedEntries, 1u);
  EXPECT_GT(S.CachedBytes, 0u);
}

TEST(ServiceCache, HitAllocatesOnlyItsHandleAndVerifierScratch) {
  // docs/PERF.md lists what a hit allocates: the ServiceResult handle, and
  // the verifier's name set (buckets and one node) and its Listed array.
  // The module is read in place, and the fingerprint, the cache claim and
  // the latency histogram allocate nothing.
  uir::UirCompileService Svc({.NumWorkers = 1});
  const uir::UModule M = makeQueryModule("alloc_hit", 4);
  auto Miss = Svc.submit(M);
  Miss->wait();
  ASSERT_TRUE(Miss->ok()) << Miss->status().Message;

  for (int I = 0; I < 8; ++I) {
    support::AllocWatch W;
    service::ResultPtr Hit = Svc.submit(M);
    const u64 Allocs = W.newCalls();
    ASSERT_TRUE(Hit->done());
    ASSERT_TRUE(Hit->hit());
    EXPECT_LE(Allocs, 4u) << "hit " << I;
  }
}

TEST(ServiceCache, TirX64HitIsByteIdenticalToFreshCompile) {
  std::vector<u8> Solo = soloTirMappedText(makeTirJob(21, 6, "jobA"));

  tpde_tir::TirCompileServiceX64 Svc({.NumWorkers = 1});
  auto Miss = Svc.submit(makeTirJob(21, 6, "jobA"));
  Miss->wait();
  ASSERT_TRUE(Miss->ok()) << Miss->status().Message;
  EXPECT_FALSE(Miss->hit());
  EXPECT_EQ(mappedText(*Miss->code()), Solo);

  auto Hit = Svc.submit(makeTirJob(21, 6, "jobA"));
  Hit->wait();
  ASSERT_TRUE(Hit->ok());
  EXPECT_TRUE(Hit->hit());
  EXPECT_EQ(Hit->code().get(), Miss->code().get());

  auto S = Svc.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
}

/// A 2-function job carrying one more initialized global than the
/// generator's shared scratch global.
tir::Module makeExtraGlobalJob() {
  tir::Module M = makeTirJob(34, 2, "bd");
  tir::addGlobal(M, "bd_extra", 24, 8, /*ReadOnly=*/false,
                 std::vector<u8>(24, 0x5a));
  return M;
}

/// A 12-function job whose scratch global has a different initializer.
tir::Module makeOtherScratchJob() {
  tir::Module M = makeTirJob(35, 12, "be");
  for (tir::Global &G : M.Globals)
    if (G.Name == "wl_scratch")
      G.Init[0] ^= 0xff;
  return M;
}

TEST(ServiceCache, QueuedJobsMatchSoloCompiles) {
  // Queue jobs of different shapes against a paused worker — equal and
  // differing global sets, 2 to 12 functions — so the worker's driver
  // compiles them back to back on a replaced module, then check every
  // job's output against its solo compile.
  std::vector<u8> SoloA = soloTirMappedText(makeTirJob(31, 5, "ba"));
  std::vector<u8> SoloB = soloTirMappedText(makeTirJob(32, 5, "bb"));
  std::vector<u8> SoloC = soloTirMappedText(makeTirJob(33, 5, "bc"));
  std::vector<u8> SoloD = soloTirMappedText(makeExtraGlobalJob());
  std::vector<u8> SoloE = soloTirMappedText(makeOtherScratchJob());

  tpde_tir::TirCompileServiceX64 Svc({.NumWorkers = 1, .StartPaused = true});
  auto RA = Svc.submit(makeTirJob(31, 5, "ba"));
  auto RB = Svc.submit(makeTirJob(32, 5, "bb"));
  auto RC = Svc.submit(makeTirJob(33, 5, "bc"));
  auto RD = Svc.submit(makeExtraGlobalJob());
  auto RE = Svc.submit(makeOtherScratchJob());
  Svc.resume();
  RA->wait();
  RB->wait();
  RC->wait();
  RD->wait();
  RE->wait();
  ASSERT_TRUE(RA->ok() && RB->ok() && RC->ok());
  EXPECT_EQ(mappedText(*RA->code()), SoloA);
  EXPECT_EQ(mappedText(*RB->code()), SoloB);
  EXPECT_EQ(mappedText(*RC->code()), SoloC);
  ASSERT_TRUE(RD->ok()) << RD->status().Message;
  ASSERT_TRUE(RE->ok()) << RE->status().Message;
  EXPECT_EQ(mappedText(*RD->code()), SoloD);
  EXPECT_EQ(mappedText(*RE->code()), SoloE);
}

TEST(ServiceCache, EvictionUnderByteBudget) {
  // Measure one entry's mapped footprint, then budget for ~3 entries.
  u64 EntryBytes;
  {
    uir::UModule M = makeQueryModule("ev_probe", 0);
    asmx::Assembler Asm;
    ASSERT_TRUE(uir::compileTpdeUir(M, Asm));
    asmx::JITMapper JIT;
    ASSERT_TRUE(JIT.map(Asm));
    EntryBytes = JIT.mappedSize();
    ASSERT_GT(EntryBytes, 0u);
  }
  const u64 Budget = EntryBytes * 3 + EntryBytes / 2;

  uir::UirCompileService Svc({.NumWorkers = 1, .CacheBudgetBytes = Budget});
  for (u32 I = 0; I < 6; ++I) {
    auto R = Svc.submit(makeQueryModule("ev" + std::to_string(I), I));
    R->wait();
    ASSERT_TRUE(R->ok()) << R->status().Message;
  }
  auto S = Svc.stats();
  EXPECT_EQ(S.Misses, 6u);
  EXPECT_GT(S.Evictions, 0u) << "6 entries cannot fit a ~3-entry budget";
  EXPECT_LE(S.CachedBytes, Budget) << "budget must be enforced";

  // The least-recently-used fingerprint (ev0) was evicted: resubmitting
  // recompiles it — correctly.
  auto R0 = Svc.submit(makeQueryModule("ev0", 0));
  R0->wait();
  ASSERT_TRUE(R0->ok());
  EXPECT_FALSE(R0->hit()) << "evicted entries miss again";
  EXPECT_EQ(Svc.stats().Misses, 7u);
  uir::Table T(6, 5'000, /*Seed=*/3);
  auto *Q = reinterpret_cast<QueryFn>(R0->address("ev0"));
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q(T.ColPtrs.data(), static_cast<i64>(T.Rows)),
            uir::evalPlan(planOf("ev0", 0), T));
}

TEST(ServiceCache, SingleFlightUnderConcurrentProducers) {
  // 8 producers submit the same content while the worker is parked: one
  // becomes the owner, everyone else coalesces onto the in-flight entry.
  uir::UirCompileService Svc({.NumWorkers = 1, .StartPaused = true});
  constexpr unsigned N = 8;
  std::vector<service::ResultPtr> Results(N);
  {
    std::vector<std::thread> Producers;
    for (unsigned I = 0; I < N; ++I)
      Producers.emplace_back([&, I] {
        Results[I] = Svc.submit(makeQueryModule("sf_q", 9));
      });
    for (auto &P : Producers)
      P.join();
  }
  Svc.resume();
  for (auto &R : Results) {
    R->wait();
    ASSERT_TRUE(R->ok()) << R->status().Message;
  }
  auto S = Svc.stats();
  EXPECT_EQ(S.Misses, 1u) << "the same fingerprint must compile exactly once";
  EXPECT_EQ(S.Coalesced, N - 1);
  EXPECT_EQ(S.Hits, 0u);
  for (auto &R : Results)
    EXPECT_EQ(R->code().get(), Results[0]->code().get())
        << "all producers share the single published mapping";
}

// --- robustness ------------------------------------------------------------

TEST(ServiceRobustness, MalformedJobRejectedAtAdmission) {
  uir::UirCompileService Svc({.NumWorkers = 1});
  // Duplicate query names: structurally fine, rejected by uir::verifyModule.
  uir::UModule Bad = makeQueryModule("dup", 1);
  uir::UModule Twin = makeQueryModule("dup", 1);
  Bad.Funcs.push_back(Twin.Funcs[0]);
  auto R = Svc.submit(std::move(Bad));
  EXPECT_TRUE(R->done()) << "verify rejection completes synchronously";
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->status().Err, CompileErr::VerifyFailed);
  auto S = Svc.stats();
  EXPECT_EQ(S.VerifyRejected, 1u);
  EXPECT_EQ(S.Misses, 0u) << "rejected jobs never touch the cache";
  EXPECT_EQ(S.CachedEntries, 0u);

  // The pool is not poisoned: a good job still compiles.
  auto Good = Svc.submit(makeQueryModule("after_bad", 2));
  Good->wait();
  EXPECT_TRUE(Good->ok());
}

TEST(ServiceRobustness, UncompilableJobFailsAloneNeighborsServed) {
  std::vector<u8> SoloA = soloTirMappedText(makeTirJob(41, 5, "ga"));
  std::vector<u8> SoloC = soloTirMappedText(makeTirJob(43, 5, "gc"));

  // Verify off: the sabotaged module is verifier-clean (Op::None only
  // fails in the instruction compiler) — this exercises the driver's
  // graceful-degradation path inside the service, between two good jobs.
  tpde_tir::TirCompileServiceX64 Svc(
      {.NumWorkers = 1, .Verify = false, .StartPaused = true});
  tir::Module BadJob = makeTirJob(42, 5, "gbad");
  sabotageTir(BadJob, 2);

  auto RA = Svc.submit(makeTirJob(41, 5, "ga"));
  auto RB = Svc.submit(std::move(BadJob));
  auto RC = Svc.submit(makeTirJob(43, 5, "gc"));
  Svc.resume();
  RA->wait();
  RB->wait();
  RC->wait();

  ASSERT_TRUE(RA->ok()) << RA->status().Message;
  ASSERT_TRUE(RC->ok()) << RC->status().Message;
  EXPECT_EQ(mappedText(*RA->code()), SoloA)
      << "a failing batch neighbor must not perturb a good job's bytes";
  EXPECT_EQ(mappedText(*RC->code()), SoloC);

  EXPECT_FALSE(RB->ok());
  EXPECT_EQ(RB->status().Err, CompileErr::UnsupportedInst);
  auto S = Svc.stats();
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.CachedEntries, 2u) << "the failed fingerprint is never cached";

  // Failure is not sticky: the failed fingerprint can be resubmitted
  // (here: the repaired module compiles under a new fingerprint, and the
  // service keeps serving).
  auto RFixed = Svc.submit(makeTirJob(42, 5, "gbad"));
  RFixed->wait();
  EXPECT_TRUE(RFixed->ok());
}

TEST(ServiceRobustness, SelfConflictingJobFailsLikeItsSoloCompile) {
  // Verify off: a job whose own functions share a name is not caught at
  // admission. It reaches the driver and fails exactly as a solo
  // compile of the same module does, is never cached, and the worker
  // goes on serving.
  uir::UModule Dup = makeQueryModule("dupx", 1);
  Dup.Funcs.push_back(makeQueryModule("dupx", 2).Funcs[0]);
  support::CompileStatus Solo;
  {
    uir::UModule M = Dup;
    asmx::Assembler Asm;
    ASSERT_FALSE(uir::compileModuleUirParallel(M, Asm, /*NumThreads=*/0,
                                               /*Verify=*/false, &Solo));
  }

  uir::UirCompileService Svc({.NumWorkers = 1, .Verify = false});
  auto R = Svc.submit(Dup);
  R->wait();
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->status().Err, Solo.Err)
      << support::compileErrName(R->status().Err) << " vs "
      << support::compileErrName(Solo.Err);
  EXPECT_EQ(R->status().Message, Solo.Message);
  auto S = Svc.stats();
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.CachedEntries, 0u) << "the failed fingerprint is never cached";

  auto Next = Svc.submit(makeQueryModule("after_dupx", 2));
  Next->wait();
  EXPECT_TRUE(Next->ok()) << Next->status().Message;
}

TEST(ServiceRobustness, UnresolvedSymbolFailsAfterOneCompile) {
  // The service maps without a symbol resolver, so a call to a declared
  // function fails to map on every attempt. The job fails after one
  // compile, and nothing is cached: a resubmit compiles again and fails
  // the same way.
  tir::Module M;
  u32 Ext = tir::declareFunc(M, "svc_ext", tir::Type::I64, {tir::Type::I64});
  {
    tir::FunctionBuilder B(M, "svc_caller", tir::Type::I64, {tir::Type::I64});
    B.setInsertPoint(B.addBlock());
    B.ret(B.call(Ext, tir::Type::I64, {B.arg(0)}));
    B.finish();
  }
  std::atomic<int> Compiles{0};
  tpde_tir::TirCompileServiceX64 Svc(
      {.NumWorkers = 1, .TestHookPreCompile = [&] { Compiles.fetch_add(1); }});
  auto R = Svc.submit(M);
  R->wait();
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->status().Err, CompileErr::JitMapFailed)
      << support::compileErrName(R->status().Err);
  EXPECT_NE(R->status().Message.find("unresolved symbol"), std::string::npos)
      << R->status().Message;
  EXPECT_EQ(Compiles.load(), 1) << "a deterministic failure compiles once";
  auto S = Svc.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.CachedEntries, 0u);

  auto R2 = Svc.submit(M);
  R2->wait();
  EXPECT_FALSE(R2->ok());
  EXPECT_EQ(R2->status().Err, CompileErr::JitMapFailed)
      << support::compileErrName(R2->status().Err);
  EXPECT_EQ(Compiles.load(), 2) << "failures are never cached";
  S = Svc.stats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Failed, 2u);
  EXPECT_EQ(S.CachedEntries, 0u);
}

TEST(ServiceRobustness, OutOfMemoryAdmittingAMissReleasesTheClaim) {
  // The owner copies its module after the cache claim made it the owner.
  // A bad_alloc there must fail the job and release the claim: the next
  // submit of the module is a miss again, not a waiter on a compile that
  // never runs.
  tir::Module M;
  {
    tir::FunctionBuilder B(M, "oom_chain", tir::Type::I64, {tir::Type::I64});
    B.setInsertPoint(B.addBlock());
    tir::ValRef Acc = B.arg(0);
    while (B.func().Values.size() < 39'999)
      Acc = B.binop(tir::Op::Add, Acc, B.arg(0));
    B.ret(Acc);
    B.finish();
  }
  ASSERT_EQ(M.Funcs[0].Values.size(), 40'000u);
  tpde_tir::TirCompileServiceX64 Svc({.NumWorkers = 1});
  auto SubmitOrNull = [&](service::SubmitOptions SO) -> service::ResultPtr {
    try {
      return Svc.submit(M, SO);
    } catch (const std::bad_alloc &) {
      return nullptr;
    }
  };
  // Only the copy of the function's values is this large.
  support::AllocCounter::FailFromBytes.store(M.Funcs[0].Values.size() *
                                             sizeof(tir::Value));
  service::ResultPtr R1 = SubmitOrNull({});
  service::ResultPtr R2 =
      SubmitOrNull({.DeadlineNs = tpde::nowNs() + 2'000'000'000});
  support::AllocCounter::FailFromBytes.store(0);
  ASSERT_TRUE(R1 && R2) << "bad_alloc escaped submit()";
  R1->wait();
  R2->wait();
  for (const service::ResultPtr &R : {R1, R2})
    EXPECT_EQ(R->status().Err, CompileErr::OutOfMemory)
        << support::compileErrName(R->status().Err) << ": "
        << R->status().Message;
  auto S = Svc.stats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Coalesced, 0u) << "the failed owner released its claim";
  EXPECT_EQ(S.Failed, 2u);

  auto R3 = Svc.submit(M);
  R3->wait();
  EXPECT_TRUE(R3->ok()) << R3->status().Message;
}

TEST(ServiceRobustness, OutOfMemoryInSubmitCountsNothing) {
  // submit() may throw bad_alloc, but only before it counts the
  // submission. A paused worker holds the owner of one module with 1 to
  // 64 waiters coalesced onto it; further submits of that module then
  // run under every FailFromBytes threshold from 1 to 4096 bytes, so that
  // growing the entry's waiter list sometimes throws. Each returns a
  // handle or throws, and once the compile is published the stats must
  // account for exactly the submits that returned.
  uir::UModule M = makeQueryModule("oom_submit", 0);
  for (u32 Held = 1; Held <= 64; ++Held) {
    uir::UirCompileService Svc({.NumWorkers = 1, .StartPaused = true});
    std::vector<service::ResultPtr> Handles;
    for (u32 I = 0; I <= Held; ++I)
      Handles.push_back(Svc.submit(M));
    u64 Threw = 0;
    for (u64 T = 1; T <= 4096; ++T) {
      service::ResultPtr R;
      support::AllocCounter::FailFromBytes.store(T);
      try {
        R = Svc.submit(M);
      } catch (const std::bad_alloc &) {
        ++Threw;
      }
      support::AllocCounter::FailFromBytes.store(0);
      if (R)
        Handles.push_back(std::move(R));
    }
    Svc.resume();
    for (const service::ResultPtr &R : Handles) {
      R->wait();
      ASSERT_TRUE(R->ok()) << R->status().Message;
    }
    auto S = Svc.stats();
    EXPECT_GT(Threw, 0u) << "held=" << Held;
    EXPECT_EQ(S.Misses, 1u);
    EXPECT_EQ(S.Hits + S.Misses + S.Coalesced + S.VerifyRejected,
              Handles.size())
        << "held=" << Held << ": a submit that threw was counted";
  }
}

TEST(ServiceRobustness, OutOfMemoryOnTheWorkerFailsOnlyThatJob) {
  // From the moment the worker starts a job until the job completes,
  // every allocation of at least From bytes fails, for every From from 1
  // to 4096 bytes and each power of two up to 1 MiB. Nothing above the
  // worker catches, so an exception there would end the process: each
  // job must be served, byte-identical to its solo compile, or fail with
  // OutOfMemory, and the worker must go on to the next.
  std::atomic<u64> From{0};
  uir::UirCompileService Svc(
      {.NumWorkers = 1, .TestHookPreCompile = [&] {
         support::AllocCounter::FailFromBytes.store(From.load());
       }});
  std::vector<u64> Thresholds;
  for (u64 B = 1; B <= 4096; ++B)
    Thresholds.push_back(B);
  for (u64 B = 8192; B <= (u64{1} << 20); B *= 2)
    Thresholds.push_back(B);
  unsigned Served = 0;
  for (u64 T : Thresholds) {
    // A distinct module per threshold: every job is a miss.
    uir::UModule M = makeQueryModule("oom_" + std::to_string(T),
                                     static_cast<u32>(T));
    From.store(T);
    service::ResultPtr R = Svc.submit(M);
    R->wait();
    support::AllocCounter::FailFromBytes.store(0);
    if (R->ok()) {
      ++Served;
      EXPECT_EQ(mappedText(*R->code()), soloUirMappedText(M))
          << "FailFromBytes=" << T;
      continue;
    }
    ASSERT_EQ(R->status().Err, CompileErr::OutOfMemory)
        << "FailFromBytes=" << T << ": "
        << support::compileErrName(R->status().Err) << " ("
        << R->status().Message << ")";
  }
  EXPECT_GT(Served, 0u) << "a large enough threshold fails nothing";
  From.store(0);
  auto S = Svc.stats();
  EXPECT_GT(S.Failed, 0u) << "a small threshold fails the job";
  EXPECT_EQ(S.Misses, Thresholds.size());
  EXPECT_EQ(S.Failed + Served, Thresholds.size());
  auto After = Svc.submit(makeQueryModule("oom_after", 0));
  After->wait();
  EXPECT_TRUE(After->ok()) << After->status().Message;
}

TEST(ServiceRobustness, CompletingOutOfMemoryKeepsTheErrorCode) {
  // Completing a handle copies the diagnostic's text. Out of memory the
  // handle still completes, with the code and without the text, so no
  // waiter is left behind by a completion that threw.
  service::ServiceResult R;
  support::CompileStatus St;
  St.Err = CompileErr::UnsupportedInst;
  St.Message = "a diagnostic longer than the short-string buffer";
  bool Completed = false, Threw = false;
  support::AllocCounter::FailFromBytes.store(1);
  try {
    Completed = R.complete(nullptr, St, /*WasHit=*/false, tpde::nowNs());
  } catch (...) {
    Threw = true;
  }
  support::AllocCounter::FailFromBytes.store(0);
  ASSERT_FALSE(Threw);
  EXPECT_TRUE(Completed);
  EXPECT_TRUE(R.done());
  EXPECT_EQ(R.status().Err, CompileErr::UnsupportedInst);
  EXPECT_TRUE(R.status().Message.empty());
}

// --- admission queue -------------------------------------------------------

TEST(AdmissionQueueTest, CapacityBoundsFifoAndCloseDrains) {
  service::AdmissionQueue<int> Q(4);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Q.tryPush(10 + I), service::Admit::Ok);
  EXPECT_EQ(Q.tryPush(14), service::Admit::Overloaded)
      << "capacity bounds the whole queue";
  int V = -1;
  ASSERT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 10);
  EXPECT_EQ(Q.tryPush(14), service::Admit::Ok) << "a pop frees one slot";
  Q.close();
  EXPECT_EQ(Q.tryPush(15), service::Admit::Closed);
  for (int I = 1; I < 5; ++I) {
    ASSERT_TRUE(Q.pop(V)) << "close drains queued jobs";
    EXPECT_EQ(V, 10 + I) << "jobs pop in arrival order";
  }
  EXPECT_FALSE(Q.pop(V));
}

TEST(AdmissionQueueTest, PushWaitIsBoundedAndUnblocksOnSpace) {
  service::AdmissionQueue<int> Q(1);
  ASSERT_EQ(Q.tryPush(1), service::Admit::Ok);
  // Full queue + nobody popping: pushWait gives up after the bounded wait.
  const u64 T0 = tpde::nowNs();
  EXPECT_EQ(Q.pushWait(2, 30'000'000), service::Admit::Overloaded);
  EXPECT_GE(tpde::nowNs() - T0, 25'000'000u) << "the wait is really taken";
  // With a consumer, the same pushWait admits as soon as space frees up.
  std::thread Consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    int V;
    EXPECT_TRUE(Q.pop(V));
  });
  EXPECT_EQ(Q.pushWait(3, 2'000'000'000), service::Admit::Ok);
  Consumer.join();
}

// --- service overload control ----------------------------------------------

TEST(ServiceOverload, TrySubmitOnFullQueueReportsOverloaded) {
  uir::UirCompileService Svc(
      {.NumWorkers = 1, .QueueCapacity = 2, .StartPaused = true});
  auto R1 = Svc.trySubmit(makeQueryModule("ov0", 0));
  auto R2 = Svc.trySubmit(makeQueryModule("ov1", 1));
  auto R3 = Svc.trySubmit(makeQueryModule("ov2", 2));
  EXPECT_FALSE(R1->done());
  EXPECT_FALSE(R2->done());
  ASSERT_TRUE(R3->done()) << "rejection completes synchronously";
  EXPECT_FALSE(R3->ok());
  EXPECT_EQ(R3->status().Err, CompileErr::Overloaded);
  EXPECT_EQ(Svc.stats().Overloaded, 1u);
  Svc.resume();
  R1->wait();
  R2->wait();
  EXPECT_TRUE(R1->ok() && R2->ok()) << "queued jobs are unaffected";
  // The shed fingerprint is not poisoned: resubmitting compiles it.
  auto R3b = Svc.submit(makeQueryModule("ov2", 2));
  R3b->wait();
  EXPECT_TRUE(R3b->ok());
  EXPECT_FALSE(R3b->hit());
}

TEST(ServiceOverload, SubmitAfterShutdownReportsServiceShutdown) {
  uir::UirCompileService Svc({.NumWorkers = 1});
  auto Before = Svc.submit(makeQueryModule("sd0", 0));
  Before->wait();
  ASSERT_TRUE(Before->ok());
  Svc.shutdown();
  // A distinct module must be refused with the structured shutdown code.
  auto After = Svc.submit(makeQueryModule("sd1", 1));
  ASSERT_TRUE(After->done());
  EXPECT_FALSE(After->ok());
  EXPECT_EQ(After->status().Err, CompileErr::ServiceShutdown);
  EXPECT_NE(After->status().Message.find("shut down"), std::string::npos);
  // A cache hit is still served after shutdown — the code exists.
  auto Hit = Svc.submit(makeQueryModule("sd0", 0));
  ASSERT_TRUE(Hit->done());
  EXPECT_TRUE(Hit->ok());
  EXPECT_TRUE(Hit->hit());
}

TEST(ServiceCache, JobsSharingFunctionNamesCompileSeparately) {
  // A and B share function names (same prefix, different content); C is
  // independent. Each job compiles as its own module, so the shared
  // names never conflict: no job is failed, and every job's bytes match
  // its solo compile.
  std::vector<u8> SoloA = soloTirMappedText(makeTirJob(61, 5, "cf"));
  std::vector<u8> SoloB = soloTirMappedText(makeTirJob(62, 5, "cf"));
  std::vector<u8> SoloC = soloTirMappedText(makeTirJob(63, 5, "cfz"));

  tpde_tir::TirCompileServiceX64 Svc({.NumWorkers = 1, .StartPaused = true});
  auto RA = Svc.submit(makeTirJob(61, 5, "cf"));
  auto RB = Svc.submit(makeTirJob(62, 5, "cf"));
  auto RC = Svc.submit(makeTirJob(63, 5, "cfz"));
  Svc.resume();
  RA->wait();
  RB->wait();
  RC->wait();
  ASSERT_TRUE(RA->ok()) << RA->status().Message;
  ASSERT_TRUE(RB->ok()) << RB->status().Message;
  ASSERT_TRUE(RC->ok()) << RC->status().Message;
  EXPECT_EQ(mappedText(*RA->code()), SoloA);
  EXPECT_EQ(mappedText(*RB->code()), SoloB);
  EXPECT_EQ(mappedText(*RC->code()), SoloC);
  auto S = Svc.stats();
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Failed, 0u) << "deferred jobs must not be failed";
}

// --- deadlines -------------------------------------------------------------

TEST(ServiceDeadline, QueuedJobShedAtDequeueNeverCompiled) {
  uir::UirCompileService Svc({.NumWorkers = 1, .StartPaused = true});
  auto R = Svc.submit(makeQueryModule("dl0", 0),
                      {.DeadlineNs = tpde::nowNs() + 30'000'000});
  EXPECT_FALSE(R->done());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Svc.resume();
  // The worker sheds the expired job at dequeue; poll for the counter so
  // we assert the shed path specifically (the waiter-side timeout in
  // wait() is a different counter).
  for (int I = 0; I < 2000 && Svc.stats().Shed == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Svc.stats().Shed, 1u);
  R->wait();
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->status().Err, CompileErr::DeadlineExceeded);
  EXPECT_EQ(R->code(), nullptr);
  EXPECT_EQ(Svc.stats().CachedEntries, 0u) << "shed jobs are never compiled";
  // The fingerprint is not poisoned: a deadline-free resubmit compiles.
  auto R2 = Svc.submit(makeQueryModule("dl0", 0));
  R2->wait();
  EXPECT_TRUE(R2->ok());
  EXPECT_FALSE(R2->hit());
}

TEST(ServiceDeadline, WaiterTimesOutIndependentlyOfOwner) {
  uir::UirCompileService Svc({.NumWorkers = 1, .StartPaused = true});
  // Owner: no deadline, parked in the queue. Waiter: same content with a
  // short deadline — it must time out on its own while the owner is
  // still in flight, and the owner must stay unaffected.
  auto Owner = Svc.submit(makeQueryModule("wt0", 0));
  auto Waiter = Svc.submit(makeQueryModule("wt0", 0),
                           {.DeadlineNs = tpde::nowNs() + 25'000'000});
  EXPECT_EQ(Svc.stats().Coalesced, 1u) << "the second submit must coalesce";
  Waiter->wait();
  EXPECT_FALSE(Waiter->ok());
  EXPECT_EQ(Waiter->status().Err, CompileErr::DeadlineExceeded);
  EXPECT_EQ(Waiter->code(), nullptr);
  EXPECT_EQ(Svc.stats().DeadlineTimedOut, 1u);
  Svc.resume();
  Owner->wait();
  ASSERT_TRUE(Owner->ok()) << "the owner is unaffected by waiter timeouts";
  // First-wins: the publish did not overwrite the waiter's timeout, but
  // it did land in the cache.
  EXPECT_FALSE(Waiter->ok());
  auto Hit = Svc.submit(makeQueryModule("wt0", 0));
  Hit->wait();
  EXPECT_TRUE(Hit->ok());
  EXPECT_TRUE(Hit->hit());
}

// --- liveness under overload -----------------------------------------------

TEST(ServiceFaultSweep, FloodedServiceStaysLiveAcrossWorkerCounts) {
  // 2x-overload flood: far more arrivals than a small queue can hold,
  // with deadlines. Each module is submitted twice in a row, so the
  // second submit coalesces onto a queued or compiling first one, hits its
  // published code, or (when the first was refused) owns a compile of its
  // own, and every compile is delayed by a random 0-200 us to shuffle the
  // schedule. Every job must complete with code or a *labelled*
  // structured error; nothing may hang. Once all have completed, each
  // module with a served handle is submitted once more and must be a
  // cache hit. The counters must conserve jobs, and every served handle,
  // hits included, must carry its module's solo-compiled bytes. Run at 1,
  // 2, and 4 workers, in three cells:
  //  * one producer;
  //  * one producer, the verifier off, and every fifth module defining one
  //    query name twice: those jobs are never served, and each one that
  //    is compiled fails with its solo compile's code and message;
  //  * four producers submitting the same module sequence.
  enum Cell { OneProducer, Conflicting, FourProducers };
  constexpr u32 NumModules = 80;
  for (unsigned Workers : {1u, 2u, 4u}) {
    for (Cell C : {OneProducer, Conflicting, FourProducers}) {
      const std::string Where = "workers=" + std::to_string(Workers) +
                                " cell=" + std::to_string(C);
      std::vector<uir::UModule> Mods;
      std::vector<std::vector<u8>> Solo;
      std::vector<support::CompileStatus> SoloSt; // Ok: the module compiles
      for (u32 I = 0; I < NumModules; ++I) {
        const std::string Name = "fl" + std::to_string(Workers) + "_" +
                                 std::to_string(C) + "_" + std::to_string(I);
        uir::UModule M = makeQueryModule(Name, I);
        support::CompileStatus St;
        if (C == Conflicting && I % 5 == 0) {
          M.Funcs.push_back(makeQueryModule(Name, NumModules + I).Funcs[0]);
          uir::UModule Copy = M;
          asmx::Assembler Asm;
          EXPECT_FALSE(uir::compileTpdeUir(Copy, Asm, /*Verify=*/false, &St));
        }
        Solo.push_back(St.ok() ? soloUirMappedText(M) : std::vector<u8>{});
        SoloSt.push_back(St);
        Mods.push_back(std::move(M));
      }
      std::atomic<u64> Compiles{0};
      uir::UirCompileService Svc(
          {.NumWorkers = Workers,
           .QueueCapacity = 8,
           .Verify = C != Conflicting,
           .TestHookPreCompile = [&] {
             tpde::Rng R(Compiles.fetch_add(1));
             std::this_thread::sleep_for(
                 std::chrono::microseconds(R.below(201)));
           }});
      const u64 Deadline = tpde::nowNs() + 2'000'000'000; // generous 2s
      const unsigned NumProducers = C == FourProducers ? 4 : 1;
      std::vector<std::vector<service::ResultPtr>> Rs(NumProducers);
      auto Produce = [&](unsigned P) {
        for (u32 I = 0; I < 2 * NumModules; ++I)
          Rs[P].push_back(Svc.trySubmit(Mods[I / 2], {.DeadlineNs = Deadline}));
      };
      {
        std::vector<std::thread> Producers;
        for (unsigned P = 1; P < NumProducers; ++P)
          Producers.emplace_back(Produce, P);
        Produce(0);
        for (auto &T : Producers)
          T.join();
      }
      u64 Submissions = 0;
      unsigned Served = 0, Overloaded = 0, FailedLikeSolo = 0;
      std::vector<u8> WasServed(NumModules, 0);
      for (const auto &PerProducer : Rs) {
        for (u32 I = 0; I < PerProducer.size(); ++I) {
          const service::ResultPtr &R = PerProducer[I];
          const u32 Mod = I / 2;
          ++Submissions;
          R->wait(); // deadline-bounded: liveness even if something wedged
          ASSERT_TRUE(R->done()) << Where;
          if (R->ok()) {
            ++Served;
            WasServed[Mod] = 1;
            EXPECT_TRUE(SoloSt[Mod].ok())
                << Where << ": module " << Mod << " fails its solo compile";
            EXPECT_EQ(mappedText(*R->code()), Solo[Mod])
                << Where << ": submission " << I
                << (R->hit() ? " (hit)" : "");
            continue;
          }
          CompileErr E = R->status().Err;
          Overloaded += E == CompileErr::Overloaded;
          EXPECT_FALSE(R->status().Message.empty()) << Where;
          if (!SoloSt[Mod].ok() && E == SoloSt[Mod].Err) {
            ++FailedLikeSolo;
            EXPECT_EQ(R->status().Message, SoloSt[Mod].Message) << Where;
            continue;
          }
          EXPECT_TRUE(E == CompileErr::Overloaded ||
                      E == CompileErr::DeadlineExceeded ||
                      E == CompileErr::JitMapFailed ||
                      E == CompileErr::OutOfMemory)
              << Where << ": unlabelled failure: "
              << support::compileErrName(E) << " (" << R->status().Message
              << ")";
        }
      }
      EXPECT_GT(Served, 0u) << Where << ": overload must shed, not starve";
      if (C == Conflicting) {
        EXPECT_GT(FailedLikeSolo, 0u)
            << Where << ": the first module conflicts and is compiled";
      }
      for (u32 I = 0; I < NumModules; ++I) {
        if (!WasServed[I])
          continue;
        service::ResultPtr R = Svc.trySubmit(Mods[I]);
        ++Submissions;
        ASSERT_TRUE(R->hit()) << Where << ": module " << I << " was served";
        EXPECT_EQ(mappedText(*R->code()), Solo[I])
            << Where << ": module " << I << " (hit)";
      }
      auto S = Svc.stats();
      EXPECT_EQ(S.Hits + S.Misses + S.Coalesced + S.VerifyRejected,
                Submissions)
          << Where << ": every submission is exactly one hit, miss or waiter";
      if (NumProducers == 1) {
        // A refused owner has completed before the next submit, so
        // nothing coalesces onto it and each Overloaded handle is one
        // refused owner.
        EXPECT_EQ(S.Overloaded, Overloaded) << Where;
      } else {
        // A waiter that coalesced onto an owner the queue then refused
        // completes Overloaded but counts as Coalesced.
        EXPECT_LE(S.Overloaded, Overloaded) << Where;
        EXPECT_LE(Overloaded, S.Overloaded + S.Coalesced) << Where;
      }
    }
  }
}
