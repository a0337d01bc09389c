//===- workloads/Generator.cpp - Synthetic TIR program generation ---------===//

#include "workloads/Generator.h"

using namespace tpde;
using namespace tpde::tir;
using namespace tpde::workloads;

namespace {

/// Builds one structured, always-terminating function. Loops have constant
/// trip counts; all memory accesses are masked into a scratch global.
class FuncGen {
public:
  FuncGen(Module &M, const std::string &Name, const Profile &P, u32 Scratch,
          u32 FuncIdxLimit)
      : M(M), R(P.Seed ^ std::hash<std::string>{}(Name)), P(P),
        B(M, Name, Type::I64, {Type::I64, Type::I64}), Scratch(Scratch),
        CallLimit(FuncIdxLimit) {}

  u32 run() {
    BlockRef Entry = B.addBlock("entry");
    B.setInsertPoint(Entry);
    if (P.SSAForm) {
      Pool = {B.arg(0), B.arg(1), B.constInt(Type::I64, 17),
              B.constInt(Type::I64, -42)};
    } else {
      // -O0 flavor: locals live in stack slots.
      for (u32 I = 0; I < 8; ++I)
        Slots.push_back(B.stackVar(8, 8));
      B.store(B.arg(0), Slots[0]);
      B.store(B.arg(1), Slots[1]);
      for (u32 I = 2; I < 8; ++I)
        B.store(B.constInt(Type::I64, static_cast<i64>(I * 1337 + 7)),
                Slots[I]);
    }
    genSeq(0, P.RegionBudget);
    // Fold a few values into the return.
    ValRef Acc = readVal();
    Acc = B.binop(Op::Xor, Acc, readVal());
    Acc = B.binop(Op::Add, Acc, readVal());
    B.ret(Acc);
    B.finish();
    return B.funcIndex();
  }

private:
  Module &M;
  Rng R;
  Profile P;
  FunctionBuilder B;
  u32 Scratch;
  u32 CallLimit;
  std::vector<ValRef> Pool;  ///< SSA mode: available i64 values.
  std::vector<ValRef> Slots; ///< O0 mode: i64 stack slots.

  ValRef c64(i64 V) { return B.constInt(Type::I64, V); }

  ValRef readVal() {
    if (P.SSAForm)
      return Pool[R.below(Pool.size())];
    return B.load(Type::I64, Slots[R.below(Slots.size())]);
  }

  void writeVal(ValRef V) {
    if (P.SSAForm) {
      if (Pool.size() < 24)
        Pool.push_back(V);
      else
        Pool[R.below(Pool.size())] = V;
      return;
    }
    B.store(V, Slots[R.below(Slots.size())]);
  }

  // --- Straight-line instruction recipes -------------------------------

  void emitInsts(u32 N) {
    for (u32 I = 0; I < N; ++I) {
      u32 Roll = static_cast<u32>(R.below(100));
      if (Roll < P.MemoryPct) {
        emitMemoryOp();
      } else if (Roll < P.MemoryPct + P.FloatPct) {
        emitFloatOp();
      } else if (Roll < P.MemoryPct + P.FloatPct + P.CallPct &&
                 CallLimit > 0) {
        emitCall();
      } else if (Roll < P.MemoryPct + P.FloatPct + P.CallPct + P.I128Pct) {
        emitI128Op();
      } else if (Roll <
                 P.MemoryPct + P.FloatPct + P.CallPct + P.I128Pct +
                     P.NarrowPct) {
        emitNarrowOp();
      } else {
        emitIntOp();
      }
    }
  }

  void emitIntOp() {
    ValRef A = readVal(), Bv = readVal();
    ValRef Res;
    switch (R.below(10)) {
    case 0:
      Res = B.binop(Op::Add, A, Bv);
      break;
    case 1:
      Res = B.binop(Op::Sub, A, Bv);
      break;
    case 2:
      Res = B.binop(Op::Mul, A, Bv);
      break;
    case 3:
      Res = B.binop(Op::And, A, Bv);
      break;
    case 4:
      Res = B.binop(Op::Or, A, Bv);
      break;
    case 5:
      Res = B.binop(Op::Xor, A, Bv);
      break;
    case 6: {
      ValRef Amt = B.binop(Op::And, Bv, c64(63));
      Op O = R.chance(1, 2) ? Op::Shl
                            : (R.chance(1, 2) ? Op::LShr : Op::AShr);
      Res = B.binop(O, A, Amt);
      break;
    }
    case 7: {
      // Guarded division: positive dividend, non-zero divisor.
      ValRef Divd = B.binop(Op::And, A, c64(0x7fffffffffffffffll));
      ValRef Divr = B.binop(Op::Or, Bv, c64(1));
      Op O = R.chance(1, 2) ? (R.chance(1, 2) ? Op::SDiv : Op::SRem)
                            : (R.chance(1, 2) ? Op::UDiv : Op::URem);
      Res = B.binop(O, Divd, Divr);
      break;
    }
    case 8: {
      ValRef C = B.icmp(static_cast<ICmp>(R.below(10)), A, Bv);
      Res = B.select(C, A, Bv);
      break;
    }
    default: {
      ValRef C = B.icmp(static_cast<ICmp>(R.below(10)), A, Bv);
      Res = B.cast(Op::Zext, Type::I64, C);
      break;
    }
    }
    writeVal(Res);
  }

  void emitNarrowOp() {
    static constexpr Type NarrowTys[3] = {Type::I8, Type::I16, Type::I32};
    Type Ty = NarrowTys[R.below(3)];
    ValRef A = B.cast(Op::Trunc, Ty, readVal());
    ValRef Bv = B.cast(Op::Trunc, Ty, readVal());
    Op Ops[6] = {Op::Add, Op::Sub, Op::Mul, Op::And, Op::Or, Op::Xor};
    ValRef Res = B.binop(Ops[R.below(6)], A, Bv);
    Res = R.chance(1, 2) ? B.cast(Op::Sext, Type::I64, Res)
                         : B.cast(Op::Zext, Type::I64, Res);
    writeVal(Res);
  }

  void emitFloatOp() {
    ValRef A = B.cast(Op::SiToFp, Type::F64, readVal());
    ValRef Bv = B.cast(Op::SiToFp, Type::F64, readVal());
    ValRef Res;
    switch (R.below(5)) {
    case 0:
      Res = B.binop(Op::FAdd, A, Bv);
      break;
    case 1:
      Res = B.binop(Op::FSub, A, Bv);
      break;
    case 2:
      Res = B.binop(Op::FMul, A, Bv);
      break;
    case 3:
      Res = B.binop(Op::FDiv, A,
                    B.binop(Op::FAdd, Bv, B.constF64(1.5)));
      break;
    default: {
      ValRef C = B.fcmp(static_cast<FCmp>(R.below(6)), A, Bv);
      writeVal(B.cast(Op::Zext, Type::I64, C));
      return;
    }
    }
    writeVal(B.cast(Op::FpToSi, Type::I64, Res));
  }

  void emitMemoryOp() {
    // No argument list holds two side-effecting calls (builder or RNG):
    // their evaluation order is unspecified, and a seed must generate the
    // same module under every host compiler. Where a call needs several,
    // they are named locals in right-to-left order, the order GCC used
    // when the existing workloads were recorded.
    ValRef Mask = c64(63);
    ValRef Idx = B.binop(Op::And, readVal(), Mask);
    ValRef Ptr = B.ptrAdd(B.globalAddr(Scratch), Idx, 8, 0);
    if (R.chance(1, 2)) {
      writeVal(B.load(Type::I64, Ptr));
    } else {
      B.store(readVal(), Ptr);
      // Narrow access variety.
      if (R.chance(1, 4)) {
        ValRef P8 = B.ptrAdd(B.globalAddr(Scratch), Idx, 1, 64);
        B.store(B.cast(Op::Trunc, Type::I8, readVal()), P8);
        writeVal(B.cast(Op::Zext, Type::I64, B.load(Type::I8, P8)));
      }
    }
  }

  void emitI128Op() {
    ValRef A = B.cast(Op::Zext, Type::I128, readVal());
    ValRef Bv = B.cast(Op::Zext, Type::I128, readVal());
    ValRef Wide = B.binop(Op::Shl, Bv, B.constInt(Type::I128, 64));
    ValRef X = B.binop(Op::Or, A, Wide);
    ValRef Y = B.cast(Op::Zext, Type::I128, readVal());
    Op Ops[5] = {Op::Add, Op::Sub, Op::And, Op::Or, Op::Xor};
    ValRef Res = B.binop(Ops[R.below(5)], X, Y);
    ValRef Hi = B.binop(Op::LShr, Res, B.constInt(Type::I128, 64));
    ValRef HiBits = B.cast(Op::Trunc, Type::I64, Hi); // see emitMemoryOp
    ValRef LoBits = B.cast(Op::Trunc, Type::I64, Res);
    ValRef Folded = B.binop(Op::Xor, LoBits, HiBits);
    writeVal(Folded);
  }

  void emitCall() {
    u32 Callee = static_cast<u32>(R.below(CallLimit));
    ValRef Res = B.call(Callee, Type::I64, {readVal(), readVal()});
    writeVal(Res);
  }

  // --- Structured control flow ------------------------------------------

  void genSeq(u32 Depth, u32 Budget) {
    while (Budget > 0) {
      u32 Roll = static_cast<u32>(R.below(100));
      if (Depth < 3 && Roll < P.BranchPct && Budget >= 3) {
        genIf(Depth);
        Budget -= 3;
      } else if (Depth < P.MaxLoopDepth && Roll < P.BranchPct + 25 &&
                 Budget >= 4) {
        genLoop(Depth);
        Budget -= 4;
      } else {
        emitInsts(P.InstsPerBlock);
        Budget -= 1;
      }
    }
  }

  void genIf(u32 Depth) {
    ValRef Rhs = readVal(); // right to left, see emitMemoryOp
    ValRef Lhs = readVal();
    auto Pred = static_cast<ICmp>(R.below(10));
    ValRef C = B.icmp(Pred, Lhs, Rhs);
    BlockRef ThenB = B.addBlock(), ElseB = B.addBlock(), JoinB = B.addBlock();
    B.condBr(C, ThenB, ElseB);

    std::vector<ValRef> Saved = Pool;
    B.setInsertPoint(ThenB);
    emitInsts(P.InstsPerBlock / 2 + 1);
    if (Depth < 2 && R.chance(1, 3))
      genSeq(Depth + 1, 2);
    ValRef TV = readVal();
    BlockRef ThenEnd = B.insertPoint();
    B.br(JoinB);

    Pool = Saved;
    B.setInsertPoint(ElseB);
    emitInsts(P.InstsPerBlock / 2 + 1);
    ValRef EV = readVal();
    BlockRef ElseEnd = B.insertPoint();
    B.br(JoinB);

    Pool = Saved;
    B.setInsertPoint(JoinB);
    if (P.SSAForm) {
      ValRef Phi = B.phi(Type::I64);
      B.addPhiIncoming(Phi, ThenEnd, TV);
      B.addPhiIncoming(Phi, ElseEnd, EV);
      writeVal(Phi);
    }
  }

  void genLoop(u32 Depth) {
    i64 Trip = R.range(1, static_cast<i64>(P.MaxLoopTrip));
    BlockRef Pre = B.insertPoint();
    BlockRef Header = B.addBlock(), Exit = B.addBlock();

    if (P.SSAForm) {
      ValRef AccInit = readVal();
      B.br(Header);
      B.setInsertPoint(Header);
      ValRef IPhi = B.phi(Type::I64);
      ValRef AccPhi = B.phi(Type::I64);
      std::vector<ValRef> Saved = Pool;
      Pool.push_back(IPhi);
      Pool.push_back(AccPhi);
      emitInsts(P.InstsPerBlock);
      if (Depth + 1 < P.MaxLoopDepth && R.chance(1, 3))
        genSeq(Depth + 1, 2);
      ValRef Mixin = readVal();
      ValRef Acc2 = B.binop(Op::Add, AccPhi, Mixin);
      ValRef I2 = B.binop(Op::Add, IPhi, c64(1));
      ValRef C = B.icmp(ICmp::Slt, I2, c64(Trip));
      BlockRef Latch = B.insertPoint();
      B.condBr(C, Header, Exit);
      B.addPhiIncoming(IPhi, Pre, c64(0));
      B.addPhiIncoming(IPhi, Latch, I2);
      B.addPhiIncoming(AccPhi, Pre, AccInit);
      B.addPhiIncoming(AccPhi, Latch, Acc2);
      Pool = Saved;
      B.setInsertPoint(Exit);
      Pool.push_back(Acc2);
      return;
    }
    // O0 flavor: counter lives in a stack slot; no phis.
    ValRef ISlot = B.stackVar(8, 8);
    B.store(c64(0), ISlot);
    B.br(Header);
    B.setInsertPoint(Header);
    emitInsts(P.InstsPerBlock);
    if (Depth + 1 < P.MaxLoopDepth && R.chance(1, 3))
      genSeq(Depth + 1, 2);
    ValRef I = B.load(Type::I64, ISlot);
    ValRef I2 = B.binop(Op::Add, I, c64(1));
    B.store(I2, ISlot);
    ValRef C = B.icmp(ICmp::Slt, I2, c64(Trip));
    B.condBr(C, Header, Exit);
    B.setInsertPoint(Exit);
  }
};

u32 ensureScratchGlobal(Module &M) {
  for (u32 I = 0; I < M.Globals.size(); ++I)
    if (M.Globals[I].Name == "wl_scratch")
      return I;
  // 64 i64 slots plus 64 bytes for narrow accesses.
  std::vector<u8> Init(576);
  for (size_t I = 0; I < Init.size(); ++I)
    Init[I] = static_cast<u8>(I * 31 + 7);
  return addGlobal(M, "wl_scratch", 576, 16, /*ReadOnly=*/false,
                   std::move(Init));
}

} // namespace

u32 tpde::workloads::genFunction(Module &M, const std::string &Name,
                                 Profile P) {
  u32 Scratch = ensureScratchGlobal(M);
  u32 Limit = 0;
  // Only call previously generated i64(i64,i64) functions; cap call depth
  // by construction (a function can only call lower-numbered ones).
  for (u32 I = 0; I < M.Funcs.size(); ++I)
    if (!M.Funcs[I].IsDeclaration && M.Funcs[I].ParamTys.size() == 2 &&
        M.Funcs[I].RetTy == Type::I64)
      Limit = I + 1;
  FuncGen G(M, Name, P, Scratch, P.CallPct ? Limit : 0);
  return G.run();
}

void tpde::workloads::genModule(Module &M, const Profile &P) {
  u32 Scratch = ensureScratchGlobal(M);
  (void)Scratch;
  std::vector<u32> Fns;
  for (u32 I = 0; I < P.NumFuncs; ++I) {
    Profile FP = P;
    FP.Seed = P.Seed * 1000003 + I;
    std::string Name = "f";
    Name += std::to_string(I);
    Fns.push_back(genFunction(M, Name, FP));
  }
  // Driver: xors all function results.
  FunctionBuilder B(M, "main_entry", Type::I64, {Type::I64, Type::I64});
  B.setInsertPoint(B.addBlock());
  ValRef Acc = B.constInt(Type::I64, 0);
  for (u32 I = 0; I < Fns.size(); ++I) {
    ValRef A = B.binop(Op::Xor, B.arg(0), B.constInt(Type::I64, I));
    ValRef Bv = B.binop(Op::Add, B.arg(1), B.constInt(Type::I64, I * 3));
    Acc = B.binop(Op::Xor, Acc, B.call(Fns[I], Type::I64, {A, Bv}));
  }
  B.ret(Acc);
  B.finish();
}

std::vector<uir::QueryPlan>
tpde::workloads::genQueryPlans(const QueryProfile &P) {
  std::vector<uir::QueryPlan> Out;
  Out.reserve(P.NumQueries);
  Rng R(P.Seed * 0x9e3779b97f4a7c15ull + 0x7);
  static constexpr uir::UOp Cmps[4] = {uir::UOp::CmpLt, uir::UOp::CmpLe,
                                   uir::UOp::CmpEq, uir::UOp::CmpNe};
  for (u32 Q = 0; Q < P.NumQueries; ++Q) {
    uir::QueryPlan Plan;
    Plan.Name = "gq" + std::to_string(Q);
    u32 NumPreds = 1 + static_cast<u32>(R.below(P.MaxPreds));
    for (u32 I = 0; I < NumPreds; ++I) {
      uir::Pred Pr;
      Pr.Col = static_cast<u32>(R.below(P.NumCols));
      Pr.Cmp = Cmps[R.below(4)];
      Pr.K = R.range(0, P.KeyRange - 1);
      Plan.Preds.push_back(Pr);
    }
    Plan.AggColA = static_cast<u32>(R.below(P.NumCols));
    Plan.AggColB = static_cast<u32>(R.below(P.NumCols));
    Plan.AggK = R.range(-16, 16);
    Plan.Checked = R.chance(1, 2);
    if (R.below(100) < P.FpPredPct) {
      Plan.HasFpPred = true;
      Plan.FpPredCol = static_cast<u32>(R.below(P.NumCols));
      // A small shared threshold set: distinct queries rematerialize the
      // *same* f64 constant, so the per-shard FP pools overlap and the
      // merge-time content dedup has real work to do.
      Plan.FpK = 125.0 * static_cast<double>(1 + R.below(6));
    }
    Out.push_back(std::move(Plan));
  }
  return Out;
}

void tpde::workloads::genQueryModule(uir::UModule &M,
                                     const QueryProfile &P) {
  for (const uir::QueryPlan &Plan : genQueryPlans(P))
    uir::compilePlan(M, Plan);
}

std::vector<NamedProfile> tpde::workloads::specLikeProfiles(bool O0Flavor) {
  // Profiles roughly mimic the IR character of each SPECint benchmark:
  // perl/gcc/xalanc are big and branchy, mcf is memory-bound, x264/xz are
  // arithmetic-loop-heavy, deepsjeng is bit-twiddly, leela has FP.
  auto Mk = [&](const char *Name, u64 Seed, u32 Funcs, u32 Budget, u32 Ipb,
                u32 LoopDepth, u32 Mem, u32 Fp, u32 Call, u32 Branch,
                u32 Narrow) {
    Profile P;
    P.Seed = Seed;
    P.NumFuncs = Funcs;
    P.RegionBudget = Budget;
    P.InstsPerBlock = Ipb;
    P.MaxLoopDepth = LoopDepth;
    P.MemoryPct = Mem;
    P.FloatPct = Fp;
    P.CallPct = Call;
    P.BranchPct = Branch;
    P.NarrowPct = Narrow;
    P.SSAForm = !O0Flavor;
    return NamedProfile{Name, P};
  };
  return {
      Mk("600.perlbench", 600, 48, 12, 7, 1, 30, 0, 8, 45, 25),
      Mk("602.gcc", 602, 64, 16, 8, 2, 25, 0, 6, 40, 15),
      Mk("605.mcf", 605, 16, 10, 8, 2, 45, 0, 2, 25, 5),
      Mk("620.omnetpp", 620, 40, 10, 7, 1, 25, 5, 12, 35, 10),
      Mk("623.xalancbmk", 623, 56, 12, 7, 1, 25, 0, 10, 40, 15),
      Mk("625.x264", 625, 24, 14, 12, 3, 30, 5, 3, 15, 30),
      Mk("631.deepsjeng", 631, 24, 12, 10, 2, 20, 0, 6, 30, 20),
      Mk("641.leela", 641, 24, 12, 9, 2, 20, 25, 6, 25, 5),
      Mk("657.xz", 657, 16, 12, 11, 3, 35, 0, 2, 20, 35),
  };
}

// --- Adversarial generation ------------------------------------------------

const char *tpde::workloads::malformKindName(MalformKind K) {
  switch (K) {
  case MalformKind::DanglingOperand: return "dangling_operand";
  case MalformKind::PhiPredMismatch: return "phi_pred_mismatch";
  case MalformKind::NonDominatingUse: return "non_dominating_use";
  case MalformKind::BadTerminator: return "bad_terminator";
  case MalformKind::DuplicateName: return "duplicate_name";
  }
  return "unknown";
}

u32 tpde::workloads::genMalformed(Module &M, MalformKind K) {
  std::string Name = std::string("bad_") + malformKindName(K);
  switch (K) {
  case MalformKind::DanglingOperand: {
    // x = add(a0, a1); ret x — then point the add's first operand past
    // the value table.
    FunctionBuilder B(M, Name, Type::I64, {Type::I64, Type::I64});
    B.setInsertPoint(B.addBlock("entry"));
    ValRef X = B.binop(Op::Add, B.arg(0), B.arg(1));
    B.ret(X);
    B.finish();
    Function &F = B.func();
    F.OperandPool[F.val(X).OpBegin] = F.valueCount() + 7;
    return B.funcIndex();
  }
  case MalformKind::PhiPredMismatch: {
    // Diamond whose join phi only lists one of its two predecessors.
    FunctionBuilder B(M, Name, Type::I64, {Type::I64, Type::I64});
    BlockRef E = B.addBlock("entry"), B1 = B.addBlock("then"),
             B2 = B.addBlock("else"), B3 = B.addBlock("join");
    B.setInsertPoint(E);
    B.condBr(B.icmp(ICmp::Slt, B.arg(0), B.arg(1)), B1, B2);
    B.setInsertPoint(B1);
    ValRef X = B.binop(Op::Add, B.arg(0), B.arg(1));
    B.br(B3);
    B.setInsertPoint(B2);
    B.br(B3);
    B.setInsertPoint(B3);
    ValRef P = B.phi(Type::I64);
    B.addPhiIncoming(P, B1, X); // missing the B2 incoming
    B.ret(P);
    B.finish();
    return B.funcIndex();
  }
  case MalformKind::NonDominatingUse: {
    // Diamond where one arm's definition is used at the join (the other
    // arm reaches the join without defining it).
    FunctionBuilder B(M, Name, Type::I64, {Type::I64, Type::I64});
    BlockRef E = B.addBlock("entry"), B1 = B.addBlock("then"),
             B2 = B.addBlock("else"), B3 = B.addBlock("join");
    B.setInsertPoint(E);
    B.condBr(B.icmp(ICmp::Slt, B.arg(0), B.arg(1)), B1, B2);
    B.setInsertPoint(B1);
    ValRef X = B.binop(Op::Add, B.arg(0), B.arg(1));
    B.br(B3);
    B.setInsertPoint(B2);
    B.br(B3);
    B.setInsertPoint(B3);
    B.ret(X); // 'then' does not dominate 'join'
    B.finish();
    return B.funcIndex();
  }
  case MalformKind::BadTerminator: {
    // Instruction appended after the block terminator.
    FunctionBuilder B(M, Name, Type::I64, {Type::I64, Type::I64});
    B.setInsertPoint(B.addBlock("entry"));
    B.ret(B.arg(0));
    B.binop(Op::Add, B.arg(0), B.arg(1));
    B.finish();
    return B.funcIndex();
  }
  case MalformKind::DuplicateName: {
    // Two strong definitions of the same symbol; each body is valid, so
    // only the module-level check can catch this.
    u32 Idx = 0;
    for (int I = 0; I < 2; ++I) {
      FunctionBuilder B(M, Name, Type::I64, {Type::I64, Type::I64});
      B.setInsertPoint(B.addBlock("entry"));
      B.ret(B.binop(I == 0 ? Op::Add : Op::Sub, B.arg(0), B.arg(1)));
      B.finish();
      Idx = B.funcIndex();
    }
    return Idx;
  }
  }
  TPDE_UNREACHABLE("bad MalformKind");
}
