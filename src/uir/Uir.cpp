//===- uir/Uir.cpp - Query compilation, data, DirectEmit, UIR->TIR --------===//

#include "uir/UIR.h"
#include "tir/Builder.h"
#include "x64/Encoder.h"

#include <bit>
#include <cstdio>

using namespace tpde;
using namespace tpde::uir;

// --- Plan -> UIR -----------------------------------------------------------

u32 tpde::uir::compilePlan(UModule &M, const QueryPlan &P) {
  UFunc F;
  F.Name = P.Name;
  // Args: value 0 = columns array (ptr), value 1 = row count (i64).
  F.push(UInst{UOp::ConstI, UTy::Ptr});
  F.push(UInst{UOp::ConstI, UTy::I64});
  F.Blocks.resize(3);
  auto inst = [&](u32 Blk, UInst I) {
    I.Block = Blk;
    u32 V = F.push(I);
    F.Blocks[Blk].Insts.push_back(V);
    return V;
  };
  auto phi = [&](u32 Blk, UTy Ty) {
    UInst I;
    I.Op = UOp::Phi;
    I.Ty = Ty;
    I.Block = Blk;
    u32 V = F.push(I);
    F.Blocks[Blk].Phis.push_back(V);
    return V;
  };
  auto konst = [&](u32 Blk, i64 K) {
    UInst I;
    I.Op = UOp::ConstI;
    I.Ty = UTy::I64;
    I.Aux = static_cast<u64>(K);
    I.Block = Blk;
    return F.push(I); // constants are materialized at use
  };

  // b0: entry -> b1
  inst(0, UInst{UOp::Br});
  F.Blocks[0].Succs = {1};
  // b1: loop
  u32 IPhi = phi(1, UTy::I64);
  u32 SumPhi = phi(1, UTy::I64);
  u32 Pass = konst(1, 1);
  auto loadCol = [&](u32 Col) {
    UInst CA{UOp::ColAddr, UTy::Ptr};
    CA.Ops[0] = 0;
    CA.Aux = Col;
    u32 Base = inst(1, CA);
    UInst PI{UOp::PtrIdx, UTy::Ptr};
    PI.Ops[0] = Base;
    PI.Ops[1] = IPhi;
    PI.Aux = 8;
    u32 Addr = inst(1, PI);
    UInst LD{UOp::Load, UTy::I64};
    LD.Ops[0] = Addr;
    return inst(1, LD);
  };
  for (const Pred &Pr : P.Preds) {
    u32 V = loadCol(Pr.Col);
    UInst C{Pr.Cmp, UTy::I64};
    C.Ops[0] = V;
    C.Ops[1] = konst(1, Pr.K);
    u32 CV = inst(1, C);
    UInst A{UOp::And, UTy::I64};
    A.Ops[0] = Pass;
    A.Ops[1] = CV;
    Pass = inst(1, A);
  }
  if (P.HasFpPred) {
    // i2f(col) < fpK — the threshold is a ConstF that is *not* in any
    // block's instruction list: the back-ends materialize it at use
    // (the rematerialized-f64-constant path).
    u32 V = loadCol(P.FpPredCol);
    UInst Cv{UOp::I2F, UTy::F64};
    Cv.Ops[0] = V;
    u32 FV = inst(1, Cv);
    UInst KF{UOp::ConstF, UTy::F64};
    KF.Aux = std::bit_cast<u64>(P.FpK);
    KF.Block = 1;
    u32 KV = F.push(KF);
    UInst C{UOp::FCmpLt, UTy::Bool};
    C.Ops[0] = FV;
    C.Ops[1] = KV;
    u32 CV = inst(1, C);
    UInst A{UOp::And, UTy::I64};
    A.Ops[0] = Pass;
    A.Ops[1] = CV;
    Pass = inst(1, A);
  }
  u32 ValA = loadCol(P.AggColA);
  u32 ValB = loadCol(P.AggColB);
  UInst Mul{UOp::Mul, UTy::I64};
  Mul.Ops[0] = ValA;
  Mul.Ops[1] = ValB;
  u32 Prod = inst(1, Mul);
  UInst AddK{UOp::Add, UTy::I64};
  AddK.Ops[0] = Prod;
  AddK.Ops[1] = konst(1, P.AggK);
  u32 T = inst(1, AddK);
  UInst Gate{UOp::Mul, UTy::I64};
  Gate.Ops[0] = T;
  Gate.Ops[1] = Pass;
  u32 Contrib = inst(1, Gate);
  UInst Acc{P.Checked ? UOp::SAddTrap : UOp::Add, UTy::I64};
  Acc.Ops[0] = SumPhi;
  Acc.Ops[1] = Contrib;
  u32 Sum2 = inst(1, Acc);
  UInst Inc{UOp::Add, UTy::I64};
  Inc.Ops[0] = IPhi;
  Inc.Ops[1] = konst(1, 1);
  u32 I2 = inst(1, Inc);
  UInst Cmp{UOp::CmpLt, UTy::I64};
  Cmp.Ops[0] = I2;
  Cmp.Ops[1] = 1; // row count arg
  u32 Cond = inst(1, Cmp);
  UInst CB{UOp::CondBr};
  CB.Ops[0] = Cond;
  inst(1, CB);
  F.Blocks[1].Succs = {1, 2};
  // Phi incomings.
  F.Vals[IPhi].InBlock[0] = 0;
  F.Vals[IPhi].InVal[0] = konst(0, 0);
  F.Vals[IPhi].InBlock[1] = 1;
  F.Vals[IPhi].InVal[1] = I2;
  F.Vals[SumPhi].InBlock[0] = 0;
  F.Vals[SumPhi].InVal[0] = konst(0, 0);
  F.Vals[SumPhi].InBlock[1] = 1;
  F.Vals[SumPhi].InVal[1] = Sum2;
  // b2: ret sum2
  UInst Ret{UOp::Ret};
  Ret.Ops[0] = Sum2;
  inst(2, Ret);

  M.Funcs.push_back(std::move(F));
  return static_cast<u32>(M.Funcs.size() - 1);
}

std::vector<QueryPlan> tpde::uir::tpcdsLikePlans() {
  std::vector<QueryPlan> Out;
  // 20 variants mixing selectivity, predicate count, and aggregates,
  // shaped like TPC-DS scan-heavy aggregation queries.
  for (u32 Q = 0; Q < 20; ++Q) {
    QueryPlan P;
    // Formatted into a buffer: appending a std::to_string temporary trips
    // libstdc++'s -Wrestrict under GCC 12 with sanitizers.
    char Name[16];
    std::snprintf(Name, sizeof(Name), "q%u", static_cast<unsigned>(Q + 1));
    P.Name = Name;
    u32 NumPreds = 1 + Q % 4;
    for (u32 I = 0; I < NumPreds; ++I) {
      Pred Pr;
      Pr.Col = (Q + I) % 6;
      Pr.Cmp = I % 3 == 0 ? UOp::CmpLt : (I % 3 == 1 ? UOp::CmpNe
                                                     : UOp::CmpLe);
      Pr.K = static_cast<i64>((Q * 37 + I * 11) % 1000);
      P.Preds.push_back(Pr);
    }
    P.AggColA = Q % 6;
    P.AggColB = (Q + 3) % 6;
    P.AggK = Q;
    P.Checked = Q % 2 == 0;
    Out.push_back(std::move(P));
  }
  return Out;
}

// --- Data ------------------------------------------------------------------

tpde::uir::Table::Table(u32 NumCols, u64 Rows, u64 Seed)
    : NumCols(NumCols), Rows(Rows) {
  u64 S = Seed * 6364136223846793005ull + 1442695040888963407ull;
  Cols.resize(NumCols);
  for (u32 C = 0; C < NumCols; ++C) {
    Cols[C].resize(Rows);
    for (u64 R = 0; R < Rows; ++R) {
      S = S * 6364136223846793005ull + 1442695040888963407ull;
      Cols[C][R] = static_cast<i64>((S >> 33) % 1000);
    }
  }
  for (u32 C = 0; C < NumCols; ++C)
    ColPtrs.push_back(Cols[C].data());
}

i64 tpde::uir::evalPlan(const QueryPlan &P, const Table &T) {
  i64 Sum = 0;
  for (u64 R = 0; R < T.Rows; ++R) {
    i64 Pass = 1;
    for (const Pred &Pr : P.Preds) {
      i64 V = T.Cols[Pr.Col][R];
      bool B = Pr.Cmp == UOp::CmpLt   ? V < Pr.K
               : Pr.Cmp == UOp::CmpLe ? V <= Pr.K
               : Pr.Cmp == UOp::CmpEq ? V == Pr.K
                                      : V != Pr.K;
      Pass &= B ? 1 : 0;
    }
    if (P.HasFpPred)
      Pass &= static_cast<double>(T.Cols[P.FpPredCol][R]) < P.FpK ? 1 : 0;
    Sum += (T.Cols[P.AggColA][R] * T.Cols[P.AggColB][R] + P.AggK) * Pass;
  }
  return Sum;
}

// --- UIR -> TIR (the "LLVM path" translation of §7) -------------------------

namespace tpde::uir {

bool translateToTir(const UModule &M, tir::Module &Out) {
  for (const UFunc &F : M.Funcs) {
    tir::FunctionBuilder B(Out, F.Name, tir::Type::I64,
                           {tir::Type::Ptr, tir::Type::I64});
    std::vector<tir::ValRef> Map(F.Vals.size(), tir::InvalidRef);
    Map[0] = B.arg(0);
    Map[1] = B.arg(1);
    for (u32 Blk = 0; Blk < F.Blocks.size(); ++Blk) {
      char BlockName[16];
      std::snprintf(BlockName, sizeof(BlockName), "b%u",
                    static_cast<unsigned>(Blk));
      B.addBlock(BlockName);
    }
    auto val = [&](u32 V) -> tir::ValRef {
      if (Map[V] != tir::InvalidRef)
        return Map[V];
      const UInst &I = F.Vals[V];
      assert(I.Op == UOp::ConstI || I.Op == UOp::ConstF);
      if (I.Op == UOp::ConstF)
        return Map[V] = B.constF64(std::bit_cast<double>(I.Aux));
      return Map[V] = B.constInt(tir::Type::I64, I.Aux);
    };
    // Phis first.
    for (u32 Blk = 0; Blk < F.Blocks.size(); ++Blk) {
      B.setInsertPoint(Blk);
      for (u32 P : F.Blocks[Blk].Phis)
        Map[P] = B.phi(tir::Type::I64);
    }
    for (u32 Blk = 0; Blk < F.Blocks.size(); ++Blk) {
      B.setInsertPoint(Blk);
      for (u32 VI : F.Blocks[Blk].Insts) {
        const UInst &I = F.Vals[VI];
        switch (I.Op) {
        case UOp::ColAddr: {
          tir::ValRef P =
              B.ptrAdd(val(I.Ops[0]), tir::InvalidRef, 1,
                       static_cast<i64>(8 * I.Aux));
          Map[VI] = B.load(tir::Type::Ptr, P);
          break;
        }
        case UOp::PtrIdx:
          Map[VI] = B.ptrAdd(val(I.Ops[0]), val(I.Ops[1]), I.Aux, 0);
          break;
        case UOp::Load:
          Map[VI] = B.load(tir::Type::I64, val(I.Ops[0]));
          break;
        case UOp::Add:
        case UOp::SAddTrap: // the LLVM path lowers the trap check away
          Map[VI] = B.binop(tir::Op::Add, val(I.Ops[0]), val(I.Ops[1]));
          break;
        case UOp::Sub:
          Map[VI] = B.binop(tir::Op::Sub, val(I.Ops[0]), val(I.Ops[1]));
          break;
        case UOp::Mul:
          Map[VI] = B.binop(tir::Op::Mul, val(I.Ops[0]), val(I.Ops[1]));
          break;
        case UOp::And:
          Map[VI] = B.binop(tir::Op::And, val(I.Ops[0]), val(I.Ops[1]));
          break;
        case UOp::I2F:
          Map[VI] = B.cast(tir::Op::SiToFp, tir::Type::F64, val(I.Ops[0]));
          break;
        case UOp::FAdd:
          Map[VI] = B.binop(tir::Op::FAdd, val(I.Ops[0]), val(I.Ops[1]));
          break;
        case UOp::FMul:
          Map[VI] = B.binop(tir::Op::FMul, val(I.Ops[0]), val(I.Ops[1]));
          break;
        case UOp::FCmpLt:
          Map[VI] = B.cast(tir::Op::Zext, tir::Type::I64,
                           B.fcmp(tir::FCmp::Olt, val(I.Ops[0]),
                                  val(I.Ops[1])));
          break;
        case UOp::CmpLt:
        case UOp::CmpLe:
        case UOp::CmpEq:
        case UOp::CmpNe: {
          tir::ICmp P = I.Op == UOp::CmpLt   ? tir::ICmp::Slt
                        : I.Op == UOp::CmpLe ? tir::ICmp::Sle
                        : I.Op == UOp::CmpEq ? tir::ICmp::Eq
                                             : tir::ICmp::Ne;
          Map[VI] = B.cast(tir::Op::Zext, tir::Type::I64,
                           B.icmp(P, val(I.Ops[0]), val(I.Ops[1])));
          break;
        }
        case UOp::Br:
          B.br(F.Blocks[Blk].Succs[0]);
          break;
        case UOp::CondBr: {
          tir::ValRef C = B.icmp(tir::ICmp::Ne, val(I.Ops[0]),
                                 B.constInt(tir::Type::I64, 0));
          B.condBr(C, F.Blocks[Blk].Succs[0], F.Blocks[Blk].Succs[1]);
          break;
        }
        case UOp::Ret:
          B.ret(val(I.Ops[0]));
          break;
        default:
          return false;
        }
      }
    }
    for (u32 Blk = 0; Blk < F.Blocks.size(); ++Blk) {
      for (u32 P : F.Blocks[Blk].Phis) {
        const UInst &I = F.Vals[P];
        for (int K = 0; K < 2; ++K)
          if (I.InBlock[K] != ~0u)
            B.addPhiIncoming(Map[P], I.InBlock[K], val(I.InVal[K]));
      }
    }
    B.finish();
  }
  return true;
}

// --- DirectEmit stand-in -----------------------------------------------------

/// Umbra's DirectEmit analog: a two-pass, completely specialized compiler
/// for UIR query functions. Pass 1 counts uses; pass 2 emits x86-64
/// directly, pinning the loop-carried phis into callee-saved registers
/// and evaluating the expression chain in scratch registers via a tiny
/// value->register map. No general register allocator, no IR.
bool compileDirectEmit(const UModule &M, asmx::Assembler &Asm) {
  using namespace tpde::x64;
  Emitter E(Asm);
  for (const UFunc &F : M.Funcs) {
    asmx::SymRef Sym =
        Asm.createSymbol(F.Name, asmx::Linkage::External, true);
    Asm.text().alignToBoundary(16);
    u64 Start = Asm.text().size();
    Asm.defineSymbol(Sym, asmx::SecKind::Text, Start, 0);
    Asm.resetLabels();

    // Pass 1: use counts (drives register recycling in pass 2).
    std::vector<u8> Uses(F.Vals.size(), 0);
    for (const UInst &I : F.Vals) {
      for (u32 Op : I.Ops)
        if (Op != ~0u)
          ++Uses[Op];
      for (int K = 0; K < 2; ++K)
        if (I.InVal[K] != ~0u)
          ++Uses[I.InVal[K]];
    }

    // Pass 2: direct emission. Phis live in rbx/r12 (there are exactly
    // two in a scan query: index and accumulator); expression temporaries
    // are recycled using the pass-1 use counts (Tidy-Tuples style).
    E.push(RBP);
    E.movRR(8, RBP, RSP);
    E.push(RBX);
    E.push(R12);
    // args: rdi = columns, rsi = rows
    std::vector<AsmReg> Loc(F.Vals.size(), NoReg);
    std::vector<AsmReg> Free = {RAX, RCX, RDX, R8, R9, R10, R11};
    auto alloc = [&](u32 V) {
      assert(!Free.empty() && "DirectEmit scratch pool exhausted");
      AsmReg R = Free.back();
      Free.pop_back();
      Loc[V] = R;
      return R;
    };
    auto release = [&](u32 V) {
      if (V == ~0u || V < 2 || F.Vals[V].Op == UOp::Phi)
        return;
      if (--Uses[V] == 0 && Loc[V].isValid()) {
        Free.push_back(Loc[V]);
        Loc[V] = NoReg;
      }
    };
    AsmReg PhiRegs[2] = {RBX, R12};
    asmx::Label Loop = Asm.makeLabel(), Exit = Asm.makeLabel();

    // Entry: initialize the phis.
    u32 PhiIdx = 0;
    for (u32 P : F.Blocks[1].Phis) {
      const UInst &I = F.Vals[P];
      E.movRI(PhiRegs[PhiIdx], F.Vals[I.InVal[0]].Aux);
      Loc[P] = PhiRegs[PhiIdx];
      ++PhiIdx;
    }
    Asm.bindLabel(Loop);
    u32 SumNew = ~0u, IdxNew = ~0u;
    for (u32 VI : F.Blocks[1].Insts) {
      const UInst &I = F.Vals[VI];
      auto src = [&](u32 V) -> AsmReg {
        if (Loc[V].isValid())
          return Loc[V];
        // Unmaterialized constant.
        AsmReg R = alloc(V);
        E.movRI(R, F.Vals[V].Aux);
        return R;
      };
      auto finish = [&]() {
        release(I.Ops[0]);
        release(I.Ops[1]);
      };
      switch (I.Op) {
      case UOp::ColAddr:
        E.load(8, alloc(VI), Mem(RDI, static_cast<i32>(8 * I.Aux)));
        finish();
        break;
      case UOp::PtrIdx: {
        AsmReg Base = src(I.Ops[0]), Idx = src(I.Ops[1]);
        E.lea(alloc(VI), Mem(Base, Idx, static_cast<u8>(I.Aux), 0));
        finish();
        break;
      }
      case UOp::Load: {
        AsmReg A = src(I.Ops[0]);
        E.load(8, alloc(VI), Mem(A, 0));
        finish();
        break;
      }
      case UOp::Add:
      case UOp::SAddTrap:
      case UOp::Sub:
      case UOp::Mul:
      case UOp::And: {
        AsmReg L = src(I.Ops[0]), R = src(I.Ops[1]);
        AsmReg D = alloc(VI);
        E.movRR(8, D, L);
        if (I.Op == UOp::Mul)
          E.imulRR(8, D, R);
        else
          E.aluRR(I.Op == UOp::Sub   ? AluOp::Sub
                  : I.Op == UOp::And ? AluOp::And
                                     : AluOp::Add,
                  8, D, R);
        if (I.Op == UOp::SAddTrap) {
          // Checked add: trap on overflow (ud2 analog of Umbra's trap).
          asmx::Label Ok = Asm.makeLabel();
          E.jccLabel(Cond::NO, Ok);
          E.ud2();
          Asm.bindLabel(Ok);
        }
        // Track accumulator updates: phi[1] is the sum.
        if (I.Ops[0] == F.Blocks[1].Phis[1] || I.Op == UOp::SAddTrap)
          SumNew = VI;
        if (I.Ops[0] == F.Blocks[1].Phis[0])
          IdxNew = VI;
        finish();
        break;
      }
      case UOp::CmpLt:
      case UOp::CmpLe:
      case UOp::CmpEq:
      case UOp::CmpNe: {
        AsmReg L = src(I.Ops[0]),
               R = I.Ops[1] == 1 ? RSI : src(I.Ops[1]);
        AsmReg D = alloc(VI);
        E.aluRR(AluOp::Cmp, 8, L, R);
        E.setcc(I.Op == UOp::CmpLt   ? Cond::L
                : I.Op == UOp::CmpLe ? Cond::LE
                : I.Op == UOp::CmpEq ? Cond::E
                                     : Cond::NE,
                D);
        E.movzxRR(1, D, D);
        finish();
        break;
      }
      case UOp::CondBr: {
        // Loop back-edge: move the new phi values into the pinned regs.
        if (SumNew != ~0u)
          E.movRR(8, R12, Loc[SumNew]);
        if (IdxNew != ~0u)
          E.movRR(8, RBX, Loc[IdxNew]);
        AsmReg C = Loc[I.Ops[0]];
        E.testRR(8, C, C);
        E.jccLabel(Cond::NE, Loop);
        E.jmpLabel(Exit);
        break;
      }
      default:
        return false;
      }
    }
    Asm.bindLabel(Exit);
    E.movRR(8, RAX, R12); // sum
    E.pop(R12);
    E.pop(RBX);
    E.pop(RBP);
    E.ret();
    Asm.setSymbolSize(Sym, Asm.text().size() - Start);
  }
  return !Asm.hasError();
}

} // namespace tpde::uir
