//===- tir/Printer.cpp - Textual output for TIR ---------------------------===//

#include "tir/Printer.h"

using namespace tpde;
using namespace tpde::tir;

std::string tpde::tir::printType(Type T) {
  switch (T) {
  case Type::Void:
    return "void";
  case Type::I1:
    return "i1";
  case Type::I8:
    return "i8";
  case Type::I16:
    return "i16";
  case Type::I32:
    return "i32";
  case Type::I64:
    return "i64";
  case Type::I128:
    return "i128";
  case Type::F32:
    return "f32";
  case Type::F64:
    return "f64";
  case Type::Ptr:
    return "ptr";
  }
  TPDE_UNREACHABLE("bad type");
}

namespace {

const char *opName(Op O) {
  switch (O) {
  case Op::Add: return "add";
  case Op::Sub: return "sub";
  case Op::Mul: return "mul";
  case Op::UDiv: return "udiv";
  case Op::SDiv: return "sdiv";
  case Op::URem: return "urem";
  case Op::SRem: return "srem";
  case Op::And: return "and";
  case Op::Or: return "or";
  case Op::Xor: return "xor";
  case Op::Shl: return "shl";
  case Op::LShr: return "lshr";
  case Op::AShr: return "ashr";
  case Op::FAdd: return "fadd";
  case Op::FSub: return "fsub";
  case Op::FMul: return "fmul";
  case Op::FDiv: return "fdiv";
  case Op::Neg: return "neg";
  case Op::Not: return "not";
  case Op::FNeg: return "fneg";
  case Op::Zext: return "zext";
  case Op::Sext: return "sext";
  case Op::Trunc: return "trunc";
  case Op::FpToSi: return "fptosi";
  case Op::SiToFp: return "sitofp";
  case Op::FpExt: return "fpext";
  case Op::FpTrunc: return "fptrunc";
  case Op::Bitcast: return "bitcast";
  case Op::Select: return "select";
  // ICmpOp/FCmpOp carry their predicate in Aux and are printed by the
  // dedicated printInst cases; the generic names keep opName total.
  case Op::ICmpOp: return "icmp";
  case Op::FCmpOp: return "fcmp";
  case Op::Load: return "load";
  case Op::Store: return "store";
  case Op::PtrAdd: return "ptradd";
  case Op::Call: return "call";
  case Op::Ret: return "ret";
  case Op::Br: return "br";
  case Op::CondBr: return "condbr";
  case Op::Unreachable: return "unreachable";
  case Op::Phi: return "phi";
  case Op::None: return "none";
  }
  TPDE_UNREACHABLE("bad op");
}

const char *icmpName(ICmp P) {
  switch (P) {
  case ICmp::Eq: return "eq";
  case ICmp::Ne: return "ne";
  case ICmp::Ult: return "ult";
  case ICmp::Ule: return "ule";
  case ICmp::Ugt: return "ugt";
  case ICmp::Uge: return "uge";
  case ICmp::Slt: return "slt";
  case ICmp::Sle: return "sle";
  case ICmp::Sgt: return "sgt";
  case ICmp::Sge: return "sge";
  }
  TPDE_UNREACHABLE("bad icmp pred");
}

const char *fcmpName(FCmp P) {
  switch (P) {
  case FCmp::Oeq: return "oeq";
  case FCmp::One: return "one";
  case FCmp::Olt: return "olt";
  case FCmp::Ole: return "ole";
  case FCmp::Ogt: return "ogt";
  case FCmp::Oge: return "oge";
  }
  TPDE_UNREACHABLE("bad fcmp pred");
}

class FuncPrinter {
public:
  FuncPrinter(const Module &M, const Function &F) : M(M), F(F) {}

  std::string run() {
    Out += "func @" + F.Name + "(";
    for (u32 I = 0; I < F.Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printType(F.ParamTys[I]) + " " + valName(F.Args[I]);
    }
    Out += ") -> " + printType(F.RetTy) + " {\n";
    for (u32 B = 0; B < F.Blocks.size(); ++B) {
      Out += blockName(B) + ":\n";
      for (ValRef P : F.Blocks[B].Phis)
        printPhi(P);
      for (ValRef I : F.Blocks[B].Insts)
        printInst(B, I);
    }
    Out += "}\n";
    return Out;
  }

private:
  std::string blockName(BlockRef B) const {
    const std::string &N = F.Blocks[B].Name;
    if (!N.empty())
      return N;
    std::string S = "b";
    S += std::to_string(B);
    return S;
  }

  std::string valName(ValRef R) {
    const Value &V = F.val(R);
    switch (V.Kind) {
    case ValKind::ConstInt:
      if (V.Ty == Type::I128 && V.Aux2)
        return "i128(" + std::to_string(V.Aux) + ", " +
               std::to_string(V.Aux2) + ")";
      return std::to_string(static_cast<i64>(V.Aux));
    case ValKind::ConstFP: {
      char Buf[64];
      if (V.Ty == Type::F32) {
        float Fl;
        u32 B32 = static_cast<u32>(V.Aux);
        __builtin_memcpy(&Fl, &B32, 4);
        std::snprintf(Buf, sizeof(Buf), "%a", static_cast<double>(Fl));
      } else {
        double D;
        __builtin_memcpy(&D, &V.Aux, 8);
        std::snprintf(Buf, sizeof(Buf), "%a", D);
      }
      return Buf;
    }
    case ValKind::GlobalAddr:
      return "@" + M.Globals[V.Aux].Name;
    default:
      std::string S = "%";
      if (std::string_view N = F.valueName(R); !N.empty())
        S += N;
      else
        S.append("v").append(std::to_string(R));
      return S;
    }
  }

  void printPhi(ValRef R) {
    const Value &V = F.val(R);
    Out += "  " + valName(R) + " = phi " + printType(V.Ty);
    for (u32 I = 0; I < V.NumOps; ++I) {
      Out += I ? ", [" : " [";
      Out += blockName(F.phiBlock(V, I)) + ": " + valName(F.operand(V, I));
      Out += "]";
    }
    Out += "\n";
  }

  void printInst(BlockRef B, ValRef R) {
    const Value &V = F.val(R);
    Out += "  ";
    if (V.Ty != Type::Void)
      Out += valName(R) + " = ";
    switch (V.Opcode) {
    case Op::ICmpOp:
      Out += "icmp " + std::string(icmpName(static_cast<ICmp>(V.Aux))) + " " +
             printType(F.val(F.operand(V, 0)).Ty) + " " +
             valName(F.operand(V, 0)) + ", " + valName(F.operand(V, 1));
      break;
    case Op::FCmpOp:
      Out += "fcmp " + std::string(fcmpName(static_cast<FCmp>(V.Aux))) + " " +
             printType(F.val(F.operand(V, 0)).Ty) + " " +
             valName(F.operand(V, 0)) + ", " + valName(F.operand(V, 1));
      break;
    case Op::Load:
      Out += "load " + printType(V.Ty) + ", " + valName(F.operand(V, 0));
      break;
    case Op::Store:
      Out += "store " + printType(F.val(F.operand(V, 0)).Ty) + " " +
             valName(F.operand(V, 0)) + ", " + valName(F.operand(V, 1));
      break;
    case Op::PtrAdd:
      Out += "ptradd " + valName(F.operand(V, 0));
      if (V.NumOps > 1)
        Out += ", " + valName(F.operand(V, 1)) + ", scale " +
               std::to_string(V.Aux);
      Out += ", off " + std::to_string(static_cast<i64>(V.Aux2));
      break;
    case Op::Call: {
      Out += "call " + printType(V.Ty) + " @" + M.Funcs[V.Aux].Name + "(";
      for (u32 I = 0; I < V.NumOps; ++I) {
        if (I)
          Out += ", ";
        Out += valName(F.operand(V, I));
      }
      Out += ")";
      break;
    }
    case Op::Ret:
      Out += "ret";
      if (V.NumOps)
        Out += " " + printType(F.val(F.operand(V, 0)).Ty) + " " +
               valName(F.operand(V, 0));
      break;
    case Op::Br:
      Out += "br " + blockName(F.Blocks[B].Succs[0]);
      break;
    case Op::CondBr:
      Out += "condbr " + valName(F.operand(V, 0)) + ", " +
             blockName(F.Blocks[B].Succs[0]) + ", " +
             blockName(F.Blocks[B].Succs[1]);
      break;
    default: {
      Out += std::string(opName(V.Opcode)) + " " + printType(V.Ty);
      for (u32 I = 0; I < V.NumOps; ++I)
        Out += (I ? ", " : " ") + valName(F.operand(V, I));
      break;
    }
    }
    Out += "\n";
  }

  const Module &M;
  const Function &F;
  std::string Out;
};

} // namespace

std::string tpde::tir::printFunction(const Module &M, const Function &F) {
  return FuncPrinter(M, F).run();
}

std::string tpde::tir::printModule(const Module &M) {
  std::string Out;
  for (const Global &G : M.Globals)
    Out += "global @" + G.Name + " size " + std::to_string(G.Size) +
           " align " + std::to_string(G.Align) + (G.ReadOnly ? " ro" : "") +
           "\n";
  for (const Function &F : M.Funcs) {
    if (F.IsDeclaration) {
      Out += "declare @" + F.Name + "\n";
      continue;
    }
    Out += printFunction(M, F);
  }
  return Out;
}
