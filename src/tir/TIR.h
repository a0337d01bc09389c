//===- tir/TIR.h - Test IR: an LLVM-IR stand-in SSA IR ----------*- C++ -*-===//
///
/// \file
/// TIR is the SSA intermediate representation standing in for LLVM-IR in
/// this reproduction (the paper's §5 case study). It deliberately mirrors
/// the LLVM-IR subset TPDE supports: integers i1..i128, float/double,
/// pointers, phi nodes, static stack slots, and calls. The representation
/// is array-based and densely numbered — every value has a per-function
/// index usable directly as an array index, which is exactly the property
/// the TPDE IR adapter interface wants (paper Fig. 2).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TIR_TIR_H
#define TPDE_TIR_TIR_H

#include "support/Common.h"

#include <string>
#include <vector>

namespace tpde::tir {

/// Value types. I128 is a two-part value for the register allocator.
enum class Type : u8 { Void, I1, I8, I16, I32, I64, I128, F32, F64, Ptr };

/// Size of a type in bytes (Void is 0).
constexpr u32 typeSize(Type T) {
  switch (T) {
  case Type::Void:
    return 0;
  case Type::I1:
  case Type::I8:
    return 1;
  case Type::I16:
    return 2;
  case Type::I32:
    return 4;
  case Type::I64:
  case Type::Ptr:
    return 8;
  case Type::I128:
    return 16;
  case Type::F32:
    return 4;
  case Type::F64:
    return 8;
  }
  TPDE_UNREACHABLE("bad type");
}

constexpr bool isFloatType(Type T) {
  return T == Type::F32 || T == Type::F64;
}
inline bool isIntType(Type T) {
  return T >= Type::I1 && T <= Type::I128;
}

/// Integer comparison predicates (subset of LLVM's icmp).
enum class ICmp : u8 { Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge };
/// Float comparison predicates (ordered subset).
enum class FCmp : u8 { Oeq, One, Olt, Ole, Ogt, Oge };

/// Value kinds. Arguments, stack variables, constants, and globals are
/// values just like instruction results.
enum class ValKind : u8 { Arg, StackVar, ConstInt, ConstFP, GlobalAddr, Inst };

/// Instruction opcodes.
enum class Op : u8 {
  None,
  // Integer binary ops.
  Add, Sub, Mul, UDiv, SDiv, URem, SRem, And, Or, Xor, Shl, LShr, AShr,
  // Comparisons (Aux = predicate).
  ICmpOp, FCmpOp,
  // FP binary ops.
  FAdd, FSub, FMul, FDiv,
  // Unary / casts.
  Neg, Not, FNeg, Zext, Sext, Trunc, FpToSi, SiToFp, FpExt, FpTrunc,
  Bitcast,
  // select cond, a, b
  Select,
  // Memory: Load(ptr), Store(val, ptr). PtrAdd(ptr[, index]) with
  // Aux = scale, Aux2 = constant byte offset: ptr + index*scale + offset.
  Load, Store, PtrAdd,
  // Call: Aux = callee function index, operands are arguments.
  Call,
  // Terminators. Br/CondBr target blocks live in the block's Succs list.
  Ret, Br, CondBr, Unreachable,
  // Phi: operands are incoming values; PhiBlocks holds incoming blocks.
  Phi,
};

inline bool isTerminator(Op O) {
  return O == Op::Ret || O == Op::Br || O == Op::CondBr ||
         O == Op::Unreachable;
}

using ValRef = u32;
using BlockRef = u32;
constexpr u32 InvalidRef = ~0u;

/// One value: argument, stack slot, constant, global address, or
/// instruction result. Stored in a dense per-function array.
// Field order keeps the struct at 32 bytes — exactly two per cache line —
// because the Values array is the single hottest data structure of the
// compile path (docs/PERF.md). Optional debug names live in
// Function::ValueNames, NOT here, for the same reason.
struct Value {
  ValKind Kind = ValKind::Inst;
  Op Opcode = Op::None;
  Type Ty = Type::Void;
  /// Operand list [OpBegin, OpBegin+NumOps) in Function::OperandPool.
  /// For phis: incoming blocks parallel to operands, in
  /// Function::PhiBlockPool at the same positions.
  u32 OpBegin = 0;
  u32 NumOps = 0;
  u32 Block = InvalidRef; ///< Defining block for instructions.
  /// Generic immediate slot: icmp/fcmp predicate, PtrAdd scale, call callee,
  /// argument index, stack-var size, constant low 64 bits, global index.
  u64 Aux = 0;
  /// Second immediate: PtrAdd byte offset, i128-constant high bits,
  /// stack-var alignment.
  u64 Aux2 = 0;
};
static_assert(sizeof(Value) == 32, "Value must stay two-per-cache-line");

/// A basic block: phis, then instructions ending in one terminator.
struct Block {
  std::vector<ValRef> Phis;
  std::vector<ValRef> Insts;
  /// Successor blocks; CondBr uses [0]=true target, [1]=false target.
  std::vector<BlockRef> Succs;
  std::string Name;
  /// 64-bit auxiliary storage exposed through the IR adapter (Fig. 2).
  u64 Aux = 0;
};

/// Linkage for functions and globals.
enum class Linkage : u8 { External, Internal, Weak };

struct Function {
  std::string Name;
  Linkage Link = Linkage::External;
  bool IsDeclaration = false;
  Type RetTy = Type::Void;
  std::vector<Type> ParamTys;

  std::vector<Value> Values;
  std::vector<ValRef> OperandPool;
  std::vector<BlockRef> PhiBlockPool;
  std::vector<Block> Blocks;
  std::vector<ValRef> Args;      ///< Value indices of arguments.
  std::vector<ValRef> StackVars; ///< Value indices of stack variables.
  /// Sparse per-value debug names (printing only); see valueName().
  std::vector<std::string> ValueNames;

  void setValueName(ValRef V, std::string_view N) {
    if (ValueNames.size() <= V)
      ValueNames.resize(V + 1);
    ValueNames[V] = std::string(N);
  }
  std::string_view valueName(ValRef V) const {
    return V < ValueNames.size() ? std::string_view(ValueNames[V])
                                 : std::string_view();
  }

  u32 valueCount() const { return static_cast<u32>(Values.size()); }
  const Value &val(ValRef V) const { return Values[V]; }
  Value &val(ValRef V) { return Values[V]; }

  /// Operand span of an instruction.
  const ValRef *opBegin(const Value &V) const {
    return OperandPool.data() + V.OpBegin;
  }
  ValRef operand(const Value &V, u32 I) const {
    assert(I < V.NumOps && "operand index out of range");
    return OperandPool[V.OpBegin + I];
  }
  BlockRef phiBlock(const Value &V, u32 I) const {
    assert(V.Opcode == Op::Phi && I < V.NumOps && "bad phi access");
    return PhiBlockPool[V.OpBegin + I];
  }
};

struct Global {
  std::string Name;
  Linkage Link = Linkage::External;
  u64 Size = 0;
  u32 Align = 8;
  bool ReadOnly = false;
  bool Defined = true;
  std::vector<u8> Init; ///< Empty means zero-initialized (BSS).
};

struct Module {
  std::vector<Function> Funcs;
  std::vector<Global> Globals;

  /// Returns the index of the function named \p Name or ~0u.
  u32 findFunc(std::string_view Name) const {
    for (u32 I = 0; I < Funcs.size(); ++I)
      if (Funcs[I].Name == Name)
        return I;
    return ~0u;
  }
};

/// Number of register-allocator parts of a TIR value (paper §3.1.2).
inline u32 partCount(Type T) { return T == Type::I128 ? 2 : 1; }
/// Size in bytes of part \p P of a value of type \p T.
constexpr u32 partSize(Type T, u32 P) {
  if (T == Type::I128)
    return 8;
  return typeSize(T);
}
/// Register bank of a part: 0 = GP, 1 = FP.
inline u8 partBank(Type T) { return isFloatType(T) ? 1 : 0; }

} // namespace tpde::tir

#endif // TPDE_TIR_TIR_H
