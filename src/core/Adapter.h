//===- core/Adapter.h - The IR adapter concept ------------------*- C++ -*-===//
///
/// \file
/// The IR adapter is the only way the TPDE framework accesses an IR (paper
/// §3.2, Fig. 2). It is supplied as a template parameter, so all adapter
/// methods inline and no virtual dispatch occurs. This header documents the
/// required interface as a C++20 concept used by Analyzer and CompilerBase.
///
/// Requirements beyond the signatures:
///  * ValRef/BlockRef/FuncRef should be cheap handle types (integers);
///    ModuleT is the IR module type the adapter is constructed from.
///  * valNumber() must be a dense per-function numbering usable as an
///    array index (paper: "suitable as array index for fast lookup").
///  * blockAux() exposes 64 bits of per-block scratch storage that the
///    framework owns between switchFunc() and finalizeFunc().
///  * blockRef(0) must be the entry block.
///  * Values with isConstLike() == true (constants, global addresses,
///    stack-variable addresses) receive no assignment; the derived
///    compiler materializes them on demand (§3.4.1 "trivially
///    recomputable" / constant value parts).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_CORE_ADAPTER_H
#define TPDE_CORE_ADAPTER_H

#include "asmx/Assembler.h"
#include "support/Common.h"

#include <concepts>
#include <span>
#include <string_view>

namespace tpde::core {

template <typename A>
concept IRAdapter = requires(A Ad, const A CAd, typename A::FuncRef F,
                             typename A::BlockRef B, typename A::ValRef V,
                             u32 I) {
  typename A::ModuleT;
  typename A::FuncRef;
  typename A::BlockRef;
  typename A::ValRef;

  // --- Module-level -----------------------------------------------------
  { CAd.funcCount() } -> std::convertible_to<u32>;
  /// Value count of any function without switching to it: the parallel
  /// driver's shard-balancing weight.
  { CAd.funcValueCount(F) } -> std::convertible_to<u32>;
  { CAd.funcRef(I) } -> std::same_as<typename A::FuncRef>;
  { CAd.funcName(F) } -> std::convertible_to<std::string_view>;
  { CAd.funcLinkage(F) } -> std::same_as<asmx::Linkage>;
  { CAd.funcIsDefinition(F) } -> std::convertible_to<bool>;

  // --- Function switching ------------------------------------------------
  { Ad.switchFunc(F) };
  { Ad.finalizeFunc() };

  // --- Current function --------------------------------------------------
  { CAd.valueCount() } -> std::convertible_to<u32>;
  { CAd.blockCount() } -> std::convertible_to<u32>;
  { CAd.blockRef(I) } -> std::same_as<typename A::BlockRef>;
  { Ad.blockAux(B) } -> std::same_as<u64 &>;
  { CAd.blockSuccs(B) } -> std::convertible_to<std::span<const typename A::BlockRef>>;
  { CAd.blockPhis(B) } -> std::convertible_to<std::span<const typename A::ValRef>>;
  { CAd.blockInsts(B) } -> std::convertible_to<std::span<const typename A::ValRef>>;
  { CAd.funcArgs() } -> std::convertible_to<std::span<const typename A::ValRef>>;

  // --- Values ---------------------------------------------------------------
  { CAd.valNumber(V) } -> std::convertible_to<u32>;
  { CAd.valPartCount(V) } -> std::convertible_to<u32>;
  { CAd.valPartSize(V, I) } -> std::convertible_to<u32>;
  { CAd.valPartBank(V, I) } -> std::convertible_to<u8>;
  { CAd.isConstLike(V) } -> std::convertible_to<bool>;

  // --- Instructions and phis --------------------------------------------
  { CAd.instOperands(V) } -> std::convertible_to<std::span<const typename A::ValRef>>;
  { CAd.phiIncomingCount(V) } -> std::convertible_to<u32>;
  { CAd.phiIncomingBlock(V, I) } -> std::same_as<typename A::BlockRef>;
  { CAd.phiIncomingValue(V, I) } -> std::same_as<typename A::ValRef>;
};

} // namespace tpde::core

#endif // TPDE_CORE_ADAPTER_H
