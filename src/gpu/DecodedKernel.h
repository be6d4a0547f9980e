//===- DecodedKernel.h - load-time pre-decoded machine code -----*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor's form of a loaded kernel. Device::loadKernel decodes the
/// MachineFunction once, after relocations are patched, into a flat op
/// stream with everything the interpreter would otherwise recompute per
/// executed instruction resolved ahead of time: the pir::Type of the
/// operation, branch targets, memory access widths and a handler id. Hot
/// (opcode, type) pairs get their own handler with the operation inlined;
/// every other operation calls the shared pir::sem evaluators.
///
/// The static hardware counters (instructions, VALU/SALU split,
/// transcendental, division, spill traffic, branches, barriers) depend only
/// on which instructions execute, so each block carries its counter mix and
/// the executor counts block entries; memory, L2 and atomic counters stay
/// dynamic.
///
/// A decoded kernel is immutable after load and shared by every thread
/// that launches it.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_DECODEDKERNEL_H
#define PROTEUS_GPU_DECODEDKERNEL_H

#include "codegen/MachineIR.h"
#include "ir/OpSemantics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace proteus {
namespace gpu {

/// f32/f64 arithmetic on boxed operands, with the pinned NaN result of
/// pir::sem::fpArith.
#define PROTEUS_FP32(A, B, OP)                                                 \
  pir::sem::boxF32(pir::sem::fpArith(pir::sem::unboxF32(A),                    \
                                     pir::sem::unboxF32(B),                    \
                                     [](float P, float Q) { return P OP Q; }))
#define PROTEUS_FP64(A, B, OP)                                                 \
  pir::sem::boxF64(pir::sem::fpArith(pir::sem::unboxF64(A),                    \
                                     pir::sem::unboxF64(B),                    \
                                     [](double P, double Q) { return P OP Q; }))

/// The specialized handlers: X(Name, MOp, Aux, operand type kind, Expr).
/// Expr computes the result from the operand registers A and B and the
/// immediate Imm; it must equal the generic pir::sem evaluation bit for
/// bit (decoded_executor_test checks each one on edge operands).
#define PROTEUS_FAST_HANDLERS(X)                                               \
  X(AddI32, Binary, pir::ValueKind::Add, I32, uint32_t(A + B))                 \
  X(SubI32, Binary, pir::ValueKind::Sub, I32, uint32_t(A - B))                 \
  X(MulI32, Binary, pir::ValueKind::Mul, I32, uint32_t(A * B))                 \
  X(AndI32, Binary, pir::ValueKind::And, I32, uint32_t(A & B))                 \
  X(OrI32, Binary, pir::ValueKind::Or, I32, uint32_t(A | B))                   \
  X(XorI32, Binary, pir::ValueKind::Xor, I32, uint32_t(A ^ B))                 \
  X(AddI64, Binary, pir::ValueKind::Add, I64, A + B)                           \
  X(SubI64, Binary, pir::ValueKind::Sub, I64, A - B)                           \
  X(MulI64, Binary, pir::ValueKind::Mul, I64, A * B)                           \
  X(AndI64, Binary, pir::ValueKind::And, I64, A & B)                           \
  X(OrI64, Binary, pir::ValueKind::Or, I64, A | B)                             \
  X(XorI64, Binary, pir::ValueKind::Xor, I64, A ^ B)                           \
  X(FAddF32, Binary, pir::ValueKind::FAdd, F32, PROTEUS_FP32(A, B, +))         \
  X(FSubF32, Binary, pir::ValueKind::FSub, F32, PROTEUS_FP32(A, B, -))         \
  X(FMulF32, Binary, pir::ValueKind::FMul, F32, PROTEUS_FP32(A, B, *))         \
  X(FAddF64, Binary, pir::ValueKind::FAdd, F64, PROTEUS_FP64(A, B, +))         \
  X(FSubF64, Binary, pir::ValueKind::FSub, F64, PROTEUS_FP64(A, B, -))         \
  X(FMulF64, Binary, pir::ValueKind::FMul, F64, PROTEUS_FP64(A, B, *))         \
  X(EqI32, ICmp, pir::ICmpPred::EQ, I32, uint32_t(A) == uint32_t(B))           \
  X(NeI32, ICmp, pir::ICmpPred::NE, I32, uint32_t(A) != uint32_t(B))           \
  X(SltI32, ICmp, pir::ICmpPred::SLT, I32, int32_t(A) < int32_t(B))            \
  X(SleI32, ICmp, pir::ICmpPred::SLE, I32, int32_t(A) <= int32_t(B))           \
  X(SgtI32, ICmp, pir::ICmpPred::SGT, I32, int32_t(A) > int32_t(B))            \
  X(SgeI32, ICmp, pir::ICmpPred::SGE, I32, int32_t(A) >= int32_t(B))           \
  X(UltI32, ICmp, pir::ICmpPred::ULT, I32, uint32_t(A) < uint32_t(B))          \
  X(UgeI32, ICmp, pir::ICmpPred::UGE, I32, uint32_t(A) >= uint32_t(B))         \
  X(EqI64, ICmp, pir::ICmpPred::EQ, I64, A == B)                               \
  X(NeI64, ICmp, pir::ICmpPred::NE, I64, A != B)                               \
  X(SltI64, ICmp, pir::ICmpPred::SLT, I64, int64_t(A) < int64_t(B))            \
  X(SleI64, ICmp, pir::ICmpPred::SLE, I64, int64_t(A) <= int64_t(B))           \
  X(SgtI64, ICmp, pir::ICmpPred::SGT, I64, int64_t(A) > int64_t(B))            \
  X(SgeI64, ICmp, pir::ICmpPred::SGE, I64, int64_t(A) >= int64_t(B))           \
  X(UltI64, ICmp, pir::ICmpPred::ULT, I64, A < B)                              \
  X(UgeI64, ICmp, pir::ICmpPred::UGE, I64, A >= B)                             \
  X(PtrAddI32, PtrAdd, 0, I32,                                                 \
    A + uint64_t(int64_t(int32_t(B))) * uint64_t(Imm))                         \
  X(PtrAddI64, PtrAdd, 0, I64, A + B * uint64_t(Imm))

/// What the executor does for one decoded op.
enum class Handler : uint8_t {
  Nop,       // no effect (Nop, Bar: counted through the block mix)
  Mov,       // Dst = Src1
  MovImm,    // Dst = Imm (also Alloca and out-of-range ReadSpecial)
  Sel,       // Dst = Src1 & 1 ? Src2 : Src3
  Binary,    // generic pir::sem::evalBinary(Aux, Ty)
  Unary,     // generic pir::sem::evalUnary(Aux, Ty)
  Cast,      // generic pir::sem::evalCast(Aux, Ty -> Ty2)
  ICmp,      // generic pir::sem::evalICmp(Aux, Ty)
  FCmp,      // generic pir::sem::evalFCmp(Aux, Ty)
  PtrAdd,    // generic pir::sem::evalPtrAdd(Ty, element size Imm)
  Ld,        // Dst = mem[Src1], Size bytes
  St,        // mem[Src2] = Src1, Size bytes
  AtomicAdd, // Dst = mem[Src1]; mem[Src1] += Src2 (type Ty)
  LdSpill,   // Dst = spill[Imm]
  StSpill,   // spill[Imm] = Src1
  ReadSpecial, // Dst = geometry register Aux (SpecialReg order)
  Br,          // enter block Imm
  CondBr,      // enter block Imm if Src1 & 1, else block Else
  Ret,
  Fallthrough, // block without terminator: enter block Imm (not an instr)
  RanOff,      // fell through the last block (not an instr)
  StepLimit,   // the thread's step budget ends here (not an instr)
#define PROTEUS_HANDLER_ENUM(Name, Op, Aux, Ty, Expr) Name,
  PROTEUS_FAST_HANDLERS(PROTEUS_HANDLER_ENUM)
#undef PROTEUS_HANDLER_ENUM
};

/// One decoded operation. Register operands are physical register
/// numbers; branch targets are block indices into DecodedKernel::Blocks.
struct DecodedOp {
  Handler H = Handler::Nop;
  uint8_t Size = 0; // memory access width in bytes (Ld/St/AtomicAdd)
  uint16_t Aux = 0; // ValueKind / predicate / SpecialReg
  uint32_t Dst = 0;
  uint32_t Src1 = 0;
  uint32_t Src2 = 0;
  uint32_t Src3 = 0;
  uint32_t Else = 0; // CondBr not-taken block
  int64_t Imm = 0;
  pir::Type *Ty = nullptr;  // operating type of generic handlers
  pir::Type *Ty2 = nullptr; // Cast destination type
};

/// Static counters of one pass through a block, first op to terminator.
struct BlockMix {
  uint64_t Steps = 0; // every executed instruction (the step budget)
  uint64_t TotalInstrs = 0;
  uint64_t VALUInsts = 0;
  uint64_t SALUInsts = 0;
  uint64_t TranscendentalInsts = 0;
  uint64_t DivInsts = 0;
  uint64_t SpillLoads = 0;
  uint64_t SpillStores = 0;
  uint64_t Branches = 0;
  uint64_t Barriers = 0;
};

struct DecodedBlock {
  uint32_t Start = 0; // index of the block's first op
  BlockMix Mix;
};

struct DecodedKernel {
  std::vector<DecodedOp> Ops;
  std::vector<DecodedBlock> Blocks; // never empty; block 0 is the entry
};

/// Decodes \p MF. Fails (with \p Error) on a branch to a missing block.
bool decodeKernel(const mcode::MachineFunction &MF, DecodedKernel &Out,
                  std::string *Error);

/// The handler decodeKernel picks for \p MI.
Handler selectHandler(const mcode::MachineInstr &MI);

/// Evaluates specialized handler \p H on operands \p A, \p B and immediate
/// \p Imm, with exactly the executor's expression. \p H must be one of the
/// PROTEUS_FAST_HANDLERS.
uint64_t evalFastHandler(Handler H, uint64_t A, uint64_t B, int64_t Imm);

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_DECODEDKERNEL_H
