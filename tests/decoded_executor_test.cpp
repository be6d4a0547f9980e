//===- decoded_executor_test.cpp - pre-decoded executor tests ------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The executor runs hot (opcode, type) pairs through specialized handlers
// instead of the generic pir::sem evaluators. Each specialized handler must
// be selected for exactly its pair and agree bit for bit with the generic
// evaluation on random and edge operands: NaN payloads, signed zeros,
// INT32_MIN/INT64_MIN, -1, and i32 operands carrying garbage above bit 31.
// Also checks that PtrAdd address arithmetic wraps identically in the
// constant folder, the IR interpreter and the executor when the index times
// the element size overflows 64 bits.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/Compiler.h"
#include "gpu/DecodedKernel.h"
#include "gpu/Runtime.h"
#include "ir/Context.h"
#include "transforms/InstCombine.h"

#include <gtest/gtest.h>

#include <random>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

struct FastHandlerCase {
  const char *Name;
  Handler H;
  mcode::MOp Op;
  uint16_t Aux;
  Type::Kind Ty;
};

const std::vector<FastHandlerCase> &fastHandlers() {
  static const std::vector<FastHandlerCase> Cases = {
#define PROTEUS_CASE(Name, MOpKind, AuxV, TyKind, Expr)                        \
  {#Name, Handler::Name, mcode::MOp::MOpKind, static_cast<uint16_t>(AuxV),     \
   Type::Kind::TyKind},
      PROTEUS_FAST_HANDLERS(PROTEUS_CASE)
#undef PROTEUS_CASE
  };
  return Cases;
}

/// The generic evaluation the executor performs for an unspecialized op.
uint64_t genericEval(const FastHandlerCase &C, Type *Ty, uint64_t A,
                     uint64_t B, int64_t Imm) {
  switch (C.Op) {
  case mcode::MOp::Binary:
    return sem::evalBinary(static_cast<ValueKind>(C.Aux), Ty, A, B);
  case mcode::MOp::ICmp:
    return sem::evalICmp(static_cast<ICmpPred>(C.Aux), Ty, A, B) ? 1 : 0;
  case mcode::MOp::PtrAdd:
    return sem::evalPtrAdd(A, Ty, B, static_cast<uint64_t>(Imm));
  default:
    ADD_FAILURE() << "unexpected opcode for " << C.Name;
    return 0;
  }
}

uint64_t f32Bits(uint32_t Low, uint32_t High = 0) {
  return (static_cast<uint64_t>(High) << 32) | Low;
}

/// Edge operands: integer extremes, signed zeros, infinities, denormals and
/// quiet/signaling NaNs with payloads, for both float widths, plus f32/i32
/// values with garbage in the upper half of the container.
std::vector<uint64_t> edgeOperands() {
  std::vector<uint64_t> V = {
      0,
      1,
      2,
      ~0ull,                           // -1 (i64) and garbage-topped -1 (i32)
      0xFFFFFFFFull,                   // -1 (i32)
      0x80000000ull,                   // INT32_MIN, -0.0f
      0x7FFFFFFFull,                   // INT32_MAX, f32 NaN
      0x8000000000000000ull,           // INT64_MIN, -0.0
      0x7FFFFFFFFFFFFFFFull,           // INT64_MAX, f64 NaN
      0xFFFFFFFF80000000ull,           // sign-extended INT32_MIN
      0xDEADBEEF00000001ull,           // i32 1 with garbage above bit 31
      0x123456787FFFFFFFull,           // i32 INT32_MAX with garbage
      f32Bits(0x7FC00001),             // f32 quiet NaN, payload 1
      f32Bits(0xFFC12345),             // f32 negative quiet NaN, payload
      f32Bits(0x7F800001),             // f32 signaling NaN
      f32Bits(0x7F800000),             // +inf f32
      f32Bits(0xFF800000),             // -inf f32
      f32Bits(0x00000001),             // smallest f32 denormal
      f32Bits(0x3FC00000),             // 1.5f
      f32Bits(0x3FC00000, 0xABCD0123), // 1.5f with garbage above bit 31
      f32Bits(0x80000000, 0xFFFFFFFF), // -0.0f with garbage
      0x7FF8000000000001ull,           // f64 quiet NaN, payload 1
      0xFFF0000000000001ull,           // f64 negative signaling NaN
      0x7FF0000000000000ull,           // +inf
      0xFFF0000000000000ull,           // -inf
      0x0000000000000001ull,           // smallest f64 denormal
      0x3FF8000000000000ull,           // 1.5
      0xC000000000000000ull,           // -2.0
  };
  return V;
}

TEST(DecodedExecutorTest, EachFastHandlerIsSelectedForExactlyItsPair) {
  for (const FastHandlerCase &C : fastHandlers()) {
    mcode::MachineInstr MI;
    MI.Op = C.Op;
    MI.Aux = C.Aux;
    MI.TypeTag = C.Ty;
    EXPECT_EQ(selectHandler(MI), C.H) << C.Name;
    // Any other operand type takes the generic path.
    for (Type::Kind Other : {Type::Kind::I1, Type::Kind::Ptr}) {
      MI.TypeTag = Other;
      EXPECT_NE(selectHandler(MI), C.H) << C.Name;
    }
  }
  // Unspecialized pairs stay generic.
  mcode::MachineInstr Shl;
  Shl.Op = mcode::MOp::Binary;
  Shl.Aux = static_cast<uint16_t>(ValueKind::Shl);
  Shl.TypeTag = Type::Kind::I32;
  EXPECT_EQ(selectHandler(Shl), Handler::Binary);
  mcode::MachineInstr AddI1 = Shl;
  AddI1.Aux = static_cast<uint16_t>(ValueKind::Add);
  AddI1.TypeTag = Type::Kind::I1;
  EXPECT_EQ(selectHandler(AddI1), Handler::Binary);
}

TEST(DecodedExecutorTest, FastHandlersMatchGenericSemanticsBitForBit) {
  Context Ctx;
  const std::vector<uint64_t> Edges = edgeOperands();
  const std::vector<int64_t> Imms = {0, 1, 4, 8, 12, 0xFFFFFFFF};
  std::mt19937_64 Rng(20250214);
  uint64_t Checked = 0;
  for (const FastHandlerCase &C : fastHandlers()) {
    Type *Ty = Ctx.getType(C.Ty);
    auto check = [&](uint64_t A, uint64_t B, int64_t Imm) {
      uint64_t Want = genericEval(C, Ty, A, B, Imm);
      uint64_t Got = evalFastHandler(C.H, A, B, Imm);
      ++Checked;
      if (Got != Want)
        ADD_FAILURE() << C.Name << std::hex << " A=0x" << A << " B=0x" << B
                      << " Imm=0x" << Imm << ": fast 0x" << Got
                      << ", generic 0x" << Want;
    };
    for (uint64_t A : Edges)
      for (uint64_t B : Edges)
        for (int64_t Imm : Imms)
          check(A, B, Imm);
    for (int I = 0; I != 5000; ++I) {
      uint64_t A = Rng(), B = Rng();
      // Mix in random f32/f64 NaN boxes and signed small integers.
      if (I % 4 == 1)
        A = f32Bits(0x7F800000 | static_cast<uint32_t>(A & 0x807FFFFF),
                    static_cast<uint32_t>(A >> 32));
      if (I % 4 == 2)
        B = 0x7FF0000000000000ull | (B & 0x800FFFFFFFFFFFFFull);
      if (I % 4 == 3)
        B = static_cast<uint64_t>(static_cast<int64_t>(B) >> 60);
      check(A, B, Imms[static_cast<size_t>(I) % Imms.size()]);
    }
  }
  EXPECT_GT(Checked, 0u);
  // Two NaN operands: the first one wins, quieted, whatever operand order
  // the compiler emitted.
  EXPECT_EQ(evalFastHandler(Handler::FAddF32, f32Bits(0x7F800001),
                            f32Bits(0xFFC12345), 0),
            f32Bits(0x7FC00001));
  EXPECT_EQ(evalFastHandler(Handler::FMulF64, 0xFFF0000000000001ull,
                            0x7FF8000000000002ull, 0),
            0xFFF8000000000001ull);
}

/// kernel @k(%out: ptr, %base: ptr, %idx: i64): *out = ptradd %base, %idx, 8
Function *buildPtrAddKernel(Module &M) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F = M.createFunction(
      "k", Ctx.getVoidTy(), {Ctx.getPtrTy(), Ctx.getPtrTy(), Ctx.getI64Ty()},
      {"out", "base", "idx"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *P = B.createPtrAdd(F->getArg(1), F->getArg(2), 8, "p");
  B.createStore(P, F->getArg(0));
  B.createRet();
  return F;
}

TEST(DecodedExecutorTest, OverflowingPtrAddWrapsAlikeInFolderInterpreterAndExecutor) {
  // 0x4000000000000001 * 8 overflows int64; modulo 2^64 it is 8.
  const uint64_t Base = 4096, Idx = 0x4000000000000001ull;
  const uint64_t Want = Base + 8;

  // Constant folder.
  Context Ctx;
  Module M(Ctx, "m");
  {
    IRBuilder B(Ctx);
    Function *F = M.createFunction("fold", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                   {"out"}, FunctionKind::Kernel);
    B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
    Value *P = B.createPtrAdd(Ctx.getConstantPtr(Base), Ctx.getInt64(Idx), 8);
    B.createStore(P, F->getArg(0));
    B.createRet();
    InstCombinePass().run(*F);
    auto *St = cast<StoreInst>(&F->getEntryBlock().front());
    auto *Folded = dyn_cast<ConstantPtr>(St->getValue());
    ASSERT_NE(Folded, nullptr) << "ptradd of constants must fold";
    EXPECT_EQ(Folded->getAddress(), Want);
  }

  Function *K = buildPtrAddKernel(M);
  const std::vector<uint64_t> Args = {64, Base, Idx};

  // Reference interpreter.
  std::vector<uint8_t> Ref(128, 0);
  interpretLaunch(*K, Args, Ref, 1, 1);
  uint64_t FromInterp = 0;
  std::memcpy(&FromInterp, Ref.data() + 64, 8);
  EXPECT_EQ(FromInterp, Want);

  // Executor, both targets.
  for (const TargetInfo *TI : {&getAmdGcnSimTarget(), &getNvPtxSimTarget()}) {
    Device Dev(*TI, 1 << 20);
    std::vector<uint8_t> Obj = compileKernelToObject(*K, *TI);
    LoadedKernel *LK = nullptr;
    std::string Err;
    ASSERT_EQ(gpuModuleLoad(Dev, &LK, Obj, &Err), GpuError::Success) << Err;
    std::vector<KernelArg> KArgs;
    for (uint64_t A : Args)
      KArgs.push_back(KernelArg{A});
    ASSERT_EQ(gpuLaunchKernel(Dev, *LK, Dim3{1, 1, 1}, Dim3{1, 1, 1}, KArgs,
                              &Err),
              GpuError::Success)
        << Err;
    uint64_t FromSim = 0;
    std::memcpy(&FromSim, Dev.memory().data() + 64, 8);
    EXPECT_EQ(FromSim, Want) << TI->Name;
  }
}

TEST(DecodedExecutorTest, StepLimitStopsAtTheSameInstructionAsPerOpCounting) {
  // while (true) out[0] += 1: the budget runs out inside the loop body, so
  // the thread must stop mid-block with exactly the stores that fit in it.
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("spin", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Loop = F->createBlock("loop", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Value *V = B.createLoad(Ctx.getI64Ty(), F->getArg(0), "v");
  B.createStore(B.createAdd(V, Ctx.getInt64(1)), F->getArg(0));
  B.createBr(Loop);

  const TargetInfo &TI = getAmdGcnSimTarget();
  std::vector<uint8_t> Obj = compileKernelToObject(*F, TI);
  Device Dev(TI, 1 << 20);
  LoadedKernel *LK = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &LK, Obj, &Err), GpuError::Success) << Err;
  size_t EntryLen = LK->MF.Blocks[0].Instrs.size();
  size_t LoopLen = LK->MF.Blocks[1].Instrs.size();
  // Find where the store sits in the loop block.
  size_t StorePos = 0;
  for (size_t I = 0; I != LoopLen; ++I)
    if (LK->MF.Blocks[1].Instrs[I].Op == mcode::MOp::St)
      StorePos = I;
  // Budget: the entry block, three full iterations, then exactly the loop
  // ops before the store of the fourth: three stores land.
  uint64_t Budget = EntryLen + 3 * LoopLen + StorePos;
  LaunchResult R = launchKernel(Dev, *LK, Dim3{1, 1, 1}, Dim3{1, 1, 1},
                                {KernelArg{64}}, Budget);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "per-thread step limit exceeded in spin");
  uint64_t Count = 0;
  std::memcpy(&Count, Dev.memory().data() + 64, 8);
  EXPECT_EQ(Count, 3u);
  // One more step lets the fourth store through.
  std::memset(Dev.memory().data() + 64, 0, 8);
  R = launchKernel(Dev, *LK, Dim3{1, 1, 1}, Dim3{1, 1, 1}, {KernelArg{64}},
                   Budget + 1);
  EXPECT_FALSE(R.Ok);
  std::memcpy(&Count, Dev.memory().data() + 64, 8);
  EXPECT_EQ(Count, 4u);
}

} // namespace
