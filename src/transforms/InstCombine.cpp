//===- InstCombine.cpp - peephole simplification ----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/InstCombine.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/OpSemantics.h"

using namespace proteus;
using namespace pir;

namespace {

ConstantInt *asConstInt(Value *V) { return dyn_cast<ConstantInt>(V); }
ConstantFP *asConstFP(Value *V) { return dyn_cast<ConstantFP>(V); }

uint64_t constBits(Value *V) {
  if (auto *CI = asConstInt(V))
    return CI->getZExtValue();
  if (auto *CF = asConstFP(V))
    return CF->getType()->isF32()
               ? sem::boxF32(static_cast<float>(CF->getValue()))
               : sem::boxF64(CF->getValue());
  if (auto *CP = dyn_cast<ConstantPtr>(V))
    return CP->getAddress();
  assert(false && "not a constant");
  return 0;
}

Value *makeConstant(Context &Ctx, Type *Ty, uint64_t Bits) {
  if (Ty->isInteger())
    return Ctx.getConstantInt(Ty, Bits);
  if (Ty->isF32())
    return Ctx.getConstantFP(Ty, static_cast<double>(sem::unboxF32(Bits)));
  if (Ty->isF64())
    return Ctx.getConstantFP(Ty, sem::unboxF64(Bits));
  return Ctx.getConstantPtr(Bits);
}

bool isConstantOperand(Value *V) {
  return isa<ConstantInt>(V) || isa<ConstantFP>(V) || isa<ConstantPtr>(V);
}

/// True if \p V is the power of two 2^K; sets \p K.
bool isPowerOfTwo(ConstantInt *C, unsigned &K) {
  uint64_t V = C->getZExtValue();
  if (V == 0 || (V & (V - 1)) != 0)
    return false;
  K = 0;
  while ((V >>= 1) != 0)
    ++K;
  return true;
}

} // namespace

Value *proteus::constantFoldInstruction(Instruction &I, Context &Ctx) {
  if (I.getType()->isVoid() || I.mayHaveSideEffects())
    return nullptr;
  switch (I.getKind()) {
  case ValueKind::ICmp: {
    auto &C = cast<ICmpInst>(I);
    if (!isConstantOperand(C.getLHS()) || !isConstantOperand(C.getRHS()))
      return nullptr;
    bool R = sem::evalICmp(C.getPredicate(), C.getLHS()->getType(),
                           constBits(C.getLHS()), constBits(C.getRHS()));
    return Ctx.getConstantInt(Ctx.getI1Ty(), R ? 1 : 0);
  }
  case ValueKind::FCmp: {
    auto &C = cast<FCmpInst>(I);
    if (!isConstantOperand(C.getLHS()) || !isConstantOperand(C.getRHS()))
      return nullptr;
    bool R = sem::evalFCmp(C.getPredicate(), C.getLHS()->getType(),
                           constBits(C.getLHS()), constBits(C.getRHS()));
    return Ctx.getConstantInt(Ctx.getI1Ty(), R ? 1 : 0);
  }
  case ValueKind::Select: {
    auto &S = cast<SelectInst>(I);
    auto *C = asConstInt(S.getCondition());
    if (!C)
      return nullptr;
    return C->isZero() ? S.getFalseValue() : S.getTrueValue();
  }
  case ValueKind::PtrAdd: {
    auto &P = cast<PtrAddInst>(I);
    if (!isConstantOperand(P.getBase()) || !isConstantOperand(P.getIndex()))
      return nullptr;
    return Ctx.getConstantPtr(sem::evalPtrAdd(
        constBits(P.getBase()), P.getIndex()->getType(),
        constBits(P.getIndex()), P.getElemSize()));
  }
  default:
    break;
  }
  if (auto *B = dyn_cast<BinaryInst>(&I)) {
    if (!isConstantOperand(B->getLHS()) || !isConstantOperand(B->getRHS()))
      return nullptr;
    uint64_t R = sem::evalBinary(I.getKind(), B->getType(),
                                 constBits(B->getLHS()),
                                 constBits(B->getRHS()));
    return makeConstant(Ctx, B->getType(), R);
  }
  if (auto *U = dyn_cast<UnaryInst>(&I)) {
    if (!isConstantOperand(U->getOperandValue()))
      return nullptr;
    uint64_t R = sem::evalUnary(I.getKind(), U->getType(),
                                constBits(U->getOperandValue()));
    return makeConstant(Ctx, U->getType(), R);
  }
  if (auto *C = dyn_cast<CastInst>(&I)) {
    if (!isConstantOperand(C->getSource()))
      return nullptr;
    uint64_t R = sem::evalCast(I.getKind(), C->getSource()->getType(),
                               C->getType(), constBits(C->getSource()));
    return makeConstant(Ctx, C->getType(), R);
  }
  return nullptr;
}

Value *proteus::simplifyInstruction(Instruction &I, Context &Ctx) {
  auto *B = dyn_cast<BinaryInst>(&I);
  if (!B) {
    if (auto *Sel = dyn_cast<SelectInst>(&I)) {
      if (Sel->getTrueValue() == Sel->getFalseValue())
        return Sel->getTrueValue();
      return nullptr;
    }
    if (auto *Cmp = dyn_cast<ICmpInst>(&I)) {
      if (Cmp->getLHS() != Cmp->getRHS())
        return nullptr;
      switch (Cmp->getPredicate()) {
      case ICmpPred::EQ:
      case ICmpPred::SLE:
      case ICmpPred::SGE:
      case ICmpPred::ULE:
      case ICmpPred::UGE:
        return Ctx.getTrue();
      default:
        return Ctx.getFalse();
      }
    }
    return nullptr;
  }

  Value *L = B->getLHS();
  Value *R = B->getRHS();
  ConstantInt *RC = asConstInt(R);
  ConstantInt *LC = asConstInt(L);
  ConstantFP *RF = asConstFP(R);

  switch (I.getKind()) {
  case ValueKind::Add:
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    return nullptr;
  case ValueKind::Sub:
    if (RC && RC->isZero())
      return L;
    if (L == R)
      return Ctx.getConstantInt(B->getType(), 0);
    return nullptr;
  case ValueKind::Mul:
    if (RC && RC->isOne())
      return L;
    if (LC && LC->isOne())
      return R;
    if ((RC && RC->isZero()) || (LC && LC->isZero()))
      return Ctx.getConstantInt(B->getType(), 0);
    return nullptr;
  case ValueKind::SDiv:
  case ValueKind::UDiv:
    if (RC && RC->isOne())
      return L;
    return nullptr;
  case ValueKind::SRem:
  case ValueKind::URem:
    if (RC && RC->isOne())
      return Ctx.getConstantInt(B->getType(), 0);
    return nullptr;
  case ValueKind::And:
    if (L == R)
      return L;
    if ((RC && RC->isZero()) || (LC && LC->isZero()))
      return Ctx.getConstantInt(B->getType(), 0);
    return nullptr;
  case ValueKind::Or:
    if (L == R)
      return L;
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    return nullptr;
  case ValueKind::Xor:
    if (L == R)
      return Ctx.getConstantInt(B->getType(), 0);
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    return nullptr;
  case ValueKind::Shl:
  case ValueKind::LShr:
  case ValueKind::AShr:
    if (RC && RC->isZero())
      return L;
    return nullptr;
  case ValueKind::FMul:
    // x * 1.0 == x for all finite/NaN inputs under our semantics.
    if (RF && RF->getValue() == 1.0)
      return L;
    if (auto *LF = asConstFP(L); LF && LF->getValue() == 1.0)
      return R;
    return nullptr;
  case ValueKind::FDiv:
    if (RF && RF->getValue() == 1.0)
      return L;
    return nullptr;
  case ValueKind::FMin:
  case ValueKind::FMax:
  case ValueKind::SMin:
  case ValueKind::SMax:
    if (L == R)
      return L;
    return nullptr;
  default:
    return nullptr;
  }
}

bool InstCombinePass::run(Function &F) {
  Context &Ctx = F.getParent()->getContext();
  IRBuilder Builder(Ctx);
  bool Changed = false;
  bool LocalChanged = true;
  // Iterate to a local fixpoint: folds feed further folds.
  while (LocalChanged) {
    LocalChanged = false;
    for (BasicBlock *BB : F.blockList()) {
      for (auto It = BB->begin(); It != BB->end();) {
        Instruction &I = *It;
        ++It;
        // 1) Full constant fold.
        if (Value *C = constantFoldInstruction(I, Ctx)) {
          I.replaceAllUsesWith(C);
          I.eraseFromParent();
          LocalChanged = true;
          continue;
        }
        // 2) Algebraic simplification to an existing value.
        if (Value *S = simplifyInstruction(I, Ctx)) {
          I.replaceAllUsesWith(S);
          I.eraseFromParent();
          LocalChanged = true;
          continue;
        }
        // 3) In-place strength reduction; creates new instructions.
        auto *B = dyn_cast<BinaryInst>(&I);
        if (!B)
          continue;
        // Canonicalize: constants on the RHS of commutative operations, so
        // the identity/strength-reduction matches below fire.
        if (B->isCommutative() && isConstantOperand(B->getLHS()) &&
            !isConstantOperand(B->getRHS())) {
          Value *OldL = B->getLHS();
          Value *OldR = B->getRHS();
          B->setOperand(0, OldR);
          B->setOperand(1, OldL);
          LocalChanged = true;
        }
        Value *L = B->getLHS();
        auto *RC = asConstInt(B->getRHS());
        unsigned K = 0;
        Builder.setInsertPoint(&I);
        Value *Repl = nullptr;
        switch (I.getKind()) {
        case ValueKind::Mul:
          if (RC && isPowerOfTwo(RC, K) && K > 0)
            Repl = Builder.createShl(L, Ctx.getConstantInt(B->getType(), K));
          break;
        case ValueKind::UDiv:
          if (RC && isPowerOfTwo(RC, K) && K > 0)
            Repl = Builder.createLShr(L, Ctx.getConstantInt(B->getType(), K));
          break;
        case ValueKind::URem:
          if (RC && isPowerOfTwo(RC, K))
            Repl = Builder.createAnd(
                L, Ctx.getConstantInt(B->getType(), RC->getZExtValue() - 1));
          break;
        case ValueKind::Pow: {
          // pow(x, small non-negative integer) -> repeated multiplication.
          auto *RF = asConstFP(B->getRHS());
          if (!RF)
            break;
          double E = RF->getValue();
          if (E != static_cast<double>(static_cast<int>(E)) || E < 0 ||
              E > 4)
            break;
          int N = static_cast<int>(E);
          if (N == 0) {
            Repl = B->getType()->isF32() ? Builder.getFloat(1.0f)
                                         : Builder.getDouble(1.0);
          } else {
            Value *Acc = L;
            for (int J = 1; J < N; ++J)
              Acc = Builder.createFMul(Acc, L);
            Repl = Acc;
          }
          break;
        }
        default:
          break;
        }
        if (Repl) {
          I.replaceAllUsesWith(Repl);
          I.eraseFromParent();
          LocalChanged = true;
        }
      }
    }
    Changed |= LocalChanged;
  }
  return Changed;
}
