//===- Interpreter.cpp - reference IR interpreter --------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"

#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace pir;
using namespace proteus;

namespace {

/// Per-call-frame interpreter state shared through one thread's execution.
struct ExecState {
  std::vector<uint8_t> &Memory;
  std::vector<uint8_t> Scratch;
  const ThreadGeometry &Geometry;
  uint64_t Steps = 0;
  uint64_t MaxSteps;
  std::string Error;

  ExecState(std::vector<uint8_t> &Memory, const ThreadGeometry &Geometry,
            uint64_t MaxSteps)
      : Memory(Memory), Geometry(Geometry), MaxSteps(MaxSteps) {}

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  uint8_t *resolve(uint64_t Addr, unsigned Size) {
    if (Addr >= IRInterpreter::ScratchBase) {
      uint64_t Off = Addr - IRInterpreter::ScratchBase;
      if (Off + Size > Scratch.size())
        return nullptr;
      return Scratch.data() + Off;
    }
    if (Addr + Size > Memory.size())
      return nullptr;
    return Memory.data() + Addr;
  }

  bool load(uint64_t Addr, Type *Ty, uint64_t &Out) {
    unsigned Size = Ty->sizeInBytes();
    uint8_t *P = resolve(Addr, Size);
    if (!P)
      return fail(formatString("load out of bounds at 0x%llx",
                               static_cast<unsigned long long>(Addr)));
    uint64_t Bits = 0;
    std::memcpy(&Bits, P, Size);
    Out = Bits;
    return true;
  }

  bool store(uint64_t Addr, Type *Ty, uint64_t Bits) {
    unsigned Size = Ty->sizeInBytes();
    uint8_t *P = resolve(Addr, Size);
    if (!P)
      return fail(formatString("store out of bounds at 0x%llx",
                               static_cast<unsigned long long>(Addr)));
    std::memcpy(P, &Bits, Size);
    return true;
  }
};

/// Interprets one function activation. Recursion handles device calls.
class FrameInterp {
public:
  FrameInterp(Function &F, ExecState &S) : F(F), S(S) {}

  bool run(const std::vector<uint64_t> &ArgBits,
           std::optional<uint64_t> &RetBits) {
    assert(ArgBits.size() == F.getNumArgs() && "argument count mismatch");
    for (size_t I = 0; I != ArgBits.size(); ++I)
      Values[F.getArg(I)] = ArgBits[I];
    if (F.isDeclaration())
      return S.fail("cannot interpret a declaration");

    BasicBlock *BB = &F.getEntryBlock();
    BasicBlock *Prev = nullptr;
    while (BB) {
      BasicBlock *Next = nullptr;
      if (!executeBlock(BB, Prev, Next, RetBits))
        return false;
      Prev = BB;
      BB = Next;
    }
    return true;
  }

private:
  uint64_t get(Value *V) {
    if (auto *CI = dyn_cast<ConstantInt>(V))
      return CI->getZExtValue();
    if (auto *CF = dyn_cast<ConstantFP>(V))
      return CF->getType()->isF32()
                 ? sem::boxF32(static_cast<float>(CF->getValue()))
                 : sem::boxF64(CF->getValue());
    if (auto *CP = dyn_cast<ConstantPtr>(V))
      return CP->getAddress();
    if (auto *G = dyn_cast<GlobalVariable>(V)) {
      // Direct references to globals only occur pre-linking; modules run by
      // the interpreter are expected to have globals placed at fixed
      // addresses recorded in the value map by the test harness, or not to
      // use them. Report a deterministic failure otherwise.
      auto It = Values.find(G);
      if (It != Values.end())
        return It->second;
      S.fail("unlinked global @" + G->getName() + " dereferenced");
      return 0;
    }
    auto It = Values.find(V);
    if (It == Values.end()) {
      S.fail("use of undefined value in interpreter");
      return 0;
    }
    return It->second;
  }

  bool executeBlock(BasicBlock *BB, BasicBlock *Prev, BasicBlock *&Next,
                    std::optional<uint64_t> &RetBits) {
    // Phis evaluate in parallel against the incoming edge.
    std::vector<std::pair<PhiInst *, uint64_t>> PhiUpdates;
    for (Instruction &I : *BB) {
      auto *Phi = dyn_cast<PhiInst>(&I);
      if (!Phi)
        break;
      Value *In = Phi->getIncomingValueForBlock(Prev);
      if (!In)
        return S.fail("phi has no entry for executed predecessor");
      PhiUpdates.push_back({Phi, get(In)});
      if (!S.Error.empty())
        return false;
    }
    for (auto &[Phi, Bits] : PhiUpdates)
      Values[Phi] = Bits;

    for (Instruction &I : *BB) {
      if (isa<PhiInst>(&I))
        continue;
      if (++S.Steps > S.MaxSteps)
        return S.fail("interpreter step limit exceeded");
      if (!executeInstruction(I, Next, RetBits))
        return false;
      if (Next || RetDone)
        return true;
    }
    return S.fail("fell off the end of a block without terminator");
  }

  bool executeInstruction(Instruction &I, BasicBlock *&Next,
                          std::optional<uint64_t> &RetBits) {
    switch (I.getKind()) {
    case ValueKind::ICmp: {
      auto &C = cast<ICmpInst>(I);
      Values[&I] = sem::evalICmp(C.getPredicate(), C.getLHS()->getType(),
                                 get(C.getLHS()), get(C.getRHS()))
                       ? 1
                       : 0;
      break;
    }
    case ValueKind::FCmp: {
      auto &C = cast<FCmpInst>(I);
      Values[&I] = sem::evalFCmp(C.getPredicate(), C.getLHS()->getType(),
                                 get(C.getLHS()), get(C.getRHS()))
                       ? 1
                       : 0;
      break;
    }
    case ValueKind::Select: {
      auto &Sel = cast<SelectInst>(I);
      Values[&I] = get(Sel.getCondition()) & 1 ? get(Sel.getTrueValue())
                                               : get(Sel.getFalseValue());
      break;
    }
    case ValueKind::Alloca: {
      auto &A = cast<AllocaInst>(I);
      // Re-executing an alloca (in a loop) returns the same slot.
      auto It = AllocaSlots.find(&A);
      if (It != AllocaSlots.end()) {
        Values[&I] = It->second;
        break;
      }
      uint64_t Addr = IRInterpreter::ScratchBase + S.Scratch.size();
      S.Scratch.resize(S.Scratch.size() + A.allocationSizeBytes(), 0);
      AllocaSlots[&A] = Addr;
      Values[&I] = Addr;
      break;
    }
    case ValueKind::Load: {
      auto &L = cast<LoadInst>(I);
      uint64_t Bits = 0;
      if (!S.load(get(L.getPointer()), L.getType(), Bits))
        return false;
      Values[&I] = Bits;
      break;
    }
    case ValueKind::Store: {
      auto &St = cast<StoreInst>(I);
      if (!S.store(get(St.getPointer()), St.getValue()->getType(),
                   get(St.getValue())))
        return false;
      break;
    }
    case ValueKind::PtrAdd: {
      auto &P = cast<PtrAddInst>(I);
      Values[&I] = sem::evalPtrAdd(get(P.getBase()), P.getIndex()->getType(),
                                   get(P.getIndex()), P.getElemSize());
      break;
    }
    case ValueKind::AtomicAdd: {
      auto &A = cast<AtomicAddInst>(I);
      Type *Ty = A.getValue()->getType();
      uint64_t Addr = get(A.getPointer());
      uint64_t Old = 0;
      if (!S.load(Addr, Ty, Old))
        return false;
      uint64_t Sum = Ty->isFloatingPoint()
                         ? sem::evalBinary(ValueKind::FAdd, Ty, Old,
                                           get(A.getValue()))
                         : sem::evalBinary(ValueKind::Add, Ty, Old,
                                           get(A.getValue()));
      if (!S.store(Addr, Ty, Sum))
        return false;
      Values[&I] = Old;
      break;
    }
    case ValueKind::ThreadIdx:
      Values[&I] = S.Geometry.ThreadIdx[cast<GpuIndexInst>(I).getDim()];
      break;
    case ValueKind::BlockIdx:
      Values[&I] = S.Geometry.BlockIdx[cast<GpuIndexInst>(I).getDim()];
      break;
    case ValueKind::BlockDim:
      Values[&I] = S.Geometry.BlockDim[cast<GpuIndexInst>(I).getDim()];
      break;
    case ValueKind::GridDim:
      Values[&I] = S.Geometry.GridDim[cast<GpuIndexInst>(I).getDim()];
      break;
    case ValueKind::Barrier:
      // Single-thread reference execution: a barrier is a no-op.
      break;
    case ValueKind::Call: {
      auto &C = cast<CallInst>(I);
      std::vector<uint64_t> Args;
      for (size_t K = 0; K != C.getNumArgs(); ++K)
        Args.push_back(get(C.getArg(K)));
      if (!S.Error.empty())
        return false;
      FrameInterp Callee(*C.getCallee(), S);
      std::optional<uint64_t> SubRet;
      if (!Callee.run(Args, SubRet))
        return false;
      if (!I.getType()->isVoid()) {
        if (!SubRet)
          return S.fail("callee returned no value");
        Values[&I] = *SubRet;
      }
      break;
    }
    case ValueKind::Br:
      Next = cast<BranchInst>(I).getSuccessor(0);
      return true;
    case ValueKind::CondBr: {
      auto &B = cast<BranchInst>(I);
      Next = (get(B.getCondition()) & 1) ? B.getSuccessor(0)
                                         : B.getSuccessor(1);
      return S.Error.empty();
    }
    case ValueKind::Ret: {
      auto &R = cast<RetInst>(I);
      if (R.hasReturnValue())
        RetBits = get(R.getReturnValue());
      RetDone = true;
      return S.Error.empty();
    }
    default: {
      if (auto *B = dyn_cast<BinaryInst>(&I)) {
        Values[&I] = sem::evalBinary(I.getKind(), B->getLHS()->getType(),
                                     get(B->getLHS()), get(B->getRHS()));
        break;
      }
      if (auto *U = dyn_cast<UnaryInst>(&I)) {
        Values[&I] = sem::evalUnary(I.getKind(),
                                    U->getOperandValue()->getType(),
                                    get(U->getOperandValue()));
        break;
      }
      if (auto *C = dyn_cast<CastInst>(&I)) {
        Values[&I] = sem::evalCast(I.getKind(), C->getSource()->getType(),
                                   I.getType(), get(C->getSource()));
        break;
      }
      return S.fail("interpreter: unhandled instruction");
    }
    }
    return S.Error.empty();
  }

  Function &F;
  ExecState &S;
  std::unordered_map<Value *, uint64_t> Values;
  std::unordered_map<AllocaInst *, uint64_t> AllocaSlots;
  bool RetDone = false;
};

} // namespace

InterpResult IRInterpreter::run(Function &F,
                                const std::vector<uint64_t> &ArgBits,
                                const ThreadGeometry &Geometry,
                                uint64_t MaxSteps) {
  InterpResult R;
  ExecState S(Memory, Geometry, MaxSteps);
  FrameInterp Frame(F, S);
  std::optional<uint64_t> Ret;
  bool Ok = Frame.run(ArgBits, Ret);
  R.Ok = Ok;
  R.Error = S.Error;
  R.ReturnBits = Ret;
  R.DynamicInstructions = S.Steps;
  return R;
}
