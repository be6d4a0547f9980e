//===- Executor.cpp - functional GPU execution -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Per-thread interpretation of allocated machine code, over the form
// decoded once at load time (DecodedKernel.h). Semantics come from
// ir/OpSemantics.h, either through the generic evaluators or through a
// specialized handler that is checked against them, so the executor agrees
// bit-for-bit with the reference IR interpreter and the constant folder.
// Threads run sequentially (the simulation is deterministic); atomics
// therefore serialize naturally.
//
// Address map: [0, MemSize) is device global memory; addresses at or above
// LocalBase are thread-private scratch from allocas, resolved per thread.
//
//===----------------------------------------------------------------------===//

#include "gpu/Executor.h"

#include "gpu/PerfModel.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "support/StringUtils.h"

#include <cstring>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::mcode;
using pir::Type;

namespace {

constexpr uint64_t LocalBase = 1ull << 40;

/// Maps a serialized type tag to a Type singleton for the shared
/// OpSemantics evaluators (types are stateless).
pir::Type *typeForTag(Type::Kind K) {
  static pir::Context TypeContext;
  return TypeContext.getType(K);
}

/// Memory access width of a type tag.
uint8_t typeSize(Type::Kind K) {
  switch (K) {
  case Type::Kind::I1:
    return 1;
  case Type::Kind::I32:
  case Type::Kind::F32:
    return 4;
  default:
    return 8;
  }
}

/// Adds the static counters of one executed \p MI to \p Mix.
void countStatic(const MachineInstr &MI, BlockMix &Mix) {
  ++Mix.Steps;
  if (MI.Op != MOp::MovImm)
    ++Mix.TotalInstrs;
  auto Alu = [&] { MI.Uniform ? ++Mix.SALUInsts : ++Mix.VALUInsts; };
  switch (MI.Op) {
  case MOp::Binary: {
    Alu();
    pir::ValueKind K = static_cast<pir::ValueKind>(MI.Aux);
    if (K == pir::ValueKind::Pow)
      ++Mix.TranscendentalInsts;
    else if (K == pir::ValueKind::SDiv || K == pir::ValueKind::UDiv ||
             K == pir::ValueKind::SRem || K == pir::ValueKind::URem ||
             K == pir::ValueKind::FDiv)
      ++Mix.DivInsts;
    break;
  }
  case MOp::Unary: {
    Alu();
    pir::ValueKind K = static_cast<pir::ValueKind>(MI.Aux);
    if (K != pir::ValueKind::FNeg && K != pir::ValueKind::Fabs)
      ++Mix.TranscendentalInsts;
    break;
  }
  case MOp::MovRR:
  case MOp::Cast:
  case MOp::ICmp:
  case MOp::FCmp:
  case MOp::Sel:
  case MOp::PtrAdd:
  case MOp::ReadSpecial:
  case MOp::Alloca:
    Alu();
    break;
  case MOp::LdSpill:
    ++Mix.SpillLoads;
    break;
  case MOp::StSpill:
    ++Mix.SpillStores;
    break;
  case MOp::Bar:
    ++Mix.Barriers;
    break;
  case MOp::Br:
  case MOp::CondBr:
    ++Mix.Branches;
    break;
  default:
    break;
  }
}

bool isTerminator(MOp Op) {
  return Op == MOp::Br || Op == MOp::CondBr || Op == MOp::Ret;
}

} // namespace

Handler proteus::gpu::selectHandler(const MachineInstr &MI) {
#define PROTEUS_MATCH_HANDLER(Name, MOpKind, AuxV, TyKind, Expr)               \
  if (MI.Op == MOp::MOpKind && MI.TypeTag == Type::Kind::TyKind &&             \
      (MI.Op == MOp::PtrAdd || MI.Aux == static_cast<uint16_t>(AuxV)))         \
    return Handler::Name;
  PROTEUS_FAST_HANDLERS(PROTEUS_MATCH_HANDLER)
#undef PROTEUS_MATCH_HANDLER
  switch (MI.Op) {
  case MOp::MovRR:
    return Handler::Mov;
  case MOp::MovImm:
  case MOp::Alloca:
    return Handler::MovImm;
  case MOp::Binary:
    return Handler::Binary;
  case MOp::Unary:
    return Handler::Unary;
  case MOp::Cast:
    return Handler::Cast;
  case MOp::ICmp:
    return Handler::ICmp;
  case MOp::FCmp:
    return Handler::FCmp;
  case MOp::Sel:
    return Handler::Sel;
  case MOp::Ld:
    return Handler::Ld;
  case MOp::St:
    return Handler::St;
  case MOp::PtrAdd:
    return Handler::PtrAdd;
  case MOp::AtomicAdd:
    return Handler::AtomicAdd;
  case MOp::LdSpill:
    return Handler::LdSpill;
  case MOp::StSpill:
    return Handler::StSpill;
  case MOp::ReadSpecial:
    // Geometry registers outside the SpecialReg range read as zero.
    return MI.Aux <= static_cast<uint16_t>(SpecialReg::NctaidZ)
               ? Handler::ReadSpecial
               : Handler::MovImm;
  case MOp::Br:
    return Handler::Br;
  case MOp::CondBr:
    return Handler::CondBr;
  case MOp::Ret:
    return Handler::Ret;
  default: // Nop, Bar: no functional effect
    return Handler::Nop;
  }
}

uint64_t proteus::gpu::evalFastHandler(Handler H, uint64_t A, uint64_t B,
                                       int64_t Imm) {
  switch (H) {
#define PROTEUS_EVAL_HANDLER(Name, MOpKind, AuxV, TyKind, Expr)                \
  case Handler::Name:                                                          \
    return (Expr);
    PROTEUS_FAST_HANDLERS(PROTEUS_EVAL_HANDLER)
#undef PROTEUS_EVAL_HANDLER
  default:
    proteus_unreachable("not a specialized handler");
  }
}

bool proteus::gpu::decodeKernel(const MachineFunction &MF, DecodedKernel &Out,
                                std::string *Error) {
  const size_t NumBlocks = MF.Blocks.size();
  Out.Ops.clear();
  // At most one op per instruction plus one fallthrough op per block.
  Out.Ops.reserve(MF.totalInstructions() + NumBlocks + 1);
  Out.Blocks.assign(NumBlocks, DecodedBlock{});
  for (size_t B = 0; B != NumBlocks; ++B) {
    DecodedBlock &DB = Out.Blocks[B];
    DB.Start = static_cast<uint32_t>(Out.Ops.size());
    bool Terminated = false;
    // Instructions after the first terminator are unreachable: branches
    // only enter blocks at their start.
    for (const MachineInstr &MI : MF.Blocks[B].Instrs) {
      countStatic(MI, DB.Mix);
      DecodedOp D;
      D.H = selectHandler(MI);
      D.Aux = MI.Aux;
      D.Dst = MI.Dst;
      D.Src1 = MI.Src1;
      D.Src2 = MI.Src2;
      D.Src3 = MI.Src3;
      D.Imm = MI.Imm;
      D.Ty = typeForTag(MI.TypeTag);
      switch (MI.Op) {
      case MOp::Ld:
      case MOp::St:
      case MOp::AtomicAdd:
        D.Size = typeSize(MI.TypeTag);
        break;
      case MOp::Cast:
        if (MI.Imm2 < 0 || MI.Imm2 > static_cast<int32_t>(Type::Kind::Ptr)) {
          if (Error)
            *Error = formatString("bad cast type in %s", MF.Name.c_str());
          return false;
        }
        D.Ty2 = typeForTag(static_cast<Type::Kind>(MI.Imm2));
        break;
      case MOp::Alloca:
        D.Imm = static_cast<int64_t>(LocalBase + static_cast<uint64_t>(MI.Imm));
        break;
      case MOp::ReadSpecial:
        D.Imm = 0; // when out of range (decoded as MovImm)
        break;
      case MOp::Br:
      case MOp::CondBr: {
        uint64_t Taken = static_cast<uint64_t>(MI.Imm);
        uint64_t NotTaken = static_cast<uint32_t>(MI.Imm2);
        if (Taken >= NumBlocks ||
            (MI.Op == MOp::CondBr && NotTaken >= NumBlocks)) {
          if (Error)
            *Error = formatString("branch to missing block in %s",
                                  MF.Name.c_str());
          return false;
        }
        D.Else = static_cast<uint32_t>(NotTaken);
        break;
      }
      default:
        break;
      }
      Out.Ops.push_back(D);
      if (isTerminator(MI.Op)) {
        Terminated = true;
        break;
      }
    }
    if (!Terminated) {
      // Execution continues into the next block, or off the end.
      DecodedOp D;
      D.H = B + 1 < NumBlocks ? Handler::Fallthrough : Handler::RanOff;
      D.Imm = static_cast<int64_t>(B + 1);
      Out.Ops.push_back(D);
    }
  }
  if (Out.Blocks.empty()) {
    Out.Blocks.push_back(DecodedBlock{});
    DecodedOp D;
    D.H = Handler::RanOff;
    Out.Ops.push_back(D);
  }
  return true;
}

LaunchResult proteus::gpu::launchKernel(Device &Dev,
                                        const LoadedKernel &Kernel,
                                        Dim3 Grid, Dim3 Block,
                                        const std::vector<KernelArg> &Args,
                                        uint64_t MaxStepsPerThread) {
  LaunchResult Out;
  const MachineFunction &MF = Kernel.MF;
  if (!MF.Allocated) {
    Out.Error = "kernel is not register-allocated";
    return Out;
  }
  if (Args.size() != MF.Params.size()) {
    Out.Error = formatString("argument count mismatch: got %zu, kernel %s "
                             "takes %zu",
                             Args.size(), MF.Name.c_str(), MF.Params.size());
    return Out;
  }
  if (Grid.count() == 0 || Block.count() == 0) {
    Out.Error = "empty grid or block";
    return Out;
  }

  const DecodedOp *const Ops = Kernel.Code.Ops.data();
  const std::vector<DecodedBlock> &Blocks = Kernel.Code.Blocks;
  LaunchStats &S = Out.Stats;
  S.Kernel = MF.Name;
  S.Blocks = Grid.count();
  S.ThreadsPerBlock = Block.count();
  S.RegsUsed = MF.NumRegs;
  S.SpillSlots = MF.NumSpillSlots;
  S.LaunchBoundsThreads = MF.LaunchBoundsThreads;

  DeviceMemory &Mem = Dev.memory();
  uint8_t *const MemBase = Mem.data();
  const uint64_t MemSize = Mem.size();
  L2Cache &L2 = Dev.l2();

  std::vector<uint64_t> Regs(MF.NumRegs, 0);
  std::vector<uint64_t> Spill(MF.NumSpillSlots, 0);
  std::vector<uint8_t> Local(MF.LocalBytes, 0);
  uint64_t *const R = Regs.data();

  // Times each block was entered, over all threads; multiplied by the
  // blocks' static mixes after the grid has run.
  std::vector<uint64_t> Entries(Blocks.size(), 0);
  // Dynamic counters, kept in locals so register writes cannot alias them.
  uint64_t MemLoads = 0, MemStores = 0, Atomics = 0, L2Hits = 0,
           L2Misses = 0;
  // The block in which a thread's step budget runs out executes from this
  // copy of its ops, cut at the budget and ended by a StepLimit op.
  std::vector<DecodedOp> LimitedOps;

  // Scratch (spill + alloca) L2 pollution: give each thread distinct
  // synthetic addresses above the global range so heavy spilling evicts
  // useful lines, as it does on real hardware.
  const uint64_t ScratchL2Base = MemSize;
  const uint64_t PerThreadScratch =
      static_cast<uint64_t>(MF.NumSpillSlots) * 8 + MF.LocalBytes + 64;

  // Resolves a global or thread-local address; null when out of range.
  auto resolve = [&](uint64_t Addr, unsigned Size) -> uint8_t * {
    if (Addr >= LocalBase) {
      uint64_t Off = Addr - LocalBase;
      return Off + Size > Local.size() ? nullptr : Local.data() + Off;
    }
    if (Addr + Size > MemSize || Addr + Size < Addr)
      return nullptr;
    return MemBase + Addr;
  };

  const uint64_t BlocksTotal = Grid.count();
  const uint64_t ThreadsPerBlk = Block.count();
  uint64_t ThreadLinear = 0;
  // Geometry registers in SpecialReg order: tid, ctaid, ntid, nctaid.
  uint32_t Geometry[12] = {0,       0,       0,       0,      0,      0,
                           Block.X, Block.Y, Block.Z, Grid.X, Grid.Y, Grid.Z};

  for (uint64_t Blk = 0; Blk != BlocksTotal && Out.Error.empty(); ++Blk) {
    Geometry[3] = static_cast<uint32_t>(Blk % Grid.X);
    Geometry[4] = static_cast<uint32_t>(Blk / Grid.X % Grid.Y);
    Geometry[5] = static_cast<uint32_t>(
        Blk / (static_cast<uint64_t>(Grid.X) * Grid.Y));
    for (uint64_t T = 0; T != ThreadsPerBlk && Out.Error.empty();
         ++T, ++ThreadLinear) {
      Geometry[0] = static_cast<uint32_t>(T % Block.X);
      Geometry[1] = static_cast<uint32_t>(T / Block.X % Block.Y);
      Geometry[2] = static_cast<uint32_t>(
          T / (static_cast<uint64_t>(Block.X) * Block.Y));

      // Initialize registers/spill slots for this thread.
      std::fill(Regs.begin(), Regs.end(), 0);
      if (!Spill.empty())
        std::fill(Spill.begin(), Spill.end(), 0);
      if (!Local.empty())
        std::fill(Local.begin(), Local.end(), 0);
      for (size_t A = 0; A != Args.size(); ++A) {
        const MachineParam &P = MF.Params[A];
        if (P.ArgReg != NoReg)
          Regs[P.ArgReg] = Args[A].Bits;
        else if (P.SpillSlot >= 0)
          Spill[static_cast<size_t>(P.SpillSlot)] = Args[A].Bits;
      }

      const uint64_t ThreadScratchBase =
          ScratchL2Base + ThreadLinear * PerThreadScratch;
      auto l2Access = [&](uint64_t Addr) {
        bool Hit = L2.access(Addr >= LocalBase
                                 ? ThreadScratchBase + (Addr - LocalBase)
                                 : Addr);
        Hit ? ++L2Hits : ++L2Misses;
      };

      uint64_t Steps = 0;
      uint32_t Next = 0; // block to enter
      const DecodedOp *PC = nullptr;
    EnterBlock: {
      const DecodedBlock &DB = Blocks[Next];
      ++Entries[Next];
      Steps += DB.Mix.Steps;
      PC = Ops + DB.Start;
      if (Steps > MaxStepsPerThread) {
        uint64_t Allowed = MaxStepsPerThread - (Steps - DB.Mix.Steps);
        LimitedOps.assign(PC, PC + Allowed);
        LimitedOps.emplace_back();
        LimitedOps.back().H = Handler::StepLimit;
        PC = LimitedOps.data();
      }
    }
      for (;;) {
        const DecodedOp &D = *PC++;
        switch (D.H) {
        case Handler::Nop:
          break;
        case Handler::Mov:
          R[D.Dst] = R[D.Src1];
          break;
        case Handler::MovImm:
          // Immediate materialization is folded into instruction encodings
          // (inline literals / constant banks) on both real ISAs: free.
          R[D.Dst] = static_cast<uint64_t>(D.Imm);
          break;
        case Handler::Sel:
          R[D.Dst] = (R[D.Src1] & 1) ? R[D.Src2] : R[D.Src3];
          break;
#define PROTEUS_EXEC_HANDLER(Name, MOpKind, AuxV, TyKind, Expr)                \
  case Handler::Name: {                                                        \
    const uint64_t A = R[D.Src1], B = R[D.Src2];                               \
    const int64_t Imm = D.Imm;                                                 \
    (void)B;                                                                   \
    (void)Imm;                                                                 \
    R[D.Dst] = (Expr);                                                         \
    break;                                                                     \
  }
          PROTEUS_FAST_HANDLERS(PROTEUS_EXEC_HANDLER)
#undef PROTEUS_EXEC_HANDLER
        case Handler::Binary:
          R[D.Dst] = pir::sem::evalBinary(static_cast<pir::ValueKind>(D.Aux),
                                          D.Ty, R[D.Src1], R[D.Src2]);
          break;
        case Handler::Unary:
          R[D.Dst] = pir::sem::evalUnary(static_cast<pir::ValueKind>(D.Aux),
                                         D.Ty, R[D.Src1]);
          break;
        case Handler::Cast:
          R[D.Dst] = pir::sem::evalCast(static_cast<pir::ValueKind>(D.Aux),
                                        D.Ty, D.Ty2, R[D.Src1]);
          break;
        case Handler::ICmp:
          R[D.Dst] = pir::sem::evalICmp(static_cast<pir::ICmpPred>(D.Aux),
                                        D.Ty, R[D.Src1], R[D.Src2]);
          break;
        case Handler::FCmp:
          R[D.Dst] = pir::sem::evalFCmp(static_cast<pir::FCmpPred>(D.Aux),
                                        D.Ty, R[D.Src1], R[D.Src2]);
          break;
        case Handler::PtrAdd:
          R[D.Dst] = pir::sem::evalPtrAdd(R[D.Src1], D.Ty, R[D.Src2],
                                          static_cast<uint64_t>(D.Imm));
          break;
        case Handler::Ld: {
          uint64_t Addr = R[D.Src1];
          uint8_t *P = resolve(Addr, D.Size);
          if (!P) {
            Out.Error = formatString("load out of bounds at 0x%llx in %s",
                                     static_cast<unsigned long long>(Addr),
                                     MF.Name.c_str());
            goto ThreadDone;
          }
          uint64_t Bits = 0;
          std::memcpy(&Bits, P, D.Size);
          R[D.Dst] = Bits;
          ++MemLoads;
          l2Access(Addr);
          break;
        }
        case Handler::St: {
          uint64_t Addr = R[D.Src2];
          uint8_t *P = resolve(Addr, D.Size);
          if (!P) {
            Out.Error = formatString("store out of bounds at 0x%llx in %s",
                                     static_cast<unsigned long long>(Addr),
                                     MF.Name.c_str());
            goto ThreadDone;
          }
          std::memcpy(P, &R[D.Src1], D.Size);
          ++MemStores;
          l2Access(Addr);
          break;
        }
        case Handler::AtomicAdd: {
          uint64_t Addr = R[D.Src1];
          uint8_t *P = resolve(Addr, D.Size);
          if (!P) {
            Out.Error = "atomic out of bounds in " + MF.Name;
            goto ThreadDone;
          }
          uint64_t Old = 0;
          std::memcpy(&Old, P, D.Size);
          uint64_t Sum = pir::sem::evalBinary(D.Ty->isFloatingPoint()
                                                  ? pir::ValueKind::FAdd
                                                  : pir::ValueKind::Add,
                                              D.Ty, Old, R[D.Src2]);
          std::memcpy(P, &Sum, D.Size);
          R[D.Dst] = Old;
          ++Atomics;
          // Atomics resolve at L2 on the global address as issued.
          bool Hit = L2.access(Addr);
          Hit ? ++L2Hits : ++L2Misses;
          break;
        }
        case Handler::LdSpill:
          R[D.Dst] = Spill[static_cast<size_t>(D.Imm)];
          break;
        case Handler::StSpill:
          Spill[static_cast<size_t>(D.Imm)] = R[D.Src1];
          break;
        case Handler::ReadSpecial:
          R[D.Dst] = Geometry[D.Aux];
          break;
        case Handler::Br:
        case Handler::Fallthrough:
          Next = static_cast<uint32_t>(D.Imm);
          goto EnterBlock;
        case Handler::CondBr:
          Next = (R[D.Src1] & 1) ? static_cast<uint32_t>(D.Imm) : D.Else;
          goto EnterBlock;
        case Handler::Ret:
          goto ThreadDone;
        case Handler::RanOff:
          Out.Error = "PC ran off the end of the kernel";
          goto ThreadDone;
        case Handler::StepLimit:
          Out.Error = "per-thread step limit exceeded in " + MF.Name;
          goto ThreadDone;
        }
      }
    ThreadDone:;
    }
  }

  if (!Out.Error.empty())
    return Out;

  for (size_t B = 0; B != Blocks.size(); ++B) {
    const uint64_t N = Entries[B];
    const BlockMix &M = Blocks[B].Mix;
    S.TotalInstrs += N * M.TotalInstrs;
    S.VALUInsts += N * M.VALUInsts;
    S.SALUInsts += N * M.SALUInsts;
    S.TranscendentalInsts += N * M.TranscendentalInsts;
    S.DivInsts += N * M.DivInsts;
    S.SpillLoads += N * M.SpillLoads;
    S.SpillStores += N * M.SpillStores;
    S.Branches += N * M.Branches;
    S.Barriers += N * M.Barriers;
  }
  S.MemLoads = MemLoads;
  S.MemStores = MemStores;
  S.Atomics = Atomics;
  S.L2Hits = L2Hits;
  S.L2Misses = L2Misses;

  // The executor computes the launch's cost but does not charge any stream
  // timeline: the Runtime.h wrappers decide which timeline pays (serial
  // barrier for gpuLaunchKernel, the target stream for the Async variant).
  applyPerfModel(Dev.target(), S);
  Dev.LastLaunch = S;
  auto It = Dev.Profile.find(S.Kernel);
  if (It == Dev.Profile.end()) {
    Dev.Profile[S.Kernel] = S;
  } else {
    It->second.accumulate(S);
  }
  Out.Ok = true;
  return Out;
}
