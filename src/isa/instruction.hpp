// MIPS I (R3000) integer instruction set: operations, decoded form and
// classification predicates used by the simulator and the DIM translator.
#pragma once

#include <cstdint>
#include <string>

namespace dim::isa {

enum class Op : uint8_t {
  kInvalid = 0,
  // R-type arithmetic / logic
  kSll, kSrl, kSra, kSllv, kSrlv, kSrav,
  kAdd, kAddu, kSub, kSubu,
  kAnd, kOr, kXor, kNor,
  kSlt, kSltu,
  // HI/LO
  kMult, kMultu, kDiv, kDivu,
  kMfhi, kMthi, kMflo, kMtlo,
  // Jumps
  kJr, kJalr, kJ, kJal,
  // Traps
  kSyscall, kBreak,
  // I-type arithmetic / logic
  kAddi, kAddiu, kSlti, kSltiu, kAndi, kOri, kXori, kLui,
  // Branches
  kBeq, kBne, kBlez, kBgtz, kBltz, kBgez, kBltzal, kBgezal,
  // Memory
  kLb, kLh, kLw, kLbu, kLhu, kSb, kSh, kSw,
};

// Decoded instruction. `imm16` is kept raw (16 bits); use simm()/uimm()
// according to the operation's semantics.
struct Instr {
  Op op = Op::kInvalid;
  uint8_t rs = 0;
  uint8_t rt = 0;
  uint8_t rd = 0;
  uint8_t shamt = 0;
  uint16_t imm16 = 0;
  uint32_t target26 = 0;  // J-type target field

  int32_t simm() const { return static_cast<int16_t>(imm16); }
  uint32_t uimm() const { return imm16; }
};

const char* op_name(Op op);

// --- Classification ---------------------------------------------------------
// Defined inline: the translator, the array core and the interpreter call
// these on every instruction they handle.

// Conditional branches (beq..bgezal).
inline bool is_branch(Op op) {
  switch (op) {
    case Op::kBeq: case Op::kBne: case Op::kBlez: case Op::kBgtz:
    case Op::kBltz: case Op::kBgez: case Op::kBltzal: case Op::kBgezal:
      return true;
    default:
      return false;
  }
}

// j, jal, jr, jalr.
inline bool is_jump(Op op) {
  return op == Op::kJ || op == Op::kJal || op == Op::kJr || op == Op::kJalr;
}

inline bool is_load(Op op) {
  switch (op) {
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      return true;
    default:
      return false;
  }
}

inline bool is_store(Op op) {
  return op == Op::kSb || op == Op::kSh || op == Op::kSw;
}

// mult/multu/div/divu (write HI/LO).
inline bool is_mult_div(Op op) {
  return op == Op::kMult || op == Op::kMultu || op == Op::kDiv || op == Op::kDivu;
}

// mfhi/mflo.
inline bool is_hilo_read(Op op) { return op == Op::kMfhi || op == Op::kMflo; }

inline bool is_shift(Op op) {
  switch (op) {
    case Op::kSll: case Op::kSrl: case Op::kSra:
    case Op::kSllv: case Op::kSrlv: case Op::kSrav:
      return true;
    default:
      return false;
  }
}

// Kind of array functional unit an instruction needs.
enum class FuKind : uint8_t { kAlu, kMul, kLdSt, kNone };

inline FuKind fu_kind(Op op) {
  if (is_load(op) || is_store(op)) return FuKind::kLdSt;
  if (op == Op::kMult || op == Op::kMultu) return FuKind::kMul;
  switch (op) {
    case Op::kSll: case Op::kSrl: case Op::kSra:
    case Op::kSllv: case Op::kSrlv: case Op::kSrav:
    case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
    case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
    case Op::kSlt: case Op::kSltu:
    case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu:
    case Op::kAndi: case Op::kOri: case Op::kXori: case Op::kLui:
      return FuKind::kAlu;
    default:
      return FuKind::kNone;
  }
}

// True if the DIM engine can translate this instruction onto the array.
// Per the paper: ALU ops, shifts, multiplies and loads/stores are supported;
// divisions, jumps, HI/LO moves and traps are not. Conditional branches are
// supported only as speculation points (they terminate a basic block).
// mfhi/mflo immediately after a mult are folded by the translator, so the
// HI/LO moves themselves are handled there, not here.
inline bool dim_supported(Op op) { return fu_kind(op) != FuKind::kNone; }

// Destination general register written by this instruction, or -1 if none.
// (jal/jalr/bltzal/bgezal write $ra / rd.)
inline int dest_reg(const Instr& i) {
  switch (i.op) {
    case Op::kSll: case Op::kSrl: case Op::kSra:
    case Op::kSllv: case Op::kSrlv: case Op::kSrav:
    case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
    case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
    case Op::kSlt: case Op::kSltu:
    case Op::kMfhi: case Op::kMflo:
      return i.rd == 0 ? -1 : i.rd;
    case Op::kJalr:
      return i.rd == 0 ? -1 : i.rd;
    case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu:
    case Op::kAndi: case Op::kOri: case Op::kXori: case Op::kLui:
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      return i.rt == 0 ? -1 : i.rt;
    case Op::kJal: case Op::kBltzal: case Op::kBgezal:
      return 31;
    default:
      return -1;
  }
}

// Source general registers read by this instruction. Fills up to 2 entries,
// returns the count. $zero sources are still reported (reads of $0 are free
// but harmless to track).
inline int src_regs(const Instr& i, int out[2]) {
  switch (i.op) {
    // shamt shifts read only rt
    case Op::kSll: case Op::kSrl: case Op::kSra:
      out[0] = i.rt;
      return 1;
    // variable shifts read rs (amount) and rt (value)
    case Op::kSllv: case Op::kSrlv: case Op::kSrav:
      out[0] = i.rs; out[1] = i.rt;
      return 2;
    case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
    case Op::kAnd: case Op::kOr: case Op::kXor: case Op::kNor:
    case Op::kSlt: case Op::kSltu:
    case Op::kMult: case Op::kMultu: case Op::kDiv: case Op::kDivu:
    case Op::kBeq: case Op::kBne:
      out[0] = i.rs; out[1] = i.rt;
      return 2;
    case Op::kAddi: case Op::kAddiu: case Op::kSlti: case Op::kSltiu:
    case Op::kAndi: case Op::kOri: case Op::kXori:
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
    case Op::kBlez: case Op::kBgtz: case Op::kBltz: case Op::kBgez:
    case Op::kBltzal: case Op::kBgezal:
    case Op::kJr: case Op::kJalr:
    case Op::kMthi: case Op::kMtlo:
      out[0] = i.rs;
      return 1;
    case Op::kSb: case Op::kSh: case Op::kSw:
      out[0] = i.rs; out[1] = i.rt;  // base address and stored value
      return 2;
    default:
      return 0;
  }
}

}  // namespace dim::isa
