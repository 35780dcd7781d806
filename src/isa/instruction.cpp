#include "isa/instruction.hpp"

namespace dim::isa {

const char* op_name(Op op) {
  switch (op) {
    case Op::kInvalid: return "invalid";
    case Op::kSll: return "sll";
    case Op::kSrl: return "srl";
    case Op::kSra: return "sra";
    case Op::kSllv: return "sllv";
    case Op::kSrlv: return "srlv";
    case Op::kSrav: return "srav";
    case Op::kAdd: return "add";
    case Op::kAddu: return "addu";
    case Op::kSub: return "sub";
    case Op::kSubu: return "subu";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kNor: return "nor";
    case Op::kSlt: return "slt";
    case Op::kSltu: return "sltu";
    case Op::kMult: return "mult";
    case Op::kMultu: return "multu";
    case Op::kDiv: return "div";
    case Op::kDivu: return "divu";
    case Op::kMfhi: return "mfhi";
    case Op::kMthi: return "mthi";
    case Op::kMflo: return "mflo";
    case Op::kMtlo: return "mtlo";
    case Op::kJr: return "jr";
    case Op::kJalr: return "jalr";
    case Op::kJ: return "j";
    case Op::kJal: return "jal";
    case Op::kSyscall: return "syscall";
    case Op::kBreak: return "break";
    case Op::kAddi: return "addi";
    case Op::kAddiu: return "addiu";
    case Op::kSlti: return "slti";
    case Op::kSltiu: return "sltiu";
    case Op::kAndi: return "andi";
    case Op::kOri: return "ori";
    case Op::kXori: return "xori";
    case Op::kLui: return "lui";
    case Op::kBeq: return "beq";
    case Op::kBne: return "bne";
    case Op::kBlez: return "blez";
    case Op::kBgtz: return "bgtz";
    case Op::kBltz: return "bltz";
    case Op::kBgez: return "bgez";
    case Op::kBltzal: return "bltzal";
    case Op::kBgezal: return "bgezal";
    case Op::kLb: return "lb";
    case Op::kLh: return "lh";
    case Op::kLw: return "lw";
    case Op::kLbu: return "lbu";
    case Op::kLhu: return "lhu";
    case Op::kSb: return "sb";
    case Op::kSh: return "sh";
    case Op::kSw: return "sw";
  }
  return "?";
}

}  // namespace dim::isa
