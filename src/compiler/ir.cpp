#include "compiler/ir.h"

namespace eric::compiler {
namespace {

const char* BinOpName(IrBinOp op) {
  switch (op) {
    case IrBinOp::kAdd: return "add";
    case IrBinOp::kSub: return "sub";
    case IrBinOp::kMul: return "mul";
    case IrBinOp::kDiv: return "div";
    case IrBinOp::kRem: return "rem";
    case IrBinOp::kAnd: return "and";
    case IrBinOp::kOr: return "or";
    case IrBinOp::kXor: return "xor";
    case IrBinOp::kShl: return "shl";
    case IrBinOp::kShr: return "shr";
    case IrBinOp::kEq: return "eq";
    case IrBinOp::kNe: return "ne";
    case IrBinOp::kLt: return "lt";
    case IrBinOp::kLe: return "le";
    case IrBinOp::kGt: return "gt";
    case IrBinOp::kGe: return "ge";
  }
  return "?";
}

// Built by appending: GCC 12 reports a false -Wrestrict for
// `"%" + std::to_string(...)` (the const char* + string&& overload).
std::string V(VReg reg) {
  if (reg == kNoVReg) return "_";
  std::string name = "%";
  name += std::to_string(reg);
  return name;
}

}  // namespace

std::string DumpIr(const IrModule& module) {
  std::string out;
  for (const IrGlobal& g : module.globals) {
    out += "global " + g.name + "[" + std::to_string(g.size_elems) + "]\n";
  }
  for (const IrFunction& fn : module.functions) {
    out += "fn " + fn.name + "(" + std::to_string(fn.num_params) + ")\n";
    for (size_t b = 0; b < fn.blocks.size(); ++b) {
      out += "  b" + std::to_string(b) + ":\n";
      for (const IrInstr& i : fn.blocks[b].instrs) {
        out += "    ";
        switch (i.kind) {
          case IrInstr::Kind::kConst:
            out += V(i.dst) + " = const " + std::to_string(i.imm);
            break;
          case IrInstr::Kind::kMove:
            out += V(i.dst) + " = " + V(i.lhs);
            break;
          case IrInstr::Kind::kBinary:
            out += V(i.dst) + " = " + BinOpName(i.bin_op) + " " + V(i.lhs) +
                   ", " + V(i.rhs);
            break;
          case IrInstr::Kind::kNeg:
            out += V(i.dst) + " = neg " + V(i.lhs);
            break;
          case IrInstr::Kind::kNot:
            out += V(i.dst) + " = not " + V(i.lhs);
            break;
          case IrInstr::Kind::kBitNot:
            out += V(i.dst) + " = bitnot " + V(i.lhs);
            break;
          case IrInstr::Kind::kLoad:
            out += V(i.dst) + " = load " + i.symbol;
            if (i.index != kNoVReg) {
              out.append("[").append(V(i.index)).append("]");
            }
            break;
          case IrInstr::Kind::kStore:
            out += "store " + i.symbol;
            if (i.index != kNoVReg) {
              out.append("[").append(V(i.index)).append("]");
            }
            out += " = " + V(i.lhs);
            break;
          case IrInstr::Kind::kCall: {
            out += V(i.dst) + " = call " + i.symbol + "(";
            for (size_t a = 0; a < i.args.size(); ++a) {
              if (a != 0) out += ", ";
              out += V(i.args[a]);
            }
            out += ")";
            break;
          }
          case IrInstr::Kind::kRet:
            out += "ret " + V(i.lhs);
            break;
          case IrInstr::Kind::kBr:
            out += "br b" + std::to_string(i.target);
            break;
          case IrInstr::Kind::kCondBr:
            out += "condbr " + V(i.lhs) + ", b" + std::to_string(i.target) +
                   ", b" + std::to_string(i.target2);
            break;
        }
        out += "\n";
      }
    }
  }
  return out;
}

}  // namespace eric::compiler
