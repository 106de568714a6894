#include "isa/assembler.h"

#include <cctype>
#include <map>
#include <string>

#include "isa/encoder.h"

namespace eric::isa {
namespace {

// Splits a line into mnemonic + comma-separated operands; strips comments.
struct Line {
  std::string label;      // empty if none
  std::string mnemonic;   // empty if label-only or blank
  std::vector<std::string> operands;
  int number = 0;
};

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

Status ParseError(int line, const std::string& what) {
  return Status(ErrorCode::kParseError,
                "line " + std::to_string(line) + ": " + what);
}

Result<std::vector<Line>> SplitLines(std::string_view source) {
  std::vector<Line> lines;
  int number = 0;
  size_t pos = 0;
  while (pos <= source.size()) {
    const size_t nl = source.find('\n', pos);
    std::string_view raw = source.substr(
        pos, nl == std::string_view::npos ? source.size() - pos : nl - pos);
    pos = (nl == std::string_view::npos) ? source.size() + 1 : nl + 1;
    ++number;

    // Strip comments (# or //).
    std::string text(raw);
    if (const size_t hash = text.find('#'); hash != std::string::npos) {
      text.resize(hash);
    }
    if (const size_t slashes = text.find("//"); slashes != std::string::npos) {
      text.resize(slashes);
    }
    text = Trim(text);
    if (text.empty()) continue;

    Line line;
    line.number = number;
    // Label?
    if (const size_t colon = text.find(':'); colon != std::string::npos) {
      line.label = Trim(text.substr(0, colon));
      if (line.label.empty()) return ParseError(number, "empty label");
      text = Trim(text.substr(colon + 1));
    }
    if (!text.empty()) {
      const size_t space = text.find_first_of(" \t");
      line.mnemonic = text.substr(0, space);
      if (space != std::string::npos) {
        std::string rest = Trim(text.substr(space));
        // Split on commas.
        size_t start = 0;
        while (start <= rest.size()) {
          const size_t comma = rest.find(',', start);
          const std::string operand =
              Trim(rest.substr(start, comma == std::string::npos
                                          ? rest.size() - start
                                          : comma - start));
          if (!operand.empty()) line.operands.push_back(operand);
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

Result<int64_t> ParseImm(const std::string& text, int line) {
  if (text.empty()) return ParseError(line, "empty immediate");
  try {
    size_t idx = 0;
    const int64_t value = std::stoll(text, &idx, 0);  // handles 0x, decimal
    if (idx != text.size()) {
      return ParseError(line, "bad immediate '" + text + "'");
    }
    return value;
  } catch (...) {
    return ParseError(line, "bad immediate '" + text + "'");
  }
}

Result<uint8_t> ParseReg(const std::string& text, int line) {
  const int reg = ParseRegName(text);
  if (reg < 0) return ParseError(line, "bad register '" + text + "'");
  return static_cast<uint8_t>(reg);
}

// "imm(reg)" operand.
struct MemOperand {
  int64_t offset = 0;
  uint8_t base = 0;
};

Result<MemOperand> ParseMem(const std::string& text, int line) {
  const size_t open = text.find('(');
  const size_t close = text.find(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return ParseError(line, "bad memory operand '" + text + "'");
  }
  const std::string imm_text = Trim(text.substr(0, open));
  Result<int64_t> offset =
      imm_text.empty() ? Result<int64_t>(int64_t{0}) : ParseImm(imm_text, line);
  if (!offset.ok()) return offset.status();
  Result<uint8_t> base =
      ParseReg(Trim(text.substr(open + 1, close - open - 1)), line);
  if (!base.ok()) return base.status();
  return MemOperand{*offset, *base};
}

// Reads the operands of a line that takes exactly `count` of them. The
// leftmost problem is the one reported (a wrong count before any operand);
// reads past a problem return zero placeholders.
class Operands {
 public:
  Operands(const Line& line, size_t count) : line_(line) {
    if (line.operands.size() != count) {
      Fail(0, ParseError(line.number,
                         line.mnemonic + " expects " + std::to_string(count) +
                             " operands, got " +
                             std::to_string(line.operands.size())));
    }
  }

  uint8_t Reg(size_t i) { return Read<uint8_t>(i, ParseReg); }
  int64_t Imm(size_t i) { return Read<int64_t>(i, ParseImm); }
  MemOperand Mem(size_t i) { return Read<MemOperand>(i, ParseMem); }
  std::string Label(size_t i) const {
    return i < line_.operands.size() ? line_.operands[i] : std::string();
  }

  const Status& status() const { return status_; }

 private:
  template <typename T>
  T Read(size_t i, Result<T> (*parse)(const std::string&, int)) {
    if (i >= line_.operands.size()) return T{};
    Result<T> value = parse(line_.operands[i], line_.number);
    if (value.ok()) return *value;
    Fail(i + 1, value.status());
    return T{};
  }

  void Fail(size_t rank, Status status) {
    if (status_.ok() || rank < failed_rank_) {
      status_ = std::move(status);
      failed_rank_ = rank;
    }
  }

  const Line& line_;
  Status status_;
  size_t failed_rank_ = 0;
};

// One instruction of pass 1; a non-empty `label` is patched into `imm`
// as a pc-relative offset in pass 2.
struct Pending {
  Instr instr;
  std::string label;
  int line = 0;
};

// Appends the instructions `line` assembles to (pseudo-instructions may
// expand to several).
Status Expand(const Line& line, std::vector<Pending>& out) {
  const std::string& m = line.mnemonic;
  const int ln = line.number;
  auto emit = [&](const Instr& instr, std::string label = {}) {
    out.push_back(Pending{instr, std::move(label), ln});
  };

  // --- Pseudo-instructions ---
  if (m == "nop" || m == "ret") {
    Operands a(line, 0);
    emit(m == "nop" ? MakeNop() : MakeJalr(0, 1, 0));
    return a.status();
  }
  if (m == "mv" || m == "not" || m == "neg" || m == "seqz" || m == "snez") {
    Operands a(line, 2);
    const uint8_t rd = a.Reg(0);
    const uint8_t rs = a.Reg(1);
    if (m == "mv") emit(MakeI(Op::kAddi, rd, rs, 0));
    if (m == "not") emit(MakeI(Op::kXori, rd, rs, -1));
    if (m == "neg") emit(MakeR(Op::kSub, rd, 0, rs));
    if (m == "seqz") emit(MakeI(Op::kSltiu, rd, rs, 1));
    if (m == "snez") emit(MakeR(Op::kSltu, rd, 0, rs));
    return a.status();
  }
  if (m == "li") {
    Operands a(line, 2);
    const uint8_t rd = a.Reg(0);
    const int64_t v = a.Imm(1);
    ERIC_RETURN_IF_ERROR(a.status());
    if (v >= -2048 && v <= 2047) {
      emit(MakeI(Op::kAddi, rd, 0, v));
      return Status::Ok();
    }
    if (v < INT32_MIN || v > INT32_MAX) {
      return ParseError(ln, "li immediate out of 32-bit range");
    }
    // lui+addiw materialization. The lui field wraps to signed 20-bit
    // (lui sign-extends on RV64; addiw's 32-bit wrap restores the
    // intended value for the whole int32 range).
    const int64_t hi =
        static_cast<int64_t>(static_cast<int32_t>(
            static_cast<uint32_t>((v + 0x800) >> 12) << 12)) >> 12;
    const int64_t lo = static_cast<int32_t>(v - (hi << 12));
    emit(MakeLui(rd, hi));
    if (lo != 0) emit(MakeI(Op::kAddiw, rd, rd, lo));
    return Status::Ok();
  }
  if (m == "j" || m == "call") {
    Operands a(line, 1);
    emit(MakeJal(m == "j" ? 0 : 1, 0), a.Label(0));
    return a.status();
  }
  if (m == "jr") {
    Operands a(line, 1);
    emit(MakeJalr(0, a.Reg(0), 0));
    return a.status();
  }
  if (m == "beqz" || m == "bnez") {
    Operands a(line, 2);
    emit(MakeBranch(m == "beqz" ? Op::kBeq : Op::kBne, a.Reg(0), 0, 0),
         a.Label(1));
    return a.status();
  }
  if (m == "ble" || m == "bgt") {
    // ble a,b,l == bge b,a,l ; bgt a,b,l == blt b,a,l
    Operands a(line, 3);
    const uint8_t ra = a.Reg(0);
    const uint8_t rb = a.Reg(1);
    emit(MakeBranch(m == "ble" ? Op::kBge : Op::kBlt, rb, ra, 0), a.Label(2));
    return a.status();
  }

  // --- Real instructions: the form fixes the operand syntax ---
  const Op op = OpFromName(m);
  if (op == Op::kInvalid) return ParseError(ln, "unknown mnemonic '" + m + "'");
  const Form form = InfoOf(op).form;
  switch (form) {
    case Form::kRegReg: {
      Operands a(line, 3);
      emit(MakeR(op, a.Reg(0), a.Reg(1), a.Reg(2)));
      return a.status();
    }
    case Form::kRegImm:
    case Form::kShift64:
    case Form::kShiftW: {
      Operands a(line, 3);
      emit(MakeI(op, a.Reg(0), a.Reg(1), a.Imm(2)));
      return a.status();
    }
    case Form::kLoad:
    case Form::kJalr: {
      Operands a(line, 2);
      const uint8_t rd = a.Reg(0);
      const MemOperand mem = a.Mem(1);
      emit(MakeI(op, rd, mem.base, mem.offset));
      return a.status();
    }
    case Form::kStore: {
      Operands a(line, 2);
      const uint8_t rs2 = a.Reg(0);
      const MemOperand mem = a.Mem(1);
      emit(MakeStore(op, rs2, mem.base, mem.offset));
      return a.status();
    }
    case Form::kBranch: {
      Operands a(line, 3);
      emit(MakeBranch(op, a.Reg(0), a.Reg(1), 0), a.Label(2));
      return a.status();
    }
    case Form::kUpper: {
      Operands a(line, 2);
      emit(MakeI(op, a.Reg(0), 0, a.Imm(1)));
      return a.status();
    }
    case Form::kJal: {
      const bool link_ra = line.operands.size() == 1;  // "jal label"
      Operands a(line, link_ra ? 1 : 2);
      emit(MakeJal(link_ra ? 1 : a.Reg(0), 0), a.Label(link_ra ? 0 : 1));
      return a.status();
    }
    case Form::kCsr: {  // csrrw rd, csr, rs1
      Operands a(line, 3);
      emit(MakeI(op, a.Reg(0), a.Reg(2), a.Imm(1)));
      return a.status();
    }
    case Form::kAmo:
    case Form::kLr: {  // amo* rd, rs2, (rs1)  |  lr rd, (rs1)
      const bool is_lr = form == Form::kLr;
      Operands a(line, is_lr ? 2 : 3);
      const uint8_t rd = a.Reg(0);
      const uint8_t rs2 = is_lr ? 0 : a.Reg(1);
      const MemOperand mem = a.Mem(is_lr ? 1 : 2);
      ERIC_RETURN_IF_ERROR(a.status());
      if (mem.offset != 0) {
        return ParseError(ln, "atomics take no address offset");
      }
      emit(MakeR(op, rd, mem.base, rs2));
      return Status::Ok();
    }
    case Form::kFixed: {
      Operands a(line, 0);
      emit(MakeI(op, 0, 0, 0));
      return a.status();
    }
  }
  return ParseError(ln, "unknown form");
}

}  // namespace

Result<AssemblyResult> Assemble(std::string_view source) {
  Result<std::vector<Line>> lines = SplitLines(source);
  if (!lines.ok()) return lines.status();

  // Pass 1: expand every line and record label addresses (4 bytes per
  // instruction; see header).
  std::vector<Pending> pending;
  std::map<std::string, uint64_t> labels;
  for (const Line& line : *lines) {
    if (!line.label.empty() &&
        !labels.emplace(line.label, pending.size() * 4).second) {
      return ParseError(line.number, "duplicate label '" + line.label + "'");
    }
    if (!line.mnemonic.empty()) ERIC_RETURN_IF_ERROR(Expand(line, pending));
  }

  // Pass 2: patch label-relative immediates.
  AssemblyResult result;
  result.instructions.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    Pending& p = pending[i];
    if (!p.label.empty()) {
      const auto it = labels.find(p.label);
      if (it == labels.end()) {
        return ParseError(p.line, "undefined label '" + p.label + "'");
      }
      p.instr.imm =
          static_cast<int64_t>(it->second) - static_cast<int64_t>(i * 4);
    }
    result.instructions.push_back(p.instr);
  }
  return result;
}

}  // namespace eric::isa
