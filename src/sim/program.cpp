#include "sim/program.hpp"

#include <sstream>

namespace armbar::sim {

std::string Program::disassemble() const {
  std::ostringstream os;
  os << "; program: " << name << "\n";
  for (std::uint32_t i = 0; i < code.size(); ++i)
    os << i << ":\t" << to_string(code[i]) << "\n";
  return os.str();
}

std::string Program::serialize() const {
  std::ostringstream os;
  os << ".name " << name << "\n";
  for (const Instr& ins : code) {
    os << op_token(ins.op) << " " << static_cast<int>(ins.rd) << " "
       << static_cast<int>(ins.rn) << " " << static_cast<int>(ins.rm) << " "
       << ins.imm << " " << ins.target << "\n";
  }
  return os.str();
}

bool parse_program(const std::string& text, Program* out, std::string* err) {
  auto fail = [&](const std::string& why, const std::string& line) {
    if (err) *err = why + ": '" + line + "'";
    return false;
  };
  Program p;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind(".name ", 0) == 0) {
      p.name = line.substr(6);
      continue;
    }
    std::istringstream ls(line);
    std::string tok;
    Instr ins;
    long long rd = 0, rn = 0, rm = 0;
    if (!(ls >> tok >> rd >> rn >> rm >> ins.imm >> ins.target))
      return fail("malformed instruction line", line);
    if (!op_from_token(tok, &ins.op)) return fail("unknown opcode", line);
    if (rd < 0 || rd >= kNumRegs || rn < 0 || rn >= kNumRegs || rm < 0 ||
        rm >= kNumRegs)
      return fail("register out of range", line);
    ins.rd = static_cast<Reg>(rd);
    ins.rn = static_cast<Reg>(rn);
    ins.rm = static_cast<Reg>(rm);
    std::string rest;
    if (ls >> rest) return fail("trailing tokens", line);
    p.code.push_back(ins);
  }
  for (std::uint32_t i = 0; i < p.code.size(); ++i)
    if (is_branch(p.code[i].op) && p.code[i].target > p.code.size())
      return fail("branch target out of range", std::to_string(i));
  *out = std::move(p);
  return true;
}

Program insert_nops(const Program& p, std::uint32_t at, std::uint32_t n) {
  ARMBAR_CHECK_MSG(at <= p.size(), "insert_nops: pc out of range");
  if (n == 0) return p;
  Program out;
  out.name = p.name;
  out.code.reserve(p.code.size() + n);
  out.code.insert(out.code.end(), p.code.begin(), p.code.begin() + at);
  out.code.insert(out.code.end(), n, Instr{Op::kNop});
  out.code.insert(out.code.end(), p.code.begin() + at, p.code.end());
  for (Instr& ins : out.code)
    if (is_branch(ins.op) && ins.target >= at) ins.target += n;
  return out;
}

MicroOp decode_instr(const Instr& ins) {
  MicroOp u;
  u.op = ins.op;
  u.cls = op_class(ins.op);
  u.rd = ins.rd;
  u.rn = ins.rn;
  u.rm = ins.rm;
  u.imm = ins.imm;
  u.target = ins.target;

  // Issue-gating source registers, mirroring the per-op operand needs the
  // interpreter used to re-derive every cycle. Stores deliberately gate only
  // on the address register: the value may still be pending (the store
  // buffer tracks its value_ready).
  switch (ins.op) {
    case Op::kMov:
    case Op::kAddImm: case Op::kSubImm: case Op::kAndImm: case Op::kOrrImm:
    case Op::kEorImm: case Op::kLslImm: case Op::kLsrImm: case Op::kCmpImm:
    case Op::kLdr: case Op::kLdar: case Op::kLdapr: case Op::kLdxr:
    case Op::kStr: case Op::kStlr:
      u.src1 = ins.rn;
      break;
    case Op::kAdd: case Op::kSub: case Op::kAnd: case Op::kOrr:
    case Op::kEor: case Op::kLsl: case Op::kLsr: case Op::kMul:
    case Op::kCmp:
    case Op::kLdrIdx: case Op::kStrIdx:
    case Op::kStxr: case Op::kSwp:
      u.src1 = ins.rn;
      u.src2 = ins.rm;
      break;
    default:
      break;  // no operand gates issue (XZR is always ready)
  }

  if (is_barrier(ins.op) || ins.op == Op::kStxr || ins.op == Op::kLdar ||
      ins.op == Op::kLdapr || ins.op == Op::kLdxr || ins.op == Op::kStlr ||
      ins.op == Op::kWfe || ins.op == Op::kSwp || ins.op == Op::kHalt)
    u.flags |= kUopNonspec;
  if (ins.op == Op::kLdrIdx || ins.op == Op::kStrIdx) u.flags |= kUopIndexed;
  if (ins.op == Op::kStlr) u.flags |= kUopRelease;
  if (ins.op == Op::kLdar) u.flags |= kUopAcqSc;
  if (ins.op == Op::kLdapr) u.flags |= kUopAcqPc;
  if (ins.op == Op::kLdxr) u.flags |= kUopExcl;
  return u;
}

DecodedProgram::DecodedProgram(Program src) : src_(std::move(src)) {
  ARMBAR_CHECK_MSG(!src_.code.empty(), "cannot decode an empty program");
  uops_.reserve(src_.code.size());
  for (const Instr& ins : src_.code) uops_.push_back(decode_instr(ins));
  // Run lengths, back to front: a NOP's run is its successor's plus one.
  std::uint32_t run = 0;
  for (auto it = uops_.rbegin(); it != uops_.rend(); ++it) {
    run = it->cls == OpClass::kNop ? run + 1 : 0;
    it->nop_run = run;
  }
}

ProgramHandle decode_program(Program src) {
  return std::make_shared<const DecodedProgram>(std::move(src));
}

Program Asm::take(std::string name) {
  for (const auto& [idx, label] : fixups_) {
    auto it = labels_.find(label);
    ARMBAR_CHECK_MSG(it != labels_.end(), "unresolved label");
    code_[idx].target = it->second;
  }
  Program p;
  p.name = std::move(name);
  p.code = std::move(code_);
  code_.clear();
  labels_.clear();
  fixups_.clear();
  return p;
}

}  // namespace armbar::sim
