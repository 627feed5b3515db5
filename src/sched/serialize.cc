#include "sched/serialize.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/format.h"

namespace mepipe::sched {
namespace {

constexpr const char* kHeader = "mepipe-schedule v1";

const char* PlacementTag(ChunkPlacement placement) {
  return placement == ChunkPlacement::kVShape ? "v" : "rr";
}

// std::stoi with its exceptions turned into CheckError: the text comes
// from outside the program, and a malformed or out-of-range number must
// fail like every other parse error.
int ParseInt(const std::string& text) {
  try {
    return std::stoi(text);
  } catch (const std::logic_error&) {  // std::invalid_argument, std::out_of_range
    MEPIPE_CHECK(false) << "bad number: '" << text << "'";
  }
  return 0;
}

std::string OpToken(const OpId& op) {
  std::string token = StrFormat("%s%d.%d.%d", ToString(op.kind), op.micro, op.slice, op.chunk);
  if (op.kind == OpKind::kWeightGradGemm) {
    token += StrFormat(".%d", op.gemm);
  }
  return token;
}

OpId ParseOpToken(const std::string& token) {
  OpId op;
  std::size_t cursor = 0;
  if (token.rfind("Wg", 0) == 0) {
    op.kind = OpKind::kWeightGradGemm;
    cursor = 2;
  } else if (token.rfind("AR", 0) == 0) {
    op.kind = OpKind::kDpSync;
    cursor = 2;
  } else if (!token.empty() && token[0] == 'F') {
    op.kind = OpKind::kForward;
    cursor = 1;
  } else if (!token.empty() && token[0] == 'B') {
    op.kind = OpKind::kBackward;
    cursor = 1;
  } else if (!token.empty() && token[0] == 'W') {
    op.kind = OpKind::kWeightGrad;
    cursor = 1;
  } else {
    MEPIPE_CHECK(false) << "bad op token: " << token;
  }
  int fields[4] = {0, 0, 0, -1};
  int field = 0;
  std::string number;
  for (std::size_t i = cursor; i <= token.size(); ++i) {
    if (i == token.size() || token[i] == '.') {
      MEPIPE_CHECK(!number.empty()) << "bad op token: " << token;
      MEPIPE_CHECK_LT(field, 4) << "bad op token: " << token;
      fields[field++] = ParseInt(number);
      number.clear();
    } else {
      number += token[i];
    }
  }
  MEPIPE_CHECK_GE(field, 3) << "bad op token: " << token;
  op.micro = fields[0];
  op.slice = fields[1];
  op.chunk = fields[2];
  op.gemm = fields[3];
  return op;
}

// Reads "key=value" off a stream token.
std::pair<std::string, std::string> KeyValue(const std::string& token) {
  const std::size_t eq = token.find('=');
  MEPIPE_CHECK_NE(eq, std::string::npos) << "expected key=value, got: " << token;
  return {token.substr(0, eq), token.substr(eq + 1)};
}

}  // namespace

std::string SerializeSchedule(const Schedule& schedule) {
  std::string out = kHeader;
  out += "\nmethod ";
  out += schedule.method;
  // Job tag only when set — untagged schedules (the norm, and every
  // golden snapshot) serialize byte-identically to the pre-tag format.
  if (schedule.job != 0) {
    out += StrFormat("\njob %d", schedule.job);
  }
  out += StrFormat("\nproblem p=%d v=%d s=%d n=%d split=%d placement=%s deferred_w=%d\n",
                   schedule.problem.stages, schedule.problem.virtual_chunks,
                   schedule.problem.slices, schedule.problem.micros,
                   schedule.problem.split_backward ? 1 : 0,
                   PlacementTag(schedule.problem.placement), schedule.deferred_wgrad ? 1 : 0);
  for (int stage = 0; stage < schedule.problem.stages; ++stage) {
    out += StrFormat("stage %d:", stage);
    for (const OpId& op : schedule.stage_ops[static_cast<std::size_t>(stage)]) {
      out += ' ';
      out += OpToken(op);
    }
    out += '\n';
  }
  return out;
}

Schedule ParseSchedule(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  MEPIPE_CHECK(static_cast<bool>(std::getline(in, line)) && line == kHeader)
      << "missing header '" << kHeader << "'";

  Schedule schedule;
  MEPIPE_CHECK(static_cast<bool>(std::getline(in, line)) && line.rfind("method ", 0) == 0)
      << "missing method line";
  schedule.method = line.substr(7);

  MEPIPE_CHECK(static_cast<bool>(std::getline(in, line))) << "missing problem line";
  if (line.rfind("job ", 0) == 0) {
    schedule.job = ParseInt(line.substr(4));
    MEPIPE_CHECK_GE(schedule.job, 0) << "negative job tag";
    MEPIPE_CHECK(static_cast<bool>(std::getline(in, line))) << "missing problem line";
  }
  MEPIPE_CHECK(line.rfind("problem ", 0) == 0) << "missing problem line";
  {
    std::istringstream fields(line.substr(8));
    std::string token;
    while (fields >> token) {
      const auto [key, value] = KeyValue(token);
      if (key == "p") {
        schedule.problem.stages = ParseInt(value);
      } else if (key == "v") {
        schedule.problem.virtual_chunks = ParseInt(value);
      } else if (key == "s") {
        schedule.problem.slices = ParseInt(value);
      } else if (key == "n") {
        schedule.problem.micros = ParseInt(value);
      } else if (key == "split") {
        schedule.problem.split_backward = value == "1";
      } else if (key == "placement") {
        schedule.problem.placement =
            value == "v" ? ChunkPlacement::kVShape : ChunkPlacement::kRoundRobin;
      } else if (key == "deferred_w") {
        schedule.deferred_wgrad = value == "1";
      } else {
        MEPIPE_CHECK(false) << "unknown problem field: " << key;
      }
    }
  }
  schedule.problem.Validate();
  schedule.stage_ops.resize(static_cast<std::size_t>(schedule.problem.stages));

  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    MEPIPE_CHECK(line.rfind("stage ", 0) == 0) << "unexpected line: " << line;
    std::istringstream fields(line.substr(6));
    std::string stage_token;
    fields >> stage_token;
    MEPIPE_CHECK(!stage_token.empty() && stage_token.back() == ':')
        << "malformed stage line: " << line;
    const int stage = ParseInt(stage_token.substr(0, stage_token.size() - 1));
    MEPIPE_CHECK_GE(stage, 0);
    MEPIPE_CHECK_LT(stage, schedule.problem.stages);
    std::string op_token;
    while (fields >> op_token) {
      schedule.stage_ops[static_cast<std::size_t>(stage)].push_back(ParseOpToken(op_token));
    }
  }

  if (schedule.job != 0) {
    TagJob(schedule, schedule.job);  // op tokens don't carry the tag
  }
  ValidateSchedule(schedule);
  return schedule;
}

void WriteScheduleFile(const Schedule& schedule, const std::string& path) {
  std::ofstream file(path);
  MEPIPE_CHECK(file.good()) << "cannot open " << path;
  file << SerializeSchedule(schedule);
  MEPIPE_CHECK(file.good()) << "write to " << path << " failed";
}

Schedule ReadScheduleFile(const std::string& path) {
  std::ifstream file(path);
  MEPIPE_CHECK(file.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseSchedule(buffer.str());
}

}  // namespace mepipe::sched
