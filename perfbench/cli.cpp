#include "cli.hpp"

#include <charconv>
#include <set>
#include <stdexcept>

#include "workload.hpp"

namespace perfbench {

std::uint64_t parseUnsigned(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  // from_chars accepts neither a sign nor leading blanks for unsigned
  // types; requiring it to consume the whole string rejects "17x".
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc() || ptr != last)
    throw std::invalid_argument(std::string(what) + ": '" +
                                std::string(text) +
                                "' is not an unsigned decimal integer");
  return value;
}

Args parseArgs(const std::vector<std::string_view>& argv) {
  Args args;
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argv.size())
      throw std::invalid_argument(std::string(flag) + ": missing value");
    const std::string_view value = argv[i + 1];
    if (!seen.insert(flag).second)
      throw std::invalid_argument(std::string(flag) + ": given twice");
    if (flag == "--workload") {
      if (!findWorkload(value))
        throw std::invalid_argument("--workload: unknown workload '" +
                                    std::string(value) + "'");
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parseUnsigned(value, flag);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseUnsigned(value, flag);
      if (s < 1 || s > 3600)
        throw std::invalid_argument("--seconds: must be in [1, 3600]");
      args.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace: must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      if (value.empty())
        throw std::invalid_argument("--trace-dir: empty path");
      args.traceDir = value;
    } else if (flag == "--git-sha") {
      args.gitSha = value;
    } else {
      throw std::invalid_argument("unknown flag '" + std::string(flag) +
                                  "'");
    }
  }
  for (const std::string_view required :
       {"--workload", "--seed", "--seconds", "--trace"})
    if (!seen.count(required))
      throw std::invalid_argument(std::string(required) + ": required");
  return args;
}

}  // namespace perfbench
