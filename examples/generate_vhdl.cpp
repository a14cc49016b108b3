// Soft-core generation: emit the parameterized VHDL model for a chosen
// configuration - the deliverable the paper itself describes in Section 3.
//
//   $ ./generate_vhdl [n] [m] [p] [ff|eab] [outdir]
//
// Writes one .vhd file per entity (Figure 7 hierarchy) plus a concrete
// instance baked to the chosen generics, and prints the elaborated cost
// summary the synthesis tables are built from.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "../bench/sweep_flags.hpp"
#include "softcore/elaborate.hpp"
#include "softcore/vhdl_writer.hpp"
#include "tech/mapper.hpp"
#include "tech/report.hpp"

using namespace rasoc;

int main(int argc, char** argv) {
  router::RouterParams params;
  params.n = 16;
  params.m = 8;
  params.p = 4;
  if ((argc > 1 && !bench::parseNumberFlag(argv[1], argv[1], params.n)) ||
      (argc > 2 && !bench::parseNumberFlag(argv[2], argv[2], params.m)) ||
      (argc > 3 && !bench::parseNumberFlag(argv[3], argv[3], params.p)))
    return 1;
  params.fifoImpl = (argc > 4 && std::strcmp(argv[4], "ff") == 0)
                        ? router::FifoImpl::FlipFlop
                        : router::FifoImpl::Eab;
  const std::filesystem::path outdir = argc > 5 ? argv[5] : "rasoc_vhdl";

  const softcore::VhdlWriter writer(params);
  std::filesystem::create_directories(outdir);
  for (const auto& [name, content] : writer.allFiles()) {
    std::ofstream file(outdir / name);
    file << content;
    std::printf("wrote %s (%zu bytes)\n", (outdir / name).c_str(),
                content.size());
  }

  const tech::Flex10keMapper mapper;
  const tech::Cost cost =
      softcore::elaborateRouter(params).totalCost(mapper);
  std::printf(
      "\nrasoc (n=%d, m=%d, p=%d, %s): estimated %s\n", params.n, params.m,
      params.p, std::string(router::name(params.fifoImpl)).c_str(),
      tech::utilizationSummary(mapper.device(), cost).c_str());
  return 0;
}
