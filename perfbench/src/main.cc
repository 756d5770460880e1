// perfbench: the repository's benchmark binary. Subcommands:
//   fixture  write the workload's weight files (untimed, once per checkout)
//   host     serve a workload over TCP (serve::Server + ServingEngine)
//   load     open-loop load generator with the oracle check
//   train    the training job of the traced serve-causer-churn run
//   layers   the traced run's per-layer replay and machine ceilings
// perfbench/run.py drives these; see perfbench/README.md.
#include <cstdio>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench <fixture|host|load|train|layers> "
                 "--workload=NAME [...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const causer::Flags flags = causer::Flags::Parse(argc - 1, argv + 1);
  if (cmd == "fixture") return perfbench::CmdFixture(flags);
  if (cmd == "host") return perfbench::CmdHost(flags);
  if (cmd == "load") return perfbench::CmdLoad(flags);
  if (cmd == "train") return perfbench::CmdTrain(flags);
  if (cmd == "layers") return perfbench::CmdLayers(flags);
  std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
