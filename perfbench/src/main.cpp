// perfbench — subcommands run.py drives, one per benchmark phase:
//
//   perfbench figure-cold     --out F --results DIR --seed N [--trace] [--ready-only]
//   perfbench figure-warm     --out F --results DIR --seed N [--trace] [--ready-only]
//   perfbench serve-gen       --roster F --primary ID --seed N   (commands on stdin)
//   perfbench serve-host      --out F --cluster-file F --self ID --journal-dir DIR
//                             --port-file F
//   perfbench build-info      (compiler, flags and build type as JSON)
//
// The figure subcommands read and write pools under $FEDTUNE_CACHE_DIR.
// Exit status is 0 on success, 1 on any error (message on stderr).
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "util.hpp"

#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace perfbench {
int cmd_figure_cold(const Args& a);
int cmd_figure_warm(const Args& a);
int cmd_serve_gen(const Args& a);
int cmd_serve_host(const Args& a);
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench SUBCOMMAND [--flag value ...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args a(argc, argv, 2);
    if (cmd == "figure-cold") return cmd_figure_cold(a);
    if (cmd == "figure-warm") return cmd_figure_warm(a);
    if (cmd == "serve-gen") return cmd_serve_gen(a);
    if (cmd == "serve-host") return cmd_serve_host(a);
    if (cmd == "build-info") {
      std::printf("%s\n", Json()
                              .str("compiler", PERFBENCH_COMPILER)
                              .str("flags", PERFBENCH_CXX_FLAGS)
                              .str("build_type", PERFBENCH_BUILD_TYPE)
                              .text()
                              .c_str());
      return 0;
    }
    std::cerr << "unknown subcommand " << cmd << "\n";
    return 2;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench " << cmd << ": " << ex.what() << "\n";
    return 1;
  }
}
