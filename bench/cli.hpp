// Command line of the paper benches.  Each bench takes a fixed set of
// on/off flags; anything else prints usage to stderr and exits with status
// 2, so a misspelt flag can never silently run the wrong mode.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string_view>

namespace gtw::bench {

struct Flag {
  std::string_view name;
  bool* set;  // becomes true when the flag is given
};

inline void parse_flags(int argc, char** argv,
                        std::initializer_list<Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool known = false;
    for (const Flag& f : flags) {
      if (arg == f.name) {
        *f.set = true;
        known = true;
      }
    }
    if (known) continue;
    std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s", argv[0],
                 argv[i], argv[0]);
    for (const Flag& f : flags)
      std::fprintf(stderr, " [%.*s]", static_cast<int>(f.name.size()),
                   f.name.data());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

}  // namespace gtw::bench
