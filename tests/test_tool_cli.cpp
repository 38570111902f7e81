// Tests for the shared command-line plumbing of the optdm_* tools
// (tools/cli.hpp): the generated `--help` text.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cli.hpp"

namespace {

using namespace optdm;

/// The `--help` line that documents `--<name>`.
std::string help_line(const std::string& usage, const std::string& name) {
  std::istringstream in(usage);
  for (std::string line; std::getline(in, line);) {
    const std::string head = "  --" + name;
    if (line.rfind(head, 0) == 0 && line.size() > head.size() &&
        (line[head.size()] == '=' || line[head.size()] == ' '))
      return line;
  }
  return {};
}

TEST(ToolCli, UsageStartsHelpInColumnTwentyOrTwoSpacesAfterTheHead) {
  const tools::FlagTable table{{"seed", "N", "random seed"},
                               {"verbose", "", "print more"},
                               {"fourteen-chars", "", "head of 18"},
                               {"fifteen-chars-x", "", "head of 19"},
                               {"connect", "HOST:PORT", "execute remotely"}};
  const auto usage = tools::usage("tool", "intro", table);
  EXPECT_EQ(help_line(usage, "seed"), "  --seed=N          random seed");
  EXPECT_EQ(help_line(usage, "verbose"), "  --verbose         print more");
  EXPECT_EQ(help_line(usage, "fourteen-chars"),
            "  --fourteen-chars  head of 18");
  EXPECT_EQ(help_line(usage, "fifteen-chars-x"),
            "  --fifteen-chars-x  head of 19");
  EXPECT_EQ(help_line(usage, "connect"),
            "  --connect=HOST:PORT  execute remotely");
}

TEST(ToolCli, EveryDeclaredFlagHasAGapBeforeItsHelp) {
  const auto table =
      tools::flag_table({tools::pattern_flags(), tools::compile_flags(),
                         tools::service_flags(), tools::shard_flags()});
  const auto usage = tools::usage("tool", "intro", table);
  for (const auto& flag : table) {
    const std::string help = flag.help;
    const auto line = help_line(usage, flag.name);
    ASSERT_FALSE(line.empty()) << flag.name;
    EXPECT_NE(line.find("  " + help.substr(0, help.find('\n'))),
              std::string::npos)
        << line;
  }
}

}  // namespace
