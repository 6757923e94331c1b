// The orderings each pinned figure exists to show, checked on the committed
// tests/figures/<name>.txt.  The figure_* ctests compare a program's output
// with that file byte for byte, so a change that moves a figure on purpose
// re-pins it; these tests then still fail if the re-pinned figure breaks
// an ordering the paper draws from it.  Each claim cites the paper's text
// (paraphrased, not quoted).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace sigcomp {
namespace {

/// A pinned exp::Table: one column of values per header name.
struct Figure {
  std::map<std::string, std::vector<double>> columns;
  std::size_t rows = 0;

  [[nodiscard]] const std::vector<double>& column(
      const std::string& name) const {
    const auto it = columns.find(name);
    if (it == columns.end()) {
      ADD_FAILURE() << "no column " << name;
      static const std::vector<double> kNone;
      return kNone;
    }
    return it->second;
  }
};

/// Reads tests/figures/<name>.txt: a "# title" line, the header, a rule of
/// dashes, then one whitespace-separated row of numbers per line.
Figure read_figure(const std::string& name) {
  Figure figure;
  const std::string path = std::string(SIGCOMP_FIGURES_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string line;
  std::getline(in, line);  // title
  std::getline(in, line);
  std::vector<std::string> names;
  std::istringstream header(line);
  for (std::string column; header >> column;) names.push_back(column);
  std::getline(in, line);  // rule
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::size_t i = 0;
    for (double value = 0.0; row >> value; ++i) {
      if (i < names.size()) figure.columns[names[i]].push_back(value);
    }
    if (i == 0) continue;
    EXPECT_EQ(i, names.size()) << path << ": " << line;
    ++figure.rows;
  }
  return figure;
}

TEST(FigureOrdering, Fig04ReliableProtocolsAreTheMostConsistent) {
  // The paper's abstract: adding reliable explicit setup, update and
  // removal lets soft state reach a consistency comparable to, and
  // sometimes better than, hard state's; the unreliable soft-state
  // variants stay behind.  In Fig. 4(a): I(SS+RTR) and I(HS) are the two
  // lowest inconsistency ratios at every lifetime.
  const Figure fig = read_figure("fig04_lifetime.txt");
  ASSERT_EQ(fig.rows, 13u);
  const std::vector<double>& lifetime = fig.column("lifetime_s");
  for (std::size_t r = 0; r < fig.rows; ++r) {
    const double reliable = std::max(fig.column("I(SS+RTR)")[r],
                                     fig.column("I(HS)")[r]);
    const double others = std::min({fig.column("I(SS)")[r],
                                     fig.column("I(SS+ER)")[r],
                                     fig.column("I(SS+RT)")[r]});
    EXPECT_LT(reliable, others) << "lifetime " << lifetime[r] << " s";
  }
}

TEST(FigureOrdering, Fig04HardStateCostsLessOnlyForLongSessions) {
  // The paper's discussion of Fig. 4(b) in its single-hop analysis: hard
  // state sends no refreshes, so once state lives long enough to amortize
  // its reliable setup and removal, its message rate falls below pure soft
  // state's; for short-lived state the refreshes are cheaper.  In the
  // pinned figure M(HS) < M(SS) from the 31.6228 s row on, and not at 10 s
  // or 17.78 s.
  const Figure fig = read_figure("fig04_lifetime.txt");
  ASSERT_EQ(fig.rows, 13u);
  const std::vector<double>& lifetime = fig.column("lifetime_s");
  const std::vector<double>& hs = fig.column("M(HS)");
  const std::vector<double>& ss = fig.column("M(SS)");
  for (std::size_t r = 0; r < fig.rows; ++r) {
    if (lifetime[r] < 30.0) {
      EXPECT_GE(hs[r], ss[r]) << "lifetime " << lifetime[r] << " s";
    } else {
      EXPECT_LT(hs[r], ss[r]) << "lifetime " << lifetime[r] << " s";
    }
  }
  EXPECT_EQ(lifetime[1], 17.7828);
  EXPECT_EQ(lifetime[2], 31.6228);
}

TEST(FigureOrdering, Fig17HopsFurtherFromTheSenderAreStalerMoreOften) {
  // The paper's discussion of Fig. 17 (Sec. III-B): the farther a hop is
  // from the sender, the larger the fraction of time its state is
  // inconsistent, since an update or repair reaches it only after crossing
  // every earlier hop.  Checked on the three analytic columns; the
  // simulated ones carry sampling noise.
  const Figure fig = read_figure("fig17_perhop.txt");
  ASSERT_EQ(fig.rows, 20u);
  for (const char* protocol : {"SS", "SS+RT", "HS"}) {
    const std::vector<double>& inconsistency = fig.column(protocol);
    for (std::size_t r = 1; r < fig.rows; ++r) {
      EXPECT_GT(inconsistency[r], inconsistency[r - 1])
          << protocol << " hop " << fig.column("hop")[r];
    }
  }
}

TEST(FigureOrdering, Fig18LongerPathsCostConsistency) {
  // The paper's discussion of Fig. 18(a): end-to-end inconsistency grows
  // with the number of hops K for every protocol, because each added hop
  // adds delay and another chance of loss.
  const Figure fig = read_figure("fig18_hops.txt");
  ASSERT_EQ(fig.rows, 20u);
  for (const char* protocol : {"I(SS)", "I(SS+RT)", "I(HS)"}) {
    const std::vector<double>& inconsistency = fig.column(protocol);
    for (std::size_t r = 1; r < fig.rows; ++r) {
      EXPECT_GT(inconsistency[r], inconsistency[r - 1])
          << protocol << " K " << fig.column("hops")[r];
    }
  }
}

TEST(FigureOrdering, Fig18HopByHopReliabilityBuysConsistencyCheaply) {
  // The paper's discussion of Fig. 18: hop-by-hop reliable triggers give
  // SS+RT a much lower inconsistency ratio than SS at a slightly higher
  // message rate, and HS, which sends no refreshes, has the lowest
  // message rate.  In the pinned figure, at every K: I(SS) > I(SS+RT) and
  // rate(HS) < rate(SS) < rate(SS+RT).
  const Figure fig = read_figure("fig18_hops.txt");
  ASSERT_EQ(fig.rows, 20u);
  for (std::size_t r = 0; r < fig.rows; ++r) {
    const double hops = fig.column("hops")[r];
    EXPECT_GT(fig.column("I(SS)")[r], fig.column("I(SS+RT)")[r])
        << "K " << hops;
    EXPECT_LT(fig.column("rate(HS)")[r], fig.column("rate(SS)")[r])
        << "K " << hops;
    EXPECT_LT(fig.column("rate(SS)")[r], fig.column("rate(SS+RT)")[r])
        << "K " << hops;
  }
}

TEST(FigureOrdering, Fig19HardStateIgnoresTheRefreshTimer) {
  // Fig. 19's header comment (bench/fig19_mh_refresh.cpp), after the
  // paper: HS uses no refresh, so both of its curves are flat lines in R.
  const Figure fig = read_figure("fig19_mh_refresh.txt");
  ASSERT_EQ(fig.rows, 17u);
  for (const char* column : {"I(HS)", "rate(HS)"}) {
    const std::vector<double>& values = fig.column(column);
    for (std::size_t r = 1; r < fig.rows; ++r) {
      EXPECT_EQ(values[r], values[0])
          << column << " R " << fig.column("refresh_s")[r];
    }
  }
}

}  // namespace
}  // namespace sigcomp
