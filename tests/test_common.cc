/**
 * @file
 * Unit tests for the common utilities: deterministic RNG, tables, CSV,
 * heatmaps, stats, and the CLI parser.
 */

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/heatmap.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace vtrans {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(10);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(12);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Table, AlignedTextOutput)
{
    Table t({"name", "value"});
    t.beginRow();
    t.cell(std::string("x"));
    t.cell(static_cast<int64_t>(42));
    t.beginRow();
    t.cell(std::string("longer"));
    t.cell(3.14159, 2);
    const std::string text = t.toText();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("3.14"), std::string::npos);
}

TEST(Table, CsvEscaping)
{
    Table t({"a", "b"});
    t.beginRow();
    t.cell(std::string("has,comma"));
    t.cell(std::string("has\"quote"));
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
}

TEST(Heatmap, MinMaxAndRender)
{
    Heatmap hm("test", {"r0", "r1"}, {"c0", "c1", "c2"});
    double v = 0.0;
    for (size_t r = 0; r < 2; ++r) {
        for (size_t c = 0; c < 3; ++c) {
            hm.set(r, c, v);
            v += 1.0;
        }
    }
    EXPECT_EQ(hm.minValue(), 0.0);
    EXPECT_EQ(hm.maxValue(), 5.0);
    const std::string rendered = hm.render();
    EXPECT_NE(rendered.find("test"), std::string::npos);
    EXPECT_NE(rendered.find('@'), std::string::npos); // max bucket shade
    const std::string csv = hm.toCsv();
    EXPECT_NE(csv.find("5.000000"), std::string::npos);
}

TEST(Stats, AddSetMerge)
{
    StatSet s;
    s.add("x", 1.0);
    s.add("x", 2.0);
    s.set("y", 5.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(s.get("y"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_FALSE(s.has("missing"));

    StatSet t;
    t.add("x", 10.0);
    t.add("z", 1.0);
    s.merge(t);
    EXPECT_DOUBLE_EQ(s.get("x"), 13.0);
    EXPECT_DOUBLE_EQ(s.get("z"), 1.0);
}

TEST(Cli, ParsesFlagsAndPositionals)
{
    const char* argv[] = {"prog",      "--alpha=3", "--beta", "7",
                          "positional", "--flag"};
    Cli cli(6, argv);
    EXPECT_EQ(cli.num("alpha", 0), 3);
    EXPECT_EQ(cli.num("beta", 0), 7);
    EXPECT_TRUE(cli.has("flag"));
    EXPECT_FALSE(cli.has("missing"));
    EXPECT_EQ(cli.num("missing", 42), 42);
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "positional");

    // A value must parse completely: no silent prefix, no garbage, no
    // out-of-range wrap. The error names the flag.
    const char* bad[] = {"prog", "--events", "4e6", "--reps=abc",
                         "--big=99999999999999999999", "--neg=-3"};
    Cli strict(6, bad);
    EXPECT_DEATH(strict.num("events", 0), "--events expects an integer");
    EXPECT_DEATH(strict.num("reps", 3), "--reps expects an integer.*abc");
    EXPECT_DEATH(strict.num("big", 0), "--big expects an integer");
    EXPECT_EQ(strict.num("neg", 0), -3);
}

TEST(Cli, RealAndStringValues)
{
    const char* argv[] = {"prog", "--ratio=2.5", "--name", "vbench"};
    Cli cli(4, argv);
    EXPECT_DOUBLE_EQ(cli.real("ratio", 0.0), 2.5);
    EXPECT_EQ(cli.str("name", ""), "vbench");
    EXPECT_EQ(cli.str("other", "dflt"), "dflt");

    const char* bad[] = {"prog", "--ratio=2.5x", "--seconds", "abc",
                         "--tiny=1e-3"};
    Cli strict(5, bad);
    EXPECT_DEATH(strict.real("ratio", 0.0), "--ratio expects a number");
    EXPECT_DEATH(strict.real("seconds", 0.2), "--seconds expects a number");
    EXPECT_DOUBLE_EQ(strict.real("tiny", 0.0), 1e-3);
}

TEST(Cli, RejectsFlagsNothingRead)
{
    const char* argv[] = {"prog", "--seconds", "0.1", "--quiet",
                          "--bogus-flag", "3"};
    Cli cli(6, argv);
    EXPECT_DOUBLE_EQ(cli.real("seconds", 1.0), 0.1);
    EXPECT_TRUE(cli.has("quiet"));
    // A flag the run never asked for is named, beside what it does read.
    EXPECT_DEATH(cli.rejectUnknown(),
                 "unknown flag --bogus-flag.*--quiet, --seconds");

    // Asking for a flag counts as reading it, whatever the accessor and
    // whether or not it was given; then nothing is left to reject.
    EXPECT_FALSE(cli.has("kernel-model"));
    EXPECT_EQ(cli.num("bogus-flag", 0), 3);
    cli.rejectUnknown();
}

} // namespace
} // namespace vtrans
