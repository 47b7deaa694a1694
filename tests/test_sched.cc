/**
 * @file
 * Tests of the scheduler study machinery: Table III task definitions, the
 * assignment solver (against an exhaustive oracle), fit-score
 * prediction, and the evaluation of the three scheduling policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "common/rng.h"

#include "sched/scheduler.h"
#include "uarch/config.h"

namespace vtrans {
namespace {

using sched::Assignment;
using sched::Task;

double
assignmentScore(const std::vector<std::vector<double>>& scores,
                const Assignment& a)
{
    double sum = 0.0;
    for (size_t t = 0; t < a.size(); ++t) {
        sum += scores[t][a[t]];
    }
    return sum;
}

/** The oracle: the best total over every permutation of the servers. */
double
exhaustiveBest(const std::vector<std::vector<double>>& scores)
{
    const size_t n_tasks = scores.size();
    std::vector<int> perm(scores[0].size());
    std::iota(perm.begin(), perm.end(), 0);
    double best = -1e300;
    do {
        best = std::max(best, assignmentScore(
                                  scores, Assignment(perm.begin(),
                                                     perm.begin() + n_tasks)));
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

TEST(Sched, TableIIITasks)
{
    const auto tasks = sched::tableIIITasks();
    ASSERT_EQ(tasks.size(), 4u);
    EXPECT_EQ(tasks[0].video, "desktop");
    EXPECT_EQ(tasks[0].crf, 30);
    EXPECT_EQ(tasks[0].refs, 8);
    EXPECT_EQ(tasks[0].preset, "veryfast");
    EXPECT_EQ(tasks[1].video, "holi");
    EXPECT_EQ(tasks[1].preset, "slow");
    EXPECT_EQ(tasks[2].video, "presentation");
    EXPECT_EQ(tasks[2].crf, 35);
    EXPECT_EQ(tasks[3].video, "game2");
    EXPECT_EQ(tasks[3].refs, 2);

    const auto params = tasks[0].params();
    EXPECT_EQ(params.crf, 30);
    EXPECT_EQ(params.refs, 8);
    EXPECT_EQ(params.subme, 2); // veryfast
}

TEST(Sched, AssignmentSolverFindsOptimum)
{
    // Max-sum assignment with a known unique optimum: the anti-diagonal.
    std::vector<std::vector<double>> scores = {
        {1, 2, 10},
        {1, 10, 2},
        {10, 2, 1},
    };
    const Assignment a = sched::solveAssignment(scores);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0], 2);
    EXPECT_EQ(a[1], 1);
    EXPECT_EQ(a[2], 0);
}

TEST(Sched, AssignmentSolverRespectsOneToOne)
{
    // All tasks prefer server 0; only one can have it.
    std::vector<std::vector<double>> scores = {
        {10, 1, 0},
        {10, 2, 0},
        {10, 0, 3},
    };
    const Assignment a = sched::solveAssignment(scores);
    std::set<int> used(a.begin(), a.end());
    EXPECT_EQ(used.size(), a.size()) << "servers must not be shared";
    // Best total is 10 + 2 + 3 = 15 with a = (0, 1, 2); every other
    // permutation scores lower.
    EXPECT_EQ(a[0], 0);
    EXPECT_EQ(a[1], 1);
    EXPECT_EQ(a[2], 2);
}

TEST(Sched, FitScoresMatchBottleneckCategories)
{
    uarch::TopDown fe_heavy;
    fe_heavy.frontend = 0.4;
    fe_heavy.backend_memory = 0.1;
    fe_heavy.bad_speculation = 0.05;
    fe_heavy.backend_core = 0.05;
    EXPECT_GT(sched::fitScore(fe_heavy, "fe_op"),
              sched::fitScore(fe_heavy, "bs_op"));

    uarch::TopDown bs_heavy;
    bs_heavy.bad_speculation = 0.3;
    bs_heavy.frontend = 0.05;
    EXPECT_GT(sched::fitScore(bs_heavy, "bs_op"),
              sched::fitScore(bs_heavy, "fe_op"));

    EXPECT_DEATH(sched::fitScore(fe_heavy, "baseline"), "no fit model");
}

TEST(Sched, EvaluateSchedulersEndToEnd)
{
    const std::vector<Task> tasks = {
        {"a", 20, 1, "medium"},
        {"b", 30, 2, "medium"},
    };
    const std::vector<std::string> configs = {"fe_op", "bs_op"};
    const std::vector<double> baseline = {10.0, 10.0};
    // Task 0 runs much faster on fe_op; task 1 on bs_op.
    const std::vector<std::vector<double>> seconds = {
        {8.0, 9.9},
        {9.9, 8.0},
    };
    uarch::TopDown td0;
    td0.frontend = 0.5;
    td0.retiring = 0.5;
    uarch::TopDown td1;
    td1.bad_speculation = 0.5;
    td1.retiring = 0.5;

    const auto result = sched::evaluateSchedulers(tasks, configs, baseline,
                                                  seconds, {td0, td1});
    ASSERT_EQ(result.smart.size(), 2u);
    EXPECT_EQ(result.smart[0], 0) << "fe-heavy task goes to fe_op";
    EXPECT_EQ(result.smart[1], 1) << "bs-heavy task goes to bs_op";
    EXPECT_EQ(result.best[0], 0);
    EXPECT_EQ(result.best[1], 1);
    EXPECT_EQ(result.smartMatchesBest(), 2);

    EXPECT_NEAR(result.smartSpeedup(), 10.0 / 8.0, 1e-9);
    EXPECT_NEAR(result.bestSpeedup(), 10.0 / 8.0, 1e-9);
    // Random averages the two servers per task.
    EXPECT_NEAR(result.randomSpeedup(), 10.0 / 8.95, 1e-9);
    EXPECT_GT(result.smartSpeedup(), result.randomSpeedup());
}

TEST(Sched, SmartCanMissBestUnderConstraint)
{
    // Both tasks' profiles prefer the same server; one-to-one forces one
    // of them elsewhere, so smart matches best only once.
    const std::vector<Task> tasks = {
        {"a", 20, 1, "medium"},
        {"b", 30, 2, "medium"},
    };
    const std::vector<std::string> configs = {"be_op1", "fe_op"};
    const std::vector<double> baseline = {10.0, 10.0};
    const std::vector<std::vector<double>> seconds = {
        {7.0, 9.5},
        {7.5, 9.5},
    };
    uarch::TopDown heavy_mem0;
    heavy_mem0.backend_memory = 0.5;
    uarch::TopDown heavy_mem1;
    heavy_mem1.backend_memory = 0.4;

    const auto result = sched::evaluateSchedulers(
        tasks, configs, baseline, seconds, {heavy_mem0, heavy_mem1});
    EXPECT_EQ(result.best[0], 0);
    EXPECT_EQ(result.best[1], 0);
    EXPECT_EQ(result.smartMatchesBest(), 1);
    EXPECT_LE(result.smartSpeedup(), result.bestSpeedup());
}

TEST(Sched, HungarianMatchesExhaustiveOnRandomProblems)
{
    // Every shape up to eight servers, square and rectangular.
    Rng rng(2024);
    for (int servers = 1; servers <= 8; ++servers) {
        for (int tasks = 1; tasks <= servers; ++tasks) {
            for (int trial = 0; trial < 12; ++trial) {
                std::vector<std::vector<double>> scores(tasks);
                for (auto& row : scores) {
                    for (int s = 0; s < servers; ++s) {
                        // Integer scores keep every total exact, so
                        // equal optima compare equal.
                        row.push_back(static_cast<double>(rng.below(1000)));
                    }
                }
                const Assignment hungarian = sched::solveAssignment(scores);
                const std::string what =
                    std::to_string(tasks) + "x" + std::to_string(servers)
                    + " trial " + std::to_string(trial);
                ASSERT_EQ(hungarian.size(), static_cast<size_t>(tasks))
                    << what;
                EXPECT_DOUBLE_EQ(assignmentScore(scores, hungarian),
                                 exhaustiveBest(scores))
                    << what;
                std::set<int> used(hungarian.begin(), hungarian.end());
                EXPECT_EQ(used.size(), hungarian.size()) << what;
                for (int server : hungarian) {
                    EXPECT_GE(server, 0) << what;
                    EXPECT_LT(server, servers) << what;
                }
            }
        }
    }
}

TEST(Sched, HungarianScalesToLargerPools)
{
    Rng rng(7);
    const int n = 40;
    std::vector<std::vector<double>> scores(n);
    for (auto& row : scores) {
        for (int s = 0; s < n; ++s) {
            row.push_back(rng.uniform());
        }
    }
    const Assignment a = sched::solveAssignment(scores);
    std::set<int> used(a.begin(), a.end());
    EXPECT_EQ(used.size(), a.size());
}

} // namespace
} // namespace vtrans
