#include "sched/scheduler.h"

#include <algorithm>

#include "common/status.h"

namespace vtrans::sched {

codec::EncoderParams
Task::params() const
{
    codec::EncoderParams p = codec::presetParams(preset);
    p.crf = crf;
    p.refs = refs;
    return p;
}

std::vector<Task>
tableIIITasks()
{
    // Table III of the paper.
    return {
        {"desktop", 30, 8, "veryfast"},
        {"holi", 10, 1, "slow"},
        {"presentation", 35, 6, "veryfast"},
        {"game2", 15, 2, "medium"},
    };
}

Assignment
solveAssignment(const std::vector<std::vector<double>>& scores)
{
    const int n_tasks = static_cast<int>(scores.size());
    VT_ASSERT(n_tasks > 0, "empty assignment problem");
    const int n_servers = static_cast<int>(scores[0].size());
    VT_ASSERT(n_servers >= n_tasks, "need at least one server per task");

    // Max-sum -> min-cost on a padded square matrix (potentials method,
    // O(n^3); the classic 1-indexed formulation).
    const int n = n_servers;
    double max_score = 0.0;
    for (const auto& row : scores) {
        for (double v : row) {
            max_score = std::max(max_score, v);
        }
    }
    auto cost = [&](int t, int s) {
        // Padded (dummy) tasks cost nothing everywhere.
        return t < n_tasks ? max_score - scores[t][s] : 0.0;
    };

    std::vector<double> u(n + 1, 0.0);
    std::vector<double> v(n + 1, 0.0);
    std::vector<int> p(n + 1, 0);    // p[col]: row matched to col
    std::vector<int> way(n + 1, 0);
    for (int i = 1; i <= n; ++i) {
        p[0] = i;
        int j0 = 0;
        std::vector<double> minv(n + 1, 1e300);
        std::vector<char> used(n + 1, false);
        do {
            used[j0] = true;
            const int i0 = p[j0];
            double delta = 1e300;
            int j1 = 0;
            for (int j = 1; j <= n; ++j) {
                if (used[j]) {
                    continue;
                }
                const double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if (cur < minv[j]) {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if (minv[j] < delta) {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for (int j = 0; j <= n; ++j) {
                if (used[j]) {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
        } while (p[j0] != 0);
        do {
            const int j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
        } while (j0 != 0);
    }

    Assignment out(n_tasks, -1);
    for (int j = 1; j <= n; ++j) {
        if (p[j] >= 1 && p[j] <= n_tasks) {
            out[p[j] - 1] = j - 1;
        }
    }
    for (int t = 0; t < n_tasks; ++t) {
        VT_ASSERT(out[t] >= 0, "Hungarian left a task unassigned");
    }
    return out;
}

namespace {

/** The Top-down category a Table IV variant attacks. */
double
targetCategory(const uarch::TopDown& profile, const std::string& name)
{
    if (name == "fe_op") {
        return profile.frontend;
    }
    if (name == "be_op1") {
        return profile.backend_memory;
    }
    if (name == "be_op2") {
        // A bigger window helps both core-resource and memory stalls.
        return profile.backend_core + 0.5 * profile.backend_memory;
    }
    if (name == "bs_op") {
        return profile.bad_speculation;
    }
    VT_FATAL("no fit model for config: ", name);
}

} // namespace

double
fitScore(const uarch::TopDown& baseline_profile, const std::string& name,
         double relief)
{
    // Each Table IV variant attacks one Top-down category; the predicted
    // benefit of running a task there is the weight of that category in
    // the task's baseline profile, scaled by how effectively the variant
    // removes it.
    return relief * targetCategory(baseline_profile, name);
}

std::vector<double>
calibrateRelief(const uarch::TopDown& baseline_profile,
                double baseline_seconds,
                const std::vector<std::string>& config_names,
                const std::vector<double>& config_seconds)
{
    VT_ASSERT(config_names.size() == config_seconds.size(),
              "calibration inputs disagree");
    std::vector<double> relief;
    for (size_t c = 0; c < config_names.size(); ++c) {
        const double gain =
            std::max(0.0, 1.0 - config_seconds[c] / baseline_seconds);
        const double category =
            std::max(1e-3, targetCategory(baseline_profile,
                                          config_names[c]));
        relief.push_back(gain / category);
    }
    return relief;
}

double
SchedulerStudyResult::randomSpeedup() const
{
    double total = 0.0;
    for (size_t t = 0; t < tasks.size(); ++t) {
        double mean = 0.0;
        for (double s : seconds[t]) {
            mean += s;
        }
        mean /= seconds[t].size();
        total += baseline_seconds[t] / mean;
    }
    return total / tasks.size();
}

double
SchedulerStudyResult::smartSpeedup() const
{
    double total = 0.0;
    for (size_t t = 0; t < tasks.size(); ++t) {
        total += baseline_seconds[t] / seconds[t][smart[t]];
    }
    return total / tasks.size();
}

double
SchedulerStudyResult::bestSpeedup() const
{
    double total = 0.0;
    for (size_t t = 0; t < tasks.size(); ++t) {
        total += baseline_seconds[t] / seconds[t][best[t]];
    }
    return total / tasks.size();
}

int
SchedulerStudyResult::smartMatchesBest() const
{
    int matches = 0;
    for (size_t t = 0; t < tasks.size(); ++t) {
        if (smart[t] == best[t]) {
            ++matches;
        }
    }
    return matches;
}

SchedulerStudyResult
evaluateSchedulers(const std::vector<Task>& tasks,
                   const std::vector<std::string>& config_names,
                   const std::vector<double>& baseline_seconds,
                   const std::vector<std::vector<double>>& seconds,
                   const std::vector<uarch::TopDown>& baseline_profiles,
                   const std::vector<double>& relief)
{
    VT_ASSERT(tasks.size() == baseline_seconds.size()
                  && tasks.size() == seconds.size()
                  && tasks.size() == baseline_profiles.size(),
              "scheduler study inputs disagree on task count");

    SchedulerStudyResult result;
    result.tasks = tasks;
    result.config_names = config_names;
    result.baseline_seconds = baseline_seconds;
    result.seconds = seconds;

    // Smart: optimal one-to-one assignment over *predicted* fit scores
    // (the scheduler does not see the tasks' measured times — only its
    // calibration reference and the tasks' baseline profiles).
    std::vector<std::vector<double>> predicted(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
        for (size_t c = 0; c < config_names.size(); ++c) {
            const double r = c < relief.size() ? relief[c] : 1.0;
            predicted[t].push_back(
                fitScore(baseline_profiles[t], config_names[c], r));
        }
    }
    result.smart = solveAssignment(predicted);

    // Best: per-task argmin of measured time, unconstrained.
    for (size_t t = 0; t < tasks.size(); ++t) {
        int best = 0;
        for (size_t c = 1; c < seconds[t].size(); ++c) {
            if (seconds[t][c] < seconds[t][best]) {
                best = static_cast<int>(c);
            }
        }
        result.best.push_back(best);
    }
    return result;
}

} // namespace vtrans::sched
