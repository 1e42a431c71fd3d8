// perfbench_probe: the benchmark's in-process harness.  It calls the public
// entry points that dring_campaign and dring_report compose and times each
// call from outside with steady_clock; nothing is timed inside the library.
//
//   perfbench_probe setup --spec S [--reps R]
//   perfbench_probe trace --spec S --threads T --store OUT --report OUT ARGS
//   perfbench_probe check --spec S --store IN --report IN ARGS
//   perfbench_probe spawn OUT -- PROGRAM [ARG...]
//
// ARGS are dring_report's aggregate-mode flags: --group-by A,B --metric M.
// Every mode prints one JSON object on stdout; perfbench/run.py is its
// caller.
//
// setup  times what a campaign pays before its first cell simulates (spec
//        parse + expand + fingerprint), --reps times over.
// trace  runs the campaign stage (parse, expand, fingerprint, run_scenarios,
//        write_result_store) and the report stage (read_result_store_file,
//        merge_result_stores, aggregate_rows, render_aggregate_report),
//        then re-times the children that split the big spans (to_task,
//        run_sweep_runs, the row build, row_line, sort_canonical) on the
//        same inputs.  The store and report it writes must equal the CLI's
//        byte for byte, and the re-built rows run_scenarios' rows.
// check  verifies a CLI store and report: every expanded cell present once,
//        parsable, canonically encoded and in canonical order, a spread
//        sample of cells re-simulated single-threaded to the same line, and
//        the report re-rendered to the same bytes.  `failed_cells` counts
//        each expanded cell at most once; `stray_rows` counts the store rows
//        that are not a valid row of a distinct expanded cell.
// spawn  runs PROGRAM with stdout to OUT and reports its wall time, exit
//        code and peak RSS.  A small launcher, so the child's RSS high-water
//        mark (which counts its pre-exec image) is not the caller's.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/registry.hpp"
#include "core/analysis.hpp"
#include "core/campaign.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace dring;
using Clock = std::chrono::steady_clock;

// Cells `check` re-simulates on one thread, spread evenly over the grid.
constexpr std::size_t kResimulatedCells = 64;

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

core::CampaignSpec load_campaign(const std::string& path) {
  return core::campaign_spec_from_json(util::Json::parse(read_file(path)));
}

/// dring_report's aggregate-mode flags, parsed the way dring_report parses
/// them.
struct ReportArgs {
  std::vector<std::string> group_keys;
  core::Metric metric = core::Metric::ExploredRound;

  explicit ReportArgs(const util::Cli& cli) {
    std::stringstream keys(cli.get("group-by", "algorithm"));
    for (std::string key; std::getline(keys, key, ',');)
      if (!key.empty()) group_keys.push_back(core::canonical_axis(key));
    metric = core::metric_from_string(cli.get("metric", "explored_round"));
  }
};

/// Cells the BatchEngine would admit to an SoA fast lane: null adversary,
/// no T-interval wrapper, the algorithm's native model being FSYNC.
bool fast_lane_cell(const core::ScenarioSpec& spec) {
  return spec.adversary.family == "null" && spec.adversary.t_interval <= 1 &&
         spec.model.empty() &&
         algo::info_by_name(spec.algorithm).model == sim::Model::FSYNC;
}

util::Json row_counts(const std::vector<core::CampaignRow>& rows) {
  long long rounds = 0, moves = 0, fast = 0;
  for (const core::CampaignRow& row : rows) {
    rounds += row.outcome.rounds;
    moves += row.outcome.total_moves;
    fast += fast_lane_cell(row.spec) ? 1 : 0;
  }
  util::Json out = util::Json::Object{};
  out.set("rounds", rounds);
  out.set("moves", moves);
  out.set("fast_lane_cells", fast);
  return out;
}

int run_setup(const util::Cli& cli) {
  const std::string spec_path = cli.get("spec", "");
  const long long reps = std::max(1LL, cli.get_int("reps", 5));
  util::Json::Array times;
  std::size_t cells = 0;
  std::uint64_t fp_xor = 0;
  for (long long r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    const core::CampaignSpec campaign = load_campaign(spec_path);
    const std::vector<core::ScenarioSpec> specs = core::expand(campaign);
    std::vector<std::uint64_t> fps;
    fps.reserve(specs.size());
    for (const core::ScenarioSpec& spec : specs)
      fps.push_back(core::fingerprint(spec));
    times.emplace_back(since_us(t0));
    cells = specs.size();
    fp_xor = 0;
    for (const std::uint64_t fp : fps) fp_xor ^= fp;
  }
  util::Json out = util::Json::Object{};
  out.set("cells", static_cast<long long>(cells));
  out.set("fp_xor", core::hex_u64(fp_xor));
  out.set("setup_us", std::move(times));
  std::cout << out.dump() << "\n";
  return 0;
}

int run_trace(const util::Cli& cli) {
  const std::string spec_path = cli.get("spec", "");
  const std::string store_path = cli.get("store", "");
  const std::string report_path = cli.get("report", "");
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  const ReportArgs args(cli);
  util::Json out = util::Json::Object{};
  const auto span = [&](const std::string& name, Clock::time_point t0) {
    const double us = since_us(t0);
    out.set(name, us);
    return us;
  };

  // Campaign stage: the calls run_campaign composes.
  const Clock::time_point campaign_t0 = Clock::now();
  Clock::time_point t = Clock::now();
  const core::CampaignSpec campaign = load_campaign(spec_path);
  double attributed = span("scenario_spec.parse_us", t);

  t = Clock::now();
  const std::vector<core::ScenarioSpec> specs = core::expand(campaign);
  attributed += span("scenario_spec.expand_us", t);

  t = Clock::now();
  std::vector<std::uint64_t> fps;
  fps.reserve(specs.size());
  for (const core::ScenarioSpec& spec : specs)
    fps.push_back(core::fingerprint(spec));
  attributed += span("scenario_spec.fingerprint_us", t);

  // The tail: from the first moment fewer than `threads` tasks remain to
  // the last completion (on_task_done is serialized by the sweep).
  Clock::time_point tail_start{}, last_done{};
  const std::size_t lanes = static_cast<std::size_t>(std::max(1, threads));
  t = Clock::now();
  std::vector<core::CampaignRow> rows = core::run_scenarios(
      specs, threads, [&](std::size_t done, std::size_t total) {
        last_done = Clock::now();
        if (total - done < lanes && tail_start == Clock::time_point{})
          tail_start = last_done;
      });
  attributed += span("sweep.run_scenarios_us", t);
  out.set("sweep.tail_us",
          std::chrono::duration<double, std::micro>(last_done - tail_start)
              .count());

  t = Clock::now();
  core::write_result_store(store_path, rows);  // by value, as the CLI does
  attributed += span("campaign.store_write_us", t);
  span("trace.campaign_wall_us", campaign_t0);
  out.set("trace.campaign_attributed_us", attributed);

  // Report stage: the calls dring_report composes.
  const Clock::time_point report_t0 = Clock::now();
  t = Clock::now();
  core::ResultStore store = core::read_result_store_file(store_path);
  attributed = span("campaign.read_parse_us", t);

  t = Clock::now();
  std::vector<core::ResultStore> stores;
  stores.push_back(std::move(store));
  const core::StoreMerge merged = core::merge_result_stores(std::move(stores));
  attributed += span("campaign.merge_us", t);

  t = Clock::now();
  const std::vector<core::GroupRow> groups =
      core::aggregate_rows(merged.rows, args.group_keys, args.metric);
  attributed += span("analysis.fold_us", t);

  t = Clock::now();
  const std::string report = core::render_aggregate_report(
      groups, args.group_keys, args.metric, core::ReportFormat::Markdown);
  attributed += span("analysis.render_us", t);

  t = Clock::now();
  {
    std::ofstream file(report_path, std::ios::binary | std::ios::trunc);
    file << report;
    if (!file) throw std::runtime_error("cannot write " + report_path);
  }
  attributed += span("analysis.report_write_us", t);
  span("trace.report_wall_us", report_t0);
  out.set("trace.report_attributed_us", attributed);

  // The children of the big spans, re-timed on the same inputs.
  t = Clock::now();
  std::vector<core::ScenarioTask> tasks;
  tasks.reserve(specs.size());
  for (const core::ScenarioSpec& spec : specs)
    tasks.push_back(core::to_task(spec));
  span("scenario_spec.to_task_us", t);

  core::SweepOptions sweep;
  sweep.threads = threads;
  t = Clock::now();
  const std::vector<core::SweepRun> runs = core::run_sweep_runs(tasks, sweep);
  span("sweep.simulate_us", t);

  // What run_scenarios does after the sweep: one row per run, which
  // fingerprints every spec a second time.  Timed directly rather than as
  // run_scenarios minus its children, a difference of two passes that
  // noise drives negative when the sweep dominates.
  t = Clock::now();
  std::vector<core::CampaignRow> rebuilt(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rebuilt[i].spec = specs[i];
    rebuilt[i].fingerprint = core::fingerprint(specs[i]);
    rebuilt[i].outcome = core::outcome_of(runs[i].result);
  }
  span("campaign.row_build_us", t);
  bool children_match = rebuilt.size() == rows.size();
  for (std::size_t i = 0; children_match && i < rows.size(); ++i)
    children_match = rebuilt[i].fingerprint == rows[i].fingerprint &&
                     rebuilt[i].outcome == rows[i].outcome;

  t = Clock::now();
  for (const core::CampaignRow& row : rows) core::row_line(row);
  span("campaign.encode_us", t);

  std::vector<core::CampaignRow> sorted = rows;
  t = Clock::now();
  core::sort_canonical(sorted);
  span("campaign.sort_us", t);

  out.set("scenario_spec.cells", static_cast<long long>(specs.size()));
  out.set("campaign.store_rows", static_cast<long long>(merged.rows.size()));
  out.set("analysis.groups", static_cast<long long>(groups.size()));
  out.set("counts", row_counts(rows));
  out.set("trace.children_match", children_match);
  std::cout << out.dump() << "\n";
  return 0;
}

int run_check(const util::Cli& cli) {
  const ReportArgs args(cli);
  const std::vector<core::ScenarioSpec> specs =
      core::expand(load_campaign(cli.get("spec", "")));
  std::unordered_map<std::uint64_t, std::size_t> expected;
  for (std::size_t i = 0; i < specs.size(); ++i)
    expected.emplace(core::fingerprint(specs[i]), i);

  // Line by line, so one bad row counts as one failed cell instead of
  // aborting the read.
  std::istringstream store(read_file(cli.get("store", "")));
  std::string line;
  bool header_ok = false, order_ok = true;
  if (std::getline(store, line))
    header_ok = line == core::provenance_line(core::current_provenance());
  long long row_lines = 0, unparsable = 0, mismatched = 0, unexpected = 0;
  std::vector<core::CampaignRow> rows;
  std::unordered_map<std::uint64_t, std::string> line_of;
  std::string previous;
  while (std::getline(store, line)) {
    if (line.empty()) continue;
    ++row_lines;
    if (!previous.empty() && !(previous < line)) order_ok = false;
    previous = line;
    core::CampaignRow row;
    try {
      row = core::campaign_row_from_json(util::Json::parse(line));
    } catch (const std::exception&) {
      ++unparsable;
      continue;
    }
    const auto it = expected.find(row.fingerprint);
    if (it == expected.end()) {
      ++unexpected;
      continue;
    }
    if (core::row_line(row) != line ||
        core::fingerprint(row.spec) != row.fingerprint ||
        core::to_json(row.spec).dump() !=
            core::to_json(specs[it->second]).dump() ||
        !line_of.emplace(row.fingerprint, line).second) {
      ++mismatched;
      continue;
    }
    rows.push_back(std::move(row));
  }
  // Expanded cells without a valid row, whether their row is absent or was
  // counted above as unparsable or mismatched.
  const long long no_valid_row =
      static_cast<long long>(specs.size() - line_of.size());

  // Re-simulate an evenly spread sample on one thread: the parallel
  // campaign must agree with the inline scalar path on every sampled row.
  const std::size_t sample_size =
      std::min<std::size_t>(specs.size(), kResimulatedCells);
  std::vector<core::ScenarioSpec> sample;
  for (std::size_t j = 0; j < sample_size; ++j)
    sample.push_back(specs[(2 * j + 1) * specs.size() / (2 * sample_size)]);
  long long resim_mismatched = 0;
  for (const core::CampaignRow& row : core::run_scenarios(sample, 1)) {
    const auto it = line_of.find(row.fingerprint);
    if (it != line_of.end() && it->second != core::row_line(row))
      ++resim_mismatched;
  }

  std::vector<std::vector<core::CampaignRow>> sets{rows};
  const core::StoreMerge merged = core::merge_result_stores(sets);
  const std::vector<core::GroupRow> groups =
      core::aggregate_rows(merged.rows, args.group_keys, args.metric);
  const bool report_ok =
      core::render_aggregate_report(groups, args.group_keys, args.metric,
                                    core::ReportFormat::Markdown) ==
      read_file(cli.get("report", ""));

  util::Json out = util::Json::Object{};
  out.set("cells", static_cast<long long>(specs.size()));
  out.set("rows", static_cast<long long>(rows.size()));
  // Each expanded cell fails at most once: a re-simulated mismatch is only
  // possible on a cell that has a valid row.
  out.set("failed_cells", no_valid_row + resim_mismatched);
  out.set("stray_rows",
          row_lines - static_cast<long long>(line_of.size()));
  out.set("no_valid_row", no_valid_row);
  out.set("unparsable", unparsable);
  out.set("mismatched", mismatched);
  out.set("unexpected", unexpected);
  out.set("resimulated", static_cast<long long>(sample.size()));
  out.set("resim_mismatched", resim_mismatched);
  out.set("header_ok", header_ok);
  out.set("order_ok", order_ok);
  out.set("report_ok", report_ok);
  out.set("groups", static_cast<long long>(groups.size()));
  out.set("counts", row_counts(rows));
  std::cout << out.dump() << "\n";
  return 0;
}

int run_spawn(int argc, char** argv) {
  if (argc < 5 || std::string(argv[3]) != "--") {
    std::cerr << "usage: perfbench_probe spawn OUT -- PROGRAM [ARG...]\n";
    return 2;
  }
  const char* out_path = argv[2];
  std::vector<char*> child(argv + 4, argv + argc);
  child.push_back(nullptr);
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(out_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::dup2(fd, STDOUT_FILENO) < 0) ::_exit(127);
    ::close(fd);
    ::execv(child[0], child.data());
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (pid < 0 || ::wait4(pid, &status, 0, &usage) != pid)
    throw std::runtime_error("cannot run " + std::string(child[0]));
  const double wall_s = since_us(t0) / 1e6;
  util::Json out = util::Json::Object{};
  out.set("wall_s", wall_s);
  out.set("exit", WIFEXITED(status) ? WEXITSTATUS(status)
                                    : 128 + WTERMSIG(status));
  out.set("peak_rss_kb", static_cast<long long>(usage.ru_maxrss));
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe setup|trace|check|spawn ...\n";
    return 2;
  }
  const std::string mode = argv[1];
  const util::Cli cli(argc - 1, argv + 1);
  try {
    if (mode == "spawn") return run_spawn(argc, argv);
    if (mode == "setup") return run_setup(cli);
    if (mode == "trace") return run_trace(cli);
    if (mode == "check") return run_check(cli);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe " << mode << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_probe: unknown mode " << mode << "\n";
  return 2;
}
