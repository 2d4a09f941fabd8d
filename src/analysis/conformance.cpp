#include "analysis/conformance.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <system_error>
#include <set>
#include <sstream>
#include <utility>

#include "baseline/lockset.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"
#include "workload/workloads.hpp"

namespace dsmr::analysis {

const char* to_string(RaceExpectation e) {
  switch (e) {
    case RaceExpectation::kNever: return "never";
    case RaceExpectation::kSometimes: return "sometimes";
    case RaceExpectation::kAlways: return "always";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------

namespace {

using runtime::World;

std::vector<Scenario> make_builtin_scenarios() {
  std::vector<Scenario> s;
  // Sizes are deliberately small: a conformance grid multiplies every
  // scenario by (seeds × perturbations), so each run must stay ~milliseconds.
  s.push_back({"master_worker",
               "workers put results into one master slot — the paper's §IV.D "
               "benign intentional race",
               RaceExpectation::kSometimes, 2, [](World& w) {
                 workload::MasterWorkerConfig c;
                 c.tasks_per_worker = 2;
                 workload::spawn_master_worker(w, c);
               }});
  s.push_back({"stencil", "barrier-synchronized 1-D Jacobi halo exchange",
               RaceExpectation::kNever, 2, [](World& w) {
                 workload::StencilConfig c;
                 c.cells_per_rank = 6;
                 c.iters = 3;
                 workload::spawn_stencil(w, c);
               }});
  s.push_back({"stencil_buggy", "stencil with every barrier dropped",
               RaceExpectation::kSometimes, 2, [](World& w) {
                 workload::StencilConfig c;
                 c.cells_per_rank = 6;
                 c.iters = 3;
                 c.buggy = true;
                 workload::spawn_stencil(w, c);
               }});
  s.push_back({"stencil_sparse",
               "stencil barrier-synchronized only every 2nd iteration — the "
               "race is schedule-dependent",
               RaceExpectation::kSometimes, 2, [](World& w) {
                 workload::StencilConfig c;
                 c.cells_per_rank = 6;
                 c.iters = 4;
                 c.barrier_period = 2;
                 workload::spawn_stencil(w, c);
               }});
  s.push_back({"histogram_locked",
               "remote read-modify-write on shared bins under NIC area locks",
               RaceExpectation::kNever, 1, [](World& w) {
                 workload::HistogramConfig c;
                 c.bins = 8;
                 c.increments_per_rank = 6;
                 c.locked = true;
                 workload::spawn_histogram(w, c);
               }});
  s.push_back({"histogram",
               "unlocked remote read-modify-write — lost updates under "
               "contention, manifestation is schedule luck",
               RaceExpectation::kSometimes, 1, [](World& w) {
                 workload::HistogramConfig c;
                 c.bins = 8;
                 c.increments_per_rank = 6;
                 workload::spawn_histogram(w, c);
               }});
  s.push_back({"pipeline",
               "token ring ordered purely by signals and backpressure — "
               "race-free without barriers or locks",
               RaceExpectation::kNever, 2, [](World& w) {
                 workload::PipelineConfig c;
                 c.tokens = 6;
                 workload::spawn_pipeline(w, c);
               }});
  s.push_back({"pipeline_nobackpressure", "token ring with the credits removed",
               RaceExpectation::kSometimes, 2, [](World& w) {
                 workload::PipelineConfig c;
                 c.tokens = 6;
                 c.backpressure = false;
                 workload::spawn_pipeline(w, c);
               }});
  s.push_back({"pipeline_window2",
               "token ring whose producers run 2 tokens ahead of the acks — "
               "races only when the producer outpaces the consumer",
               RaceExpectation::kSometimes, 2, [](World& w) {
                 workload::PipelineConfig c;
                 c.tokens = 6;
                 c.ack_window = 2;
                 workload::spawn_pipeline(w, c);
               }});
  s.push_back({"random", "mixed puts/gets over shared areas, no synchronization",
               RaceExpectation::kSometimes, 1, [](World& w) {
                 workload::RandomConfig c;
                 c.areas = 4;
                 c.ops_per_proc = 12;
                 c.write_fraction = 0.5;
                 workload::spawn_random(w, c);
               }});
  s.push_back({"random_locked",
               "the same mixed ops with every access wrapped in its area lock",
               RaceExpectation::kNever, 1, [](World& w) {
                 workload::RandomConfig c;
                 c.areas = 4;
                 c.ops_per_proc = 12;
                 c.write_fraction = 0.5;
                 c.lock_fraction = 1.0;
                 workload::spawn_random(w, c);
               }});
  return s;
}

}  // namespace

const std::vector<Scenario>& builtin_scenarios() {
  static const std::vector<Scenario> scenarios = make_builtin_scenarios();
  return scenarios;
}

const Scenario* find_scenario(const std::string& name) {
  for (const auto& scenario : builtin_scenarios()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Per-run differential checks
// ---------------------------------------------------------------------------

namespace {

std::set<std::uint64_t> live_flagged(const core::RaceLog& races) {
  std::set<std::uint64_t> ids;
  for (const auto& r : races.reports()) {
    if (r.event_id != 0) ids.insert(r.event_id);
  }
  return ids;
}

std::set<std::uint64_t> writes_only(const core::EventLog& log,
                                    const std::set<std::uint64_t>& flagged) {
  std::set<std::uint64_t> writes;
  for (const auto id : flagged) {
    if (log.event(id).kind == core::AccessKind::kWrite) writes.insert(id);
  }
  return writes;
}

/// Logical event names ("r<rank>.<idx>") indexed by event id. Per-rank issue
/// order is program order, so these identities — unlike the raw ids, which
/// follow global allocation order — line up across fault variants of the
/// same (program, seed, perturbation).
std::vector<std::string> logical_names(const core::EventLog& log) {
  std::vector<std::string> names(log.size() + 1);
  std::map<Rank, std::uint64_t> per_rank;
  for (const auto& e : log.events()) {
    std::ostringstream name;
    name << "r" << e.rank << "." << per_rank[e.rank]++;
    names[e.id] = name.str();
  }
  return names;
}

/// Canonical text of a pair set under logical names. Canonicalized twice:
/// within each pair (a RacePair's (first, second) follows raw-id apply
/// order, so the same logical pair can arrive flipped between fault
/// variants) and across the set (the input is ordered by raw ids, whose
/// order over the same logical pairs likewise differs between variants).
std::string logical_pairs(const std::set<RacePair>& pairs,
                          const std::vector<std::string>& names) {
  std::vector<std::string> named;
  named.reserve(pairs.size());
  for (const auto& pair : pairs) {
    std::string a = names[pair.first];
    std::string b = names[pair.second];
    if (b < a) std::swap(a, b);
    named.push_back(a + "x" + b);
  }
  std::sort(named.begin(), named.end());
  std::ostringstream out;
  for (const auto& name : named) out << name << " ";
  return out.str();
}

/// The single-clock replay's pair set is deliberately NOT part of the
/// signature: §IV.D's merged clock makes its read verdicts approximate in
/// both directions, and which read pairs it flags depends on the *apply
/// order* at the home — which retransmission delay legitimately reshuffles.
/// (Empirically: a clean program's single-clock read–read false positive
/// appears or vanishes with a single retried message.) Its write verdicts
/// need no separate leg — the cross-mode-writes invariant pins them to the
/// dual set, which is signed.
std::string verdict_signature(const core::EventLog& log, const GroundTruth& truth,
                              const core::RaceLog& races, const ReplayResult& dual) {
  const auto names = logical_names(log);
  std::ostringstream out;
  out << "truth{" << logical_pairs(truth.pairs, names) << "} reported{"
      << logical_pairs(reported_pairs(races), names) << "} dual{"
      << logical_pairs(dual.pairs, names) << "} areas{";
  for (const auto& [home, area] : truth.racy_areas) out << home << ":" << area << " ";
  out << "}";
  return out.str();
}

}  // namespace

RunVerdicts check_run(runtime::World& world, const runtime::RunReport& report) {
  RunVerdicts v;
  v.seed = world.config().seed;
  v.perturb = world.config().perturb;
  v.fault = world.config().fault;
  v.completed = report.completed;
  v.hit_event_cap = report.hit_event_cap;
  v.diagnostic = report.diagnostic;
  v.live_reports = report.race_count;
  // A deadlocked or log-disabled run has no applied clocks to replay; the
  // grid layer decides whether the deadlock itself is a failure.
  if (!report.completed || !world.events().enabled()) return v;

  const auto& log = world.events();
  const auto mode = world.config().mode;
  auto fail = [&v](const std::string& check, const std::string& detail) {
    v.failed_checks.push_back(check + ": " + detail);
  };

  const auto truth = compute_ground_truth(log);
  v.truth_pairs = truth.pairs.size();
  v.truth_areas = truth.racy_areas.size();

  // Invariant 1 — the epoch fast path is bit-identical to the full-vector-
  // clock oracle, in both detector modes, on this schedule's log.
  ReplayResult dual_fast, single_fast;
  for (const auto replay_mode :
       {core::DetectorMode::kDualClock, core::DetectorMode::kSingleClock}) {
    const auto fast = replay_online(log, replay_mode);
    const auto oracle = replay_online(log, replay_mode, /*with_oracle=*/true);
    if (fast.pairs != oracle.pairs || fast.flagged_events != oracle.flagged_events) {
      std::ostringstream detail;
      detail << "mode=" << core::to_string(replay_mode) << " fast flagged "
             << fast.flagged_events.size() << " vs oracle " << oracle.flagged_events.size();
      fail("fast-path-vs-oracle", detail.str());
    }
    if (replay_mode == mode) {
      v.fast_flagged = fast.flagged_events.size();
      v.oracle_flagged = oracle.flagged_events.size();
    }
    (replay_mode == core::DetectorMode::kDualClock ? dual_fast : single_fast) = fast;
  }
  v.dual_flagged = dual_fast.flagged_events.size();
  v.single_flagged = single_fast.flagged_events.size();

  if (mode != core::DetectorMode::kOff) {
    // Invariant 2 — the offline replay of the run's own mode reproduces the
    // live reports exactly (pairs and flagged accesses). The run's mode is
    // one of the two replays above; reuse it rather than replaying again.
    const auto& replay =
        mode == core::DetectorMode::kDualClock ? dual_fast : single_fast;
    if (replay.pairs != reported_pairs(world.races()) ||
        replay.flagged_events != live_flagged(world.races())) {
      std::ostringstream detail;
      detail << "live " << world.races().count() << " reports, replay flagged "
             << replay.flagged_events.size();
      fail("live-vs-replay", detail.str());
    }
  }

  if (mode == core::DetectorMode::kDualClock) {
    // Invariant 3 — the paper's structural accuracy guarantee: every
    // dual-clock report is a true race. (Area recall is tracked, not
    // checked: the online scheme compares only against the latest access,
    // so an unlucky apply order can hide a racy area entirely.)
    const auto accuracy = evaluate(truth, world.races());
    if (accuracy.precision() < 1.0) {
      std::ostringstream detail;
      detail << accuracy.true_reports << "/" << accuracy.reported_pairs << " reports true";
      fail("precision", detail.str());
    }
    v.area_recall = accuracy.area_recall();
  }

  // Invariant 5 — cross-mode agreement on writes: both modes compare writes
  // against V(x), so their write verdicts must be identical (reads genuinely
  // differ in both directions, §IV.D — not checked).
  if (writes_only(log, dual_fast.flagged_events) !=
      writes_only(log, single_fast.flagged_events)) {
    fail("cross-mode-writes", "dual and single clock disagree on a write verdict");
  }

  // Measured comparison (not an invariant): the Eraser-style lockset
  // baseline vs ground truth. Divergence is expected on message-ordered
  // programs; the grid layer tallies it.
  const auto lockset = baseline::LocksetDetector::analyze(log);
  v.lockset_warnings = lockset.warnings.size();
  for (const auto& area : truth.racy_areas) {
    if (lockset.flagged_areas.count(area) == 0) {
      v.lockset_covers_truth = false;
      break;
    }
  }

  v.signature = verdict_signature(log, truth, world.races(), dual_fast);
  return v;
}

// ---------------------------------------------------------------------------
// The grid
// ---------------------------------------------------------------------------

namespace {

/// Deterministic, filesystem-safe name for one schedule's trace files.
std::string schedule_stem(const std::string& scenario, std::uint64_t seed,
                          const sim::PerturbConfig& perturb,
                          const net::FaultPlan& fault) {
  std::ostringstream out;
  out << scenario << "-seed" << seed;
  if (perturb.enabled()) {
    out << "-skew" << perturb.min_skew_ns << "-" << perturb.max_skew_ns << "-salt"
        << perturb.salt;
  }
  if (!(fault == net::FaultPlan{})) {
    out << "-fault";
    for (const char c : fault.to_string()) {
      out << (std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
    }
  }
  return out.str();
}

}  // namespace

std::string Divergence::describe() const {
  std::ostringstream out;
  out << scenario << " seed=" << seed << " perturb=" << perturb.to_string();
  if (!(fault == net::FaultPlan{})) out << " fault=\"" << fault.to_string() << "\"";
  out << " — " << check;
  if (!detail.empty()) out << " (" << detail << ")";
  if (!trace_jsonl.empty()) out << " [trace: " << trace_jsonl << "]";
  if (!witness.empty()) out << " [witness: " << witness << "]";
  return out.str();
}

ConformanceReport run_conformance(const Scenario& scenario,
                                  const ConformanceOptions& options) {
  DSMR_REQUIRE(options.seeds > 0, "conformance grid needs at least one seed");
  DSMR_REQUIRE(!options.perturbations.empty(),
               "conformance grid needs at least one perturbation variant");
  DSMR_REQUIRE(options.base.nprocs >= scenario.min_ranks,
               "scenario '" << scenario.name << "' needs ≥ " << scenario.min_ranks
                            << " ranks, got " << options.base.nprocs);

  // Plan index 0 is always the fault-free base; fault variants follow
  // plan-minor so every base run directly precedes the runs compared to it.
  std::vector<net::FaultPlan> plans(1);
  for (const auto& plan : options.fault_plans) {
    DSMR_REQUIRE(plan.wire_enabled(), "conformance fault plan '" << plan.to_string()
                                                                 << "' injects nothing");
    plans.push_back(plan);
  }
  const std::uint64_t nplans = plans.size();
  const std::uint64_t variants = options.perturbations.size();
  const std::uint64_t total = options.seeds * variants * nplans;
  DSMR_REQUIRE(total / (variants * nplans) == options.seeds,
               "conformance grid size overflows: " << options.seeds << " seeds × "
                                                   << variants << " variants × "
                                                   << nplans << " plans");

  // Fan out: one World per (seed, perturbation, plan), each job writing its
  // pre-assigned slot so aggregation order never depends on thread timing.
  std::vector<RunVerdicts> runs(total);
  std::atomic<std::uint64_t> record_replay_checked{0};
  util::parallel_for(total, options.threads, [&](std::uint64_t index) {
    runtime::WorldConfig config = options.base;
    const std::uint64_t point = index / nplans;
    config.seed = options.first_seed + point / variants;
    config.perturb = options.perturbations[point % variants];
    config.fault = plans[index % nplans];
    runtime::World world(config);
    // Invariant 6 — record→replay: the ordering log this run emits, taken
    // through the full serialize→parse→fold pipeline, must reproduce the
    // live verdict signature on this exact coordinate. Skipped on the wire
    // layouts recording does not support (non-home-side transports with the
    // detector on).
    const bool record = config.mode == core::DetectorMode::kOff ||
                        config.transport == core::Transport::kHomeSide;
    std::optional<record::Recorder> recorder;
    if (record) {
      recorder.emplace(static_cast<std::uint32_t>(config.nprocs),
                       record::Backend::kSim, config.mode,
                       config.lock_clock_handoff, config.acked_puts);
      world.set_recorder(&*recorder);
    }
    scenario.spawn(world);
    const auto report = world.run();
    runs[index] = check_run(world, report);
    if (record) {
      recorder->finish(world.races().reports(), report.completed,
                       report.stuck_ranks);
      const std::string mismatch =
          record::check_record_replay_bytes(recorder->log().serialize());
      if (!mismatch.empty()) {
        runs[index].failed_checks.push_back("record-replay: " + mismatch);
      }
      record_replay_checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  ConformanceReport summary;
  summary.scenario = scenario.name;
  summary.expect = scenario.expect;
  summary.runs = std::move(runs);
  summary.base_schedules = options.seeds * variants;
  summary.record_replay_checked = record_replay_checked.load();

  auto diverge = [&summary, &scenario](const RunVerdicts& run, std::string check,
                                       std::string detail) {
    summary.disagreements.push_back(Divergence{scenario.name, run.seed, run.perturb,
                                               run.fault, std::move(check),
                                               std::move(detail), "", "", ""});
  };
  auto split_failed_checks = [&diverge](const RunVerdicts& run) {
    for (const auto& check : run.failed_checks) {
      // failed_checks entries are "name: detail"; split them so the JSON
      // artifact's check field is a stable name like the grid-level checks.
      const auto colon = check.find(": ");
      if (colon == std::string::npos) {
        diverge(run, check, "");
      } else {
        diverge(run, check.substr(0, colon), check.substr(colon + 2));
      }
    }
  };

  for (std::uint64_t index = 0; index < summary.runs.size(); ++index) {
    const auto& run = summary.runs[index];
    if (index % nplans != 0) continue;  // fault runs handled below.
    if (run.live_reports > 0) ++summary.runs_with_reports;
    if (run.truth_pairs > 0) ++summary.runs_with_truth;
    if (!run.completed) {
      ++summary.incomplete_runs;
      if (!run.diagnostic.empty()) ++summary.watchdog_runs;
      diverge(run, "unexpected-deadlock", run.diagnostic);
      // check_run bails early on incomplete runs, but the record→replay
      // invariant still applies (the footer carries the stuck verdict).
      split_failed_checks(run);
      continue;
    }
    split_failed_checks(run);
    if (scenario.expect == RaceExpectation::kNever &&
        (run.live_reports > 0 || run.truth_pairs > 0)) {
      std::ostringstream detail;
      detail << run.live_reports << " reports, " << run.truth_pairs
             << " truth pairs in a race-free scenario";
      diverge(run, "race-in-clean-scenario", detail.str());
    }
    if (!run.lockset_covers_truth) ++summary.lockset_divergences;
    summary.min_area_recall = std::min(summary.min_area_recall, run.area_recall);
  }

  // The fault invariants: each fault run against its own base.
  for (std::uint64_t index = 0; index < summary.runs.size(); ++index) {
    if (index % nplans == 0) continue;
    const auto& run = summary.runs[index];
    const auto& base = summary.runs[index - index % nplans];
    ++summary.fault_runs;
    if (!run.diagnostic.empty()) ++summary.watchdog_runs;

    if (run.hit_event_cap) {
      // Neither plan class may spin forever: recoverable plans must deliver,
      // unrecoverable plans must give up (retry cap) and drain.
      diverge(run, "fault-hang", "event cap hit under fault plan");
      continue;
    }
    if (run.fault.recoverable()) {
      if (!run.completed) {
        if (base.completed) diverge(run, "fault-not-recovered", run.diagnostic);
        // Base deadlocked too (already an unexpected-deadlock): nothing to
        // hold the fault run to — but the record→replay invariant still
        // applies.
        split_failed_checks(run);
        continue;
      }
      split_failed_checks(run);
      const bool transparent = base.completed && run.signature == base.signature;
      if (transparent) ++summary.fault_transparent_runs;
      // Schedule-invariant verdicts must survive a recoverable fault
      // bit-for-bit; kSometimes manifestation is schedule luck, which faults
      // legitimately re-roll.
      if (scenario.expect != RaceExpectation::kSometimes && base.completed &&
          !transparent) {
        std::ostringstream detail;
        detail << "verdicts differ from fault-free run: base " << base.live_reports
               << " reports/" << base.truth_pairs << " truth pairs, faulted "
               << run.live_reports << " reports/" << run.truth_pairs
               << " truth pairs";
        diverge(run, "fault-transparency", detail.str());
      }
    } else {
      if (run.completed) {
        // The fault never bit (e.g. crash scheduled past quiescence) — fine,
        // but the verdicts must then be the fault-free ones.
        split_failed_checks(run);
        if (base.completed && run.signature != base.signature) {
          diverge(run, "unclean-failure",
                  "unrecoverable plan completed with different verdicts");
        }
      } else {
        if (run.diagnostic.empty()) {
          diverge(run, "silent-non-quiescence",
                  "unrecoverable plan stopped without a watchdog diagnostic");
        }
        split_failed_checks(run);
      }
    }
  }

  // Every disagreement gets a deterministic repro trace: re-run the exact
  // (seed, perturbation) serially with a message recorder attached and
  // export JSONL + Chrome trace.
  if (!options.trace_dir.empty() && !summary.disagreements.empty()) {
    // The repro artifact must exist exactly when a disagreement does:
    // create the directory and fail loudly on any write error.
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
    DSMR_REQUIRE(!ec, "cannot create trace dir " << options.trace_dir << ": "
                                                 << ec.message());
    std::map<std::pair<std::uint64_t, std::string>, std::pair<std::string, std::string>>
        exported;
    for (auto& divergence : summary.disagreements) {
      const auto key = std::make_pair(
          divergence.seed,
          divergence.perturb.to_string() + "|" + divergence.fault.to_string());
      auto it = exported.find(key);
      if (it == exported.end()) {
        runtime::WorldConfig config = options.base;
        config.seed = divergence.seed;
        config.perturb = divergence.perturb;
        config.fault = divergence.fault;
        runtime::World world(config);
        trace::MessageRecorder recorder(world.fabric());
        scenario.spawn(world);
        world.run();

        const std::string stem = options.trace_dir + "/" +
                                 schedule_stem(scenario.name, divergence.seed,
                                               divergence.perturb, divergence.fault);
        const std::string jsonl_path = stem + ".jsonl";
        const std::string chrome_path = stem + ".trace.json";
        std::ofstream jsonl(jsonl_path);
        trace::write_jsonl(jsonl, world.events(), world.races());
        std::ofstream chrome(chrome_path);
        chrome << trace::to_chrome_trace(world.events(), world.races(),
                                         recorder.records());
        DSMR_REQUIRE(jsonl.good() && chrome.good(),
                     "failed writing disagreement trace " << stem << ".*");
        it = exported.emplace(key, std::make_pair(jsonl_path, chrome_path)).first;
      }
      divergence.trace_jsonl = it->second.first;
      divergence.trace_chrome = it->second.second;
    }
  }
  return summary;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string ConformanceReport::render() const {
  std::ostringstream out;
  out << scenario << " (expect " << to_string(expect) << "): " << runs.size()
      << " schedules, " << runs_with_reports << " with reports ("
      << static_cast<int>(manifestation_rate() * 100.0) << "%), " << runs_with_truth
      << " with true races, " << incomplete_runs << " deadlocked, "
      << lockset_divergences << " lockset divergences, min area recall "
      << min_area_recall;
  if (fault_runs > 0) {
    out << ", " << fault_runs << " fault runs (" << fault_transparent_runs
        << " transparent, " << watchdog_runs << " watchdog)";
  }
  if (record_replay_checked > 0) {
    out << ", " << record_replay_checked << " record-replay checked";
  }
  out << ", " << disagreements.size() << " disagreements";
  for (const auto& divergence : disagreements) {
    out << "\n  DISAGREEMENT " << divergence.describe();
  }
  return out.str();
}

void ConformanceReport::write_json(std::ostream& out) const {
  out << "{\"scenario\":\"" << trace::json_escape(scenario) << "\",\"expect\":\""
      << to_string(expect) << "\",\"schedules\":" << runs.size()
      << ",\"with_reports\":" << runs_with_reports << ",\"with_truth\":" << runs_with_truth
      << ",\"incomplete\":" << incomplete_runs
      << ",\"manifestation_rate\":" << manifestation_rate()
      << ",\"lockset_divergences\":" << lockset_divergences
      << ",\"base_schedules\":" << base_schedules << ",\"fault_runs\":" << fault_runs
      << ",\"fault_transparent_runs\":" << fault_transparent_runs
      << ",\"watchdog_runs\":" << watchdog_runs
      << ",\"record_replay_checked\":" << record_replay_checked
      << ",\"min_area_recall\":" << min_area_recall << ",\"passed\":"
      << (passed() ? "true" : "false") << ",\"disagreements\":[";
  for (std::size_t i = 0; i < disagreements.size(); ++i) {
    const auto& d = disagreements[i];
    if (i > 0) out << ",";
    out << "{\"seed\":" << d.seed << ",\"perturb\":\"" << trace::json_escape(d.perturb.to_string())
        << "\",\"fault\":\"" << trace::json_escape(d.fault.to_string())
        << "\",\"check\":\"" << trace::json_escape(d.check) << "\",\"detail\":\""
        << trace::json_escape(d.detail) << "\",\"trace_jsonl\":\""
        << trace::json_escape(d.trace_jsonl) << "\",\"trace_chrome\":\""
        << trace::json_escape(d.trace_chrome) << "\"}";
  }
  out << "],\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    if (i > 0) out << ",";
    out << "{\"seed\":" << r.seed << ",\"perturb\":\""
        << trace::json_escape(r.perturb.to_string()) << "\",\"fault\":\""
        << trace::json_escape(r.fault.to_string()) << "\",\"completed\":"
        << (r.completed ? "true" : "false") << ",\"watchdog\":"
        << (r.diagnostic.empty() ? "false" : "true") << ",\"reports\":" << r.live_reports
        << ",\"truth_pairs\":" << r.truth_pairs << ",\"truth_areas\":" << r.truth_areas
        << ",\"fast_flagged\":" << r.fast_flagged
        << ",\"oracle_flagged\":" << r.oracle_flagged
        << ",\"dual_flagged\":" << r.dual_flagged
        << ",\"single_flagged\":" << r.single_flagged
        << ",\"lockset_warnings\":" << r.lockset_warnings << ",\"conformant\":"
        << (r.failed_checks.empty() ? "true" : "false") << "}";
  }
  out << "]}";
}

}  // namespace dsmr::analysis
