// Convergence watchdog: live self-healing supervision for churn runs.
//
// The invariant auditor (eval/invariants.hpp) *measures* protocol health;
// the watchdog closes the loop. Each adjustment period it audits the running
// protocol, tracks delivery against a pre-event steady-state baseline, and
//
//  * measures time-to-recover: every excursion of routing success below
//    (baseline - tolerance) opens a degradation episode, and the episode's
//    duration -- until success is back within tolerance -- is recorded;
//  * repairs stuck nodes: a node that stays alive-but-unjoined (or joined
//    with an empty DT neighborhood) for `stuck_grace` consecutive audits
//    gets a targeted neighbor-set re-sync (MdtOverlay::force_resync) instead
//    of a full restart;
//  * flags audit failures: a node still stuck `stuck_grace` audits after its
//    re-sync, or an episode open at the end of supervision, counts as a
//    failure -- the soak harness asserts this stays zero.
//
// Everything is exported through the metric registry (export_metrics), so a
// soak run's health is inspectable with the same observability machinery as
// the paper-figure benches.
#pragma once

#include <cstdint>
#include <vector>

#include "eval/invariants.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace gdvr::eval {

struct WatchdogConfig {
  double period_s = 26.0;   // audit cadence; one J+A cycle by default
  // Recovery band: recovered when routing success >= baseline - tolerance
  // (the acceptance bar: delivery within 2% of pre-event steady state).
  double tolerance = 0.02;
  // The first `baseline_audits` audits (taken before faults start) are
  // averaged into the steady-state baseline.
  int baseline_audits = 2;
  // Consecutive bad audits before a stuck node is force-resynced, and again
  // before a resynced-but-still-stuck node counts as an audit failure.
  int stuck_grace = 2;
  InvariantOptions audit;   // pair samples + seed for each audit
};

class ConvergenceWatchdog {
 public:
  ConvergenceWatchdog(VpodRunner& runner, const WatchdogConfig& config = {});

  // Audits every period_s from now until `until` (first sample at now).
  // Call at steady state, before installing fault schedules, so the baseline
  // audits measure the healthy protocol.
  void start(sim::Time until);
  // One immediate audit + repair pass (also the periodic tick body).
  const InvariantReport& tick();
  // Closes supervision: an episode still open counts as an audit failure.
  // Called automatically when the scheduled run passes `until`; idempotent.
  void finish();

  const std::vector<InvariantReport>& history() const { return history_; }
  double baseline_success() const { return baseline_success_; }
  // Duration of each completed degradation episode (seconds from the first
  // audit below the band to the first audit back inside it).
  const std::vector<double>& recovery_times() const { return recovery_times_; }
  double worst_recovery_s() const;
  std::uint64_t resyncs_triggered() const { return resyncs_; }
  // Unrecovered conditions: nodes stuck through a resync + episodes never
  // closed. The soak acceptance criterion is that this stays 0.
  std::uint64_t audit_failures() const { return audit_failures_; }

  // Gauges/counters: watchdog.baseline_success, watchdog.audits,
  // watchdog.episodes, watchdog.worst_recovery_s, watchdog.resyncs,
  // watchdog.audit_failures.
  void export_metrics(obs::Registry& reg) const;

 private:
  VpodRunner& runner_;
  WatchdogConfig config_;
  std::vector<InvariantReport> history_;
  std::vector<double> recovery_times_;
  double baseline_success_ = -1.0;   // < 0: still collecting baseline audits
  bool degraded_ = false;
  sim::Time episode_start_ = 0.0;
  // Per-node consecutive stuck-audit counts; negative after a resync fired
  // (counting down the post-resync grace).
  std::vector<int> stuck_counts_;
  // Already counted as audit failure. Packed bits are safe here only because
  // audits are global-lane events; a lane-side writer needs vector<char>.
  std::vector<bool> failed_nodes_;
  std::uint64_t resyncs_ = 0;
  std::uint64_t audit_failures_ = 0;
  bool finished_ = false;
};

}  // namespace gdvr::eval
