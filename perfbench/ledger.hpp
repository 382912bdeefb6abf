// The traced run's per-layer ledger, recorded from outside the program.
//
// HandlerShim takes over a runner's NetSim receiver (the way LiveGdv does)
// and forwards every delivery to Vpod::handle, timing it and counting it per
// mdt::Kind. Each thread accumulates into its own slot, so on the sharded
// engine handler time is busy time summed over the worker threads.
//
// ProfileTotals reads the program's GDVR_PROFILE sites through
// obs::write_profile_report; the benchmark switches them on only in traced
// runs and takes deltas around each timed span.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "eval/protocol_runner.hpp"
#include "mdt/messages.hpp"

namespace perfbench {

struct KindTotals {
  double s = 0.0;
  std::uint64_t n = 0;
  std::uint64_t bytes = 0;
};

// Indexed by mdt::Kind.
constexpr int kKinds = static_cast<int>(gdvr::mdt::Kind::kHeartbeat) + 1;
using HandlerTotals = std::array<KindTotals, kKinds>;

// Installs the shim on `runner` (call before the first run_to_period).
void install_handler_shim(gdvr::eval::VpodRunner& runner);
// Process-wide totals since start, summed over every thread's slot. Call
// only while no simulation is running.
HandlerTotals handler_totals();

struct SiteTotals {
  std::uint64_t calls = 0;
  double s = 0.0;
};

class ProfileTotals {
 public:
  static ProfileTotals read();
  SiteTotals site(const std::string& name) const;
  // this - earlier, per site.
  ProfileTotals minus(const ProfileTotals& earlier) const;
  ProfileTotals plus(const ProfileTotals& other) const;

 private:
  std::map<std::string, SiteTotals> sites_;
};

}  // namespace perfbench
