#include "ledger.hpp"

#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>

#include "obs/profile.hpp"

namespace perfbench {

namespace {

std::mutex g_slots_mu;
std::deque<HandlerTotals> g_slots;  // deque: slots never move once handed out

HandlerTotals& my_slot() {
  thread_local HandlerTotals* slot = [] {
    std::lock_guard<std::mutex> lock(g_slots_mu);
    return &g_slots.emplace_back();
  }();
  return *slot;
}

// Bytes a message occupies: the envelope plus its vector payloads.
std::uint64_t message_bytes(const gdvr::mdt::Envelope& m) {
  return sizeof(gdvr::mdt::Envelope) + (m.visited.size() + m.route.size()) * sizeof(gdvr::mdt::NodeId) +
         m.nbr_infos.size() * sizeof(gdvr::mdt::NodeInfo);
}

}  // namespace

void install_handler_shim(gdvr::eval::VpodRunner& runner) {
  gdvr::vpod::Vpod& vpod = runner.protocol();
  runner.net().set_receiver([&vpod](int to, int from, gdvr::mdt::Envelope msg) {
    KindTotals& k = my_slot()[static_cast<std::size_t>(msg.kind)];
    ++k.n;
    k.bytes += message_bytes(msg);
    const auto t0 = std::chrono::steady_clock::now();
    vpod.handle(to, from, std::move(msg));
    k.s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  });
}

HandlerTotals handler_totals() {
  std::lock_guard<std::mutex> lock(g_slots_mu);
  HandlerTotals sum{};
  for (const HandlerTotals& slot : g_slots)
    for (int k = 0; k < kKinds; ++k) {
      sum[k].s += slot[k].s;
      sum[k].n += slot[k].n;
      sum[k].bytes += slot[k].bytes;
    }
  return sum;
}

ProfileTotals ProfileTotals::read() {
  // Report rows: name, calls, total_ms, mean_us (after a title and a header).
  std::ostringstream os;
  gdvr::obs::write_profile_report(os);
  std::istringstream in(os.str());
  ProfileTotals out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string name;
    std::uint64_t calls = 0;
    double total_ms = 0.0;
    if (row >> name >> calls >> total_ms) out.sites_[name] = {calls, total_ms / 1e3};
  }
  return out;
}

SiteTotals ProfileTotals::site(const std::string& name) const {
  const auto it = sites_.find(name);
  return it == sites_.end() ? SiteTotals{} : it->second;
}

ProfileTotals ProfileTotals::minus(const ProfileTotals& earlier) const {
  ProfileTotals out = *this;
  for (auto& [name, t] : out.sites_) {
    const SiteTotals e = earlier.site(name);
    t.calls -= e.calls;
    t.s -= e.s;
  }
  return out;
}

ProfileTotals ProfileTotals::plus(const ProfileTotals& other) const {
  ProfileTotals out = *this;
  for (const auto& [name, t] : other.sites_) {
    out.sites_[name].calls += t.calls;
    out.sites_[name].s += t.s;
  }
  return out;
}

}  // namespace perfbench
