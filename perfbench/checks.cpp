#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <random>

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool close(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

}  // namespace

LinkTable::LinkTable(const gdvr::graph::Graph& g) : adj_(static_cast<std::size_t>(g.size())) {
  for (int u = 0; u < g.size(); ++u) {
    auto& row = adj_[static_cast<std::size_t>(u)];
    for (const gdvr::graph::Edge& e : g.neighbors(u)) row.emplace_back(e.to, e.cost);
    std::sort(row.begin(), row.end());
  }
}

LinkTable::LinkTable(int n, const std::vector<Link>& links) : adj_(static_cast<std::size_t>(n)) {
  for (const Link& l : links) adj_[static_cast<std::size_t>(l.from)].emplace_back(l.to, l.cost);
  for (auto& row : adj_) std::sort(row.begin(), row.end());
}

double LinkTable::cost(int u, int v) const {
  if (u < 0 || u >= size()) return -1.0;
  const auto& row = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(row.begin(), row.end(), std::make_pair(v, -kInf));
  return it != row.end() && it->first == v ? it->second : -1.0;
}

std::vector<double> LinkTable::shortest_costs(int s) const {
  std::vector<double> dist(adj_.size(), kInf);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[static_cast<std::size_t>(s)] = 0.0;
  heap.emplace(0.0, s);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& [v, c] : adj_[static_cast<std::size_t>(u)]) {
      if (d + c < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = d + c;
        heap.emplace(d + c, v);
      }
    }
  }
  return dist;
}

std::string check_walk(const LinkTable& links, int s, int t, const gdvr::routing::RouteResult& r) {
  if (r.path.empty() || r.path.front() != s) return "walk does not start at the source";
  if (r.path.back() != t) return "walk does not end at the destination";
  for (std::size_t i = 1; i < r.path.size(); ++i)
    if (links.cost(r.path[i - 1], r.path[i]) < 0.0) return "walk uses a hop that is not a link";
  if (r.transmissions != static_cast<int>(r.path.size()) - 1)
    return "transmissions differ from the walk's hop count";
  return {};
}

std::string check_cost(const LinkTable& links, const gdvr::routing::RouteResult& r) {
  double sum = 0.0;
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    const double c = links.cost(r.path[i - 1], r.path[i]);
    if (c < 0.0) return "walk uses a hop that is not a link";
    sum += c;
  }
  return close(r.cost, sum) ? std::string{} : "reported cost differs from the walk's link costs";
}

std::string check_not_below(const gdvr::routing::RouteResult& r, double optimum) {
  return r.cost >= optimum - 1e-9 * std::max(1.0, optimum) ? std::string{}
                                                           : "reported cost is below the optimum";
}

std::string check_route(const LinkTable& links, int s, int t, const gdvr::routing::RouteResult& r,
                        double optimum) {
  std::string why = check_walk(links, s, t, r);
  if (why.empty()) why = check_cost(links, r);
  if (why.empty()) why = check_not_below(r, optimum);
  return why;
}

namespace {

// Cheapest simple path by exhaustive search (tiny graphs only).
double brute_force_cost(const LinkTable& g, int s, int t) {
  double best = kInf;
  std::vector<char> on_path(static_cast<std::size_t>(g.size()), 0);
  std::function<void(int, double)> walk = [&](int u, double acc) {
    if (u == t) {
      best = std::min(best, acc);
      return;
    }
    on_path[static_cast<std::size_t>(u)] = 1;
    for (int v = 0; v < g.size(); ++v) {
      const double c = g.cost(u, v);
      if (c >= 0.0 && !on_path[static_cast<std::size_t>(v)]) walk(v, acc + c);
    }
    on_path[static_cast<std::size_t>(u)] = 0;
  };
  walk(s, 0.0);
  return best;
}

}  // namespace

std::string self_test() {
  // Shortest paths against brute force on small random digraphs, some of
  // them disconnected.
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> cost(0.5, 4.0);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 4 + trial % 5;
    std::vector<LinkTable::Link> links;
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v)
        if (u != v && rng() % 3 == 0) links.push_back({u, v, cost(rng)});
    const LinkTable g(n, links);
    for (int s = 0; s < n; ++s) {
      const std::vector<double> d = g.shortest_costs(s);
      for (int t = 0; t < n; ++t) {
        const double want = s == t ? 0.0 : brute_force_cost(g, s, t);
        if (want == kInf ? d[static_cast<std::size_t>(t)] != kInf
                         : !close(d[static_cast<std::size_t>(t)], want))
          return "shortest_costs disagrees with brute force";
      }
    }
  }

  // Route checks on a square 0-1-2-3-0 with a costly diagonal 0-2.
  const LinkTable sq(4, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.5}, {2, 1, 1.5}, {2, 3, 1.0},
                         {3, 2, 1.0}, {3, 0, 2.0}, {0, 3, 2.0}, {0, 2, 3.0}, {2, 0, 3.0}});
  const double opt = sq.shortest_costs(0)[2];
  if (!close(opt, 2.5)) return "shortest_costs wrong on the square";
  gdvr::routing::RouteResult good;
  good.success = true;
  good.path = {0, 1, 2};
  good.transmissions = 2;
  good.cost = 2.5;
  if (!check_route(sq, 0, 2, good, opt).empty()) return "a sound route was rejected";
  gdvr::routing::RouteResult detour = good;  // longer but sound: passes
  detour.path = {0, 3, 2};
  detour.cost = 3.0;
  if (!check_route(sq, 0, 2, detour, opt).empty()) return "a sound detour was rejected";

  gdvr::routing::RouteResult broken = good;  // 1 -> 3 is not a link
  broken.path = {0, 1, 3, 2};
  broken.transmissions = 3;
  if (check_walk(sq, 0, 2, broken).empty()) return "a broken hop was accepted";
  gdvr::routing::RouteResult short_walk = good;  // stops before t
  short_walk.path = {0, 1};
  short_walk.transmissions = 1;
  if (check_walk(sq, 0, 2, short_walk).empty()) return "a walk missing t was accepted";
  gdvr::routing::RouteResult wrong = good;
  wrong.cost = 2.6;
  if (check_cost(sq, wrong).empty()) return "a wrong cost was accepted";
  gdvr::routing::RouteResult below = good;
  below.cost = 2.0;
  if (check_not_below(below, opt).empty()) return "a cost below the optimum was accepted";
  if (check_route(sq, 0, 2, good, 3.0).empty())
    return "a route cheaper than the stated optimum was accepted";
  return {};
}

}  // namespace perfbench
