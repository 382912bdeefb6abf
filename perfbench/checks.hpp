// Route checks computed apart from the program under test.
//
// The benchmark copies the physical link costs into its own adjacency and
// runs its own shortest-path code over it (a binary-heap Dijkstra, not
// graph::dijkstra), so a fault in the program's graph layer cannot make a
// wrong route look right.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "routing/routers.hpp"

namespace perfbench {

class LinkTable {
 public:
  explicit LinkTable(const gdvr::graph::Graph& g);
  // Builds from an explicit edge list (u, v, cost), directed.
  struct Link {
    int from, to;
    double cost;
  };
  LinkTable(int n, const std::vector<Link>& links);

  int size() const { return static_cast<int>(adj_.size()); }
  // Cost of the directed link u -> v, or a negative value if there is none.
  double cost(int u, int v) const;
  // Cheapest cost from s to every node (infinity when unreachable).
  std::vector<double> shortest_costs(int s) const;

 private:
  std::vector<std::vector<std::pair<int, double>>> adj_;  // sorted by target
};

// Each returns an empty string when the route passes, else the reason.
// The walk check: path starts at s, ends at t, every hop is a link, and the
// reported transmissions equal the hop count.
std::string check_walk(const LinkTable& links, int s, int t, const gdvr::routing::RouteResult& r);
// The reported cost equals the sum of the walk's link costs.
std::string check_cost(const LinkTable& links, const gdvr::routing::RouteResult& r);
// The reported cost is no cheaper than the optimum.
std::string check_not_below(const gdvr::routing::RouteResult& r, double optimum);
// All three in order.
std::string check_route(const LinkTable& links, int s, int t, const gdvr::routing::RouteResult& r,
                        double optimum);

// Self-tests of the checks above: a sound route passes, a broken hop, a
// wrong cost and a cost below the optimum are rejected, and shortest_costs
// matches brute-force enumeration of simple paths on small graphs. Returns
// an empty string on success.
std::string self_test();

}  // namespace perfbench
