#include "simtime/sim_coll.hpp"

#include <algorithm>
#include <cmath>

#include "rdma/network_model.hpp"

namespace fompi::sim {

namespace {

int ceil_log2(int n) {
  int r = 0;
  while ((1 << r) < n) ++r;
  return r;
}

/// One tree round on the critical path: issue the data put, issue the
/// notify flag (second doorbell group), wire latency for both.
double inter_round_ns(std::size_t nbytes, const rdma::NetworkModel& n) {
  return 2.0 * n.inter_overhead_ns + n.put_base_ns +
         static_cast<double>(nbytes) * n.put_byte_ns;
}

double intra_round_ns(std::size_t nbytes, const rdma::NetworkModel& n) {
  return n.intra_overhead_ns + n.intra_base_ns +
         static_cast<double>(nbytes) * n.intra_byte_ns;
}

double barrier_ns(int p, const rdma::NetworkModel& n) {
  return ceil_log2(p) * (n.inter_overhead_ns + n.put_base_ns);
}

double coll_ns(CollOp op, int p, const CollParams& c) {
  const rdma::NetworkModel n;
  const int rpn = std::max(1, c.ranks_per_node);
  const bool hier = rpn > 1 && p > rpn;
  const int nnodes = hier ? (p + rpn - 1) / rpn : p;
  // Every data collective opens with the leading barrier (landing reuse
  // protocol); the hierarchy adds one intra gather and one intra release
  // on the critical path.
  const double lead = barrier_ns(p, n);
  const double intra =
      hier ? intra_round_ns(c.nbytes, n) + (rpn - 1) * n.intra_overhead_ns
           : 0.0;

  switch (op) {
    case CollOp::barrier:
      return lead;
    case CollOp::bcast:
      // Binomial depth over nodes; members get the release as one more
      // intra hop.
      return lead + ceil_log2(nnodes) * inter_round_ns(c.nbytes, n) +
             (hier ? 2.0 * intra : 0.0);
    case CollOp::allreduce:
      // Recursive doubling: every round exchanges the full vector; the
      // non-power-of-two fold adds at most two extra rounds (bounded,
      // ignored here — shape, not absolutes).
      return lead + ceil_log2(nnodes) * inter_round_ns(c.nbytes, n) +
             (hier ? 2.0 * intra : 0.0);
    case CollOp::allgather: {
      // Bruck: log rounds of doorbells, but the wire still carries
      // (p - 1) * nbytes in total — rounds dominate for small blocks,
      // bytes for large ones.
      const double rounds = ceil_log2(nnodes) * inter_round_ns(0, n);
      const double bytes = static_cast<double>(nnodes - 1) *
                           static_cast<double>(c.nbytes) * rpn *
                           n.put_byte_ns;
      return lead + rounds + bytes + (hier ? 2.0 * intra : 0.0);
    }
    case CollOp::alltoallv: {
      // Persistent run path: leading barrier, then one doorbell-batched
      // group of k sparse payload puts (overhead once, chained
      // descriptors), one batched group of k counter AMOs, and the
      // arrival wait. The dense count exchange happened at plan time.
      const int k = std::min(c.neighbors, p - 1);
      const double puts = n.inter_overhead_ns + k * n.chain_ns +
                          n.put_base_ns +
                          static_cast<double>(k) *
                              static_cast<double>(c.nbytes) * n.put_byte_ns;
      const double amos = n.inter_overhead_ns + k * n.chain_ns + n.amo_base_ns;
      return lead + puts + amos;
    }
  }
  return 0.0;
}

}  // namespace

double simulate_coll_us(CollOp op, int p, const CollParams& c) {
  return p <= 1 ? 0.0 : coll_ns(op, p, c) / 1e3;
}

}  // namespace fompi::sim
