#include "simtime/sim_overlap.hpp"

#include "rdma/network_model.hpp"

namespace fompi::sim {

namespace {

// The scheduler's share of the issue path: one fiber switch plus the
// completion-heap push/pop around each suspended op. Calibrated against
// bench_overlap's software-only (Injection::none) rows, which measure
// exactly this cost plus the NIC bookkeeping.
constexpr double kSoftwareNs = 60.0;

OverlapModel make(double latency_ns) {
  return {rdma::NetworkModel{}.inter_overhead_ns, kSoftwareNs, latency_ns};
}

}  // namespace

OverlapModel overlap_model_put8() {
  return make(rdma::NetworkModel{}.put_latency_ns(8));
}

OverlapModel overlap_model_get8() {
  return make(rdma::NetworkModel{}.get_latency_ns(8));
}

OverlapModel overlap_model_amo8() {
  return make(rdma::NetworkModel{}.amo_latency_ns());
}

}  // namespace fompi::sim
