// Machine specifications (Table 1, machine-specific rows; Table 2 data).
//
// RLAS consumes the hardware only through this abstraction: per-socket
// compute capacity C, local DRAM bandwidth B, the remote-channel
// bandwidth matrix Q(i,j), the worst-case latency matrix L(i,j), and
// the cache line size S. The two evaluation servers from the paper are
// provided as factories with the published Table 2 numbers, so the
// optimizer solves the *identical* problem instance the paper did even
// though this repo runs on single-socket hardware (see README,
// "Hardware substitution").
#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace brisk::hw {

/// Description of one NUMA machine.
class MachineSpec {
 public:
  MachineSpec() = default;

  /// HUAWEI KunLun "Server A": glue-less 8-socket, 18 cores/socket at
  /// 1.2 GHz (power-save governor), two CPU trays connected by vendor
  /// interconnect (Fig. 1a). Latency/bandwidth from Table 2.
  static MachineSpec ServerA();

  /// HP ProLiant DL980 G7 "Server B": XNC glue-assisted 8-socket,
  /// 8 cores/socket at 2.27 GHz, two trays behind node controllers
  /// (Fig. 1b). Remote bandwidth is near-uniform across distance.
  static MachineSpec ServerB();

  /// Symmetric machine for tests: every remote pair has the same
  /// latency/bandwidth.
  static MachineSpec Symmetric(int sockets, int cores_per_socket,
                               double core_ghz, double local_latency_ns,
                               double remote_latency_ns,
                               double local_bw_gbps, double remote_bw_gbps);

  /// Same machine restricted to its first `sockets` sockets — used for
  /// the scalability sweeps (Fig. 9) that enable 1/2/4/8 sockets.
  StatusOr<MachineSpec> Truncated(int sockets) const;

  const std::string& name() const { return name_; }
  int num_sockets() const { return num_sockets_; }
  int cores_per_socket() const { return cores_per_socket_; }
  int total_cores() const { return num_sockets_ * cores_per_socket_; }
  double core_ghz() const { return core_ghz_; }

  /// Cache line size S in bytes (Formula 2 divisor).
  double cache_line_bytes() const { return cache_line_bytes_; }

  /// Maximum attainable per-socket CPU time, expressed in nanoseconds of
  /// core time per second: cores_per_socket × 1e9. (Eq. 3's C with T in
  /// ns/tuple.)
  double cpu_ns_per_sec() const { return cores_per_socket_ * 1e9; }

  /// Maximum attainable local DRAM bandwidth B in bytes/sec (Eq. 4).
  double local_bandwidth_bps() const { return local_bw_gbps_ * 1e9; }
  double local_bandwidth_gbps() const { return local_bw_gbps_; }

  /// Worst-case memory access latency L(i,j) in ns. L(i,i) is the local
  /// (LLC) latency.
  double LatencyNs(int from, int to) const {
    return latency_ns_[static_cast<size_t>(from) * num_sockets_ + to];
  }

  /// Maximum attainable remote channel bandwidth Q(i,j) in bytes/sec.
  /// Q(i,i) is the local bandwidth B.
  double ChannelBandwidthBps(int from, int to) const {
    return bw_gbps_[static_cast<size_t>(from) * num_sockets_ + to] * 1e9;
  }
  double ChannelBandwidthGbps(int from, int to) const {
    return bw_gbps_[static_cast<size_t>(from) * num_sockets_ + to];
  }

  /// Tray (NUMA island) hosting socket s — drives the non-linear
  /// inter-tray latency jump both servers exhibit.
  int TrayOf(int socket) const { return tray_[socket]; }

  /// Interconnect hops between two sockets (0 = same socket).
  int Hops(int from, int to) const;

  /// Per-tuple remote fetch cost in ns (Formula 2):
  ///   T_f = 0 when from == to, else ceil(N/S) * L(from, to).
  double FetchCostNs(int from, int to, double tuple_bytes) const;

  /// Converts profiled CPU cycles to nanoseconds on this machine's cores.
  double CyclesToNs(double cycles) const { return cycles / core_ghz_; }

  /// Human-readable multi-line summary (Table 2 style).
  std::string ToString() const;

 private:
  std::string name_;
  int num_sockets_ = 0;
  int cores_per_socket_ = 0;
  double core_ghz_ = 0.0;
  double cache_line_bytes_ = 64.0;
  double local_bw_gbps_ = 0.0;
  std::vector<double> latency_ns_;  // num_sockets^2, row-major
  std::vector<double> bw_gbps_;     // num_sockets^2, row-major
  std::vector<int> tray_;           // tray id per socket
};

}  // namespace brisk::hw
