// Shared machinery of the zkbench program: the deployment every workload
// runs against, the lockstep RPC lanes, counter snapshots, spans and
// the result record the program prints.
//
// Everything here calls the program's public interfaces only; spans
// are taken around the benchmark's own calls into each layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/follower_view.hpp"
#include "core/system.hpp"
#include "core/transformation.hpp"
#include "rpc/client.hpp"
#include "rpc/dispatch.hpp"
#include "rpc/server.hpp"
#include "runtime/stats.hpp"

namespace zkbench {

using namespace zkdet;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // "run": set-up, then the timed window. "setup": set-up, then only
  // the fixed exact-count prefix (a set-up time sample).
  std::string mode = "run";
  std::string workdir = ".bench_work/run";
  // Deliberately wrong expectations for the checks' self-test:
  // "wrong-balance" or "corrupt-proof".
  std::string inject;
};

// One named check; the run is correct only if every check passed.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// Accumulated span time: total milliseconds over `count` spans.
struct Span {
  double total_ms = 0;
  std::uint64_t count = 0;
  void add(double ms) {
    total_ms += ms;
    ++count;
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
  }
};

// What one process reports back to run.py (printed as one JSON line).
struct Report {
  std::string workload;
  std::string mode;
  double setup_s = 0;
  double window_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies_ms;  // completed ops, window order
  // Host-speed reference samples (host_ref_ms): three before set-up, and
  // in the window one before each round that starts at least 200 ms
  // after the last one. Sample time is not part of the window.
  std::vector<double> setup_ref_ms;
  std::vector<double> window_ref_ms;
  // Window time from each window sample to the next (or to the end).
  std::vector<double> window_ref_span_ms;
  // Per completed op: the window sample taken last before its round.
  std::vector<std::size_t> op_ref;
  double cpu_ms = 0;                 // process CPU over the window
  double gas = 0;                    // receipt gas over the window
  // Peak RSS once set-up and the fixed-count prefix are done: a fixed
  // amount of work, unlike the exit value, which grows with every op
  // the window completes (the chain and its snapshots grow).
  double peak_rss_mb = 0;
  std::map<std::string, double> exact;   // fixed-prefix exact counts
  std::map<std::string, double> layers;  // per-layer metrics (trace)
  std::vector<Check> checks;

  void check(const std::string& name, bool ok, const std::string& detail = {});
  // Records a completed op's latency and the sample it follows.
  void add_latency(double ms) {
    latencies_ms.push_back(ms);
    op_ref.push_back(window_ref_ms.empty() ? 0 : window_ref_ms.size() - 1);
  }
  [[nodiscard]] std::string to_json() const;
};

// Counters the program already exposes, read at one instant.
struct Counters {
  runtime::StatsSnapshot rt;
  std::uint64_t height = 0;
  std::uint64_t txs = 0;
  std::uint64_t gas = 0;
  std::uint64_t ledger_records = 0;
  std::uint64_t wal_segment = 0;  // newest wal-<n>.log
  std::uint64_t wal_bytes = 0;    // its size
  std::uint64_t repairs = 0;
  std::uint64_t tampers = 0;
};

// Process CPU time (user + sys, all threads) in milliseconds.
double process_cpu_ms();
// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();
// Times one fixed chain of 256-bit Montgomery multiplications, written
// in the benchmark so that no change to the program can move it: how
// long it takes measures how fast the shared host runs this process's
// kind of work at that moment (milliseconds).
double host_ref_ms();

// The deployment shared by every workload: durable ledger in the work
// directory with default ledger::Options, one follower over the socket
// transport (ZKDET_REPLICAS / ZKDET_REPL_TRANSPORT, set by run.py), two
// arbiter shards, reads served by a FollowerReadView, and one AF_UNIX
// RPC server.
class Deployment {
 public:
  explicit Deployment(const std::string& workdir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] core::ZkdetSystem& sys() { return *sys_; }
  [[nodiscard]] core::TransformationProtocol& tp() { return *tp_; }
  [[nodiscard]] const std::string& socket_path() const { return sock_; }

  // Total chain balance over every account (funds-conservation check).
  [[nodiscard]] std::uint64_t total_funds() const;
  [[nodiscard]] Counters counters() const;

  // One service round as the benchmark drives it: Server::pump(), then
  // replicas()->pump(). Span times accumulate into the cumulative
  // clocks below (read by lanes to split op latency).
  void pump();
  // Brings the follower level with the primary; false on failure.
  bool sync_follower();
  // Serve RPC reads from the primary instead of the follower (final
  // cross-checks only; the workloads read from the follower).
  void read_primary(bool on) {
    disp_->serve_reads_from(on ? nullptr : view_.get());
  }
  [[nodiscard]] std::uint64_t follower_height() const {
    return sys_->replicas()->follower(0).image().height();
  }

  double pump_ms = 0;       // cumulative Server::pump time
  double repl_pump_ms = 0;  // cumulative replicas()->pump time
  std::uint64_t pumps = 0;

 private:
  std::string workdir_;
  std::string sock_;
  std::unique_ptr<core::ZkdetSystem> sys_;
  std::unique_ptr<core::TransformationProtocol> tp_;
  std::unique_ptr<rpc::Dispatcher> disp_;
  std::unique_ptr<core::FollowerReadView> view_;
  std::unique_ptr<rpc::Server> server_;
  // Receipt totals folded incrementally over sealed blocks.
  mutable std::size_t scanned_blocks_ = 0;
  mutable std::uint64_t scanned_txs_ = 0;
  mutable std::uint64_t scanned_gas_ = 0;
};

// Closed-loop client lanes, one connection each, run in lockstep: every
// lane sends one request, then the deployment is pumped until every
// lane has its response.
class Lanes {
 public:
  Lanes(Deployment& d, std::size_t n);

  struct Answer {
    std::optional<rpc::Response> rs;  // nullopt: idle lane or no answer
    Clock::time_point at;             // when the answer was taken
    double pump_ms = 0;               // Deployment clocks at that moment
    double repl_pump_ms = 0;
  };

  // Sends rqs[i] on lane i (nullopt = lane idle this round; ids are
  // assigned here) and pumps until every sent request is answered or
  // the round budget runs out. When `spans` is set, each request's
  // latency is added to (*spans)["rpc.<op>_ms"].
  std::vector<Answer> round(std::vector<std::optional<rpc::Request>> rqs,
                            std::map<std::string, Span>* spans);

 private:
  Deployment& d_;
  std::vector<rpc::Client> clients_;
  std::uint64_t next_id_ = 1;
};

rpc::Request make_rq(rpc::Op op, std::uint64_t client = 0, std::uint64_t a = 0,
                     std::uint64_t b = 0, std::uint64_t c = 0);

// Percentile by nearest rank on a copy of `xs` (p in [0, 100]).
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

// Workload entry points (workloads.cpp). Each fills `rep`.
void run_exchange(const Options& opt, Report& rep, Clock::time_point t0);
void run_transfer(const Options& opt, Report& rep, Clock::time_point t0);
void run_audit(const Options& opt, Report& rep, Clock::time_point t0);

// Audit ops run after the window of a traced exchange or transfer run:
// the core / storage layers of the audit workload, measured on the
// benchmark's gated workloads.
void run_audit_probe(Deployment& d, std::uint64_t seed, Report& rep);

// Per-layer probes (probes.cpp): timed calls into ff / ec / plonk /
// crypto public functions on inputs drawn from the workload seed.
void run_probes(core::ZkdetSystem& sys, std::uint64_t seed, Report& rep);

}  // namespace zkbench
