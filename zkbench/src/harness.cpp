#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ledger/replay.hpp"

namespace zkbench {

namespace fs = std::filesystem;

namespace {

// Every workload runs the same deployment. The SRS covers the largest
// circuit any workload proves (pi_k, n = 4096), and the system and
// dispatcher seeds are constants: the workload seed reaches the
// program only through the inputs the workloads generate.
constexpr std::size_t kMaxConstraints = 1 << 13;
constexpr std::uint64_t kSystemSeed = 7;
constexpr std::uint64_t kDispatchSeed = 11;
constexpr std::size_t kArbiterShards = 2;
// Upper bound on pumps per lockstep round; a round needing more means
// the server lost a request, which fails the run instead of hanging.
constexpr int kMaxPumpsPerRound = 10'000;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_map(std::ostringstream& os, const std::map<std::string, double>& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":" << num(v);
  }
  os << '}';
}

void write_list(std::ostringstream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ',';
    os << num(v[i]);
  }
  os << ']';
}

}  // namespace

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  for (Check& c : checks) {
    if (c.name == name) {
      // A check seen many times keeps its first failure.
      if (c.ok && !ok) {
        c.ok = false;
        c.detail = detail;
      }
      return;
    }
  }
  checks.push_back(Check{name, ok, ok ? std::string{} : detail});
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(workload) << "\",\"mode\":\""
     << json_escape(mode) << "\",\"setup_s\":" << num(setup_s)
     << ",\"window_s\":" << num(window_s) << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"cpu_ms\":" << num(cpu_ms)
     << ",\"gas\":" << num(gas)
     << ",\"peak_rss_mb\":" << num(peak_rss_mb) << ",\"latencies_ms\":[";
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    if (i != 0) os << ',';
    os << num(latencies_ms[i]);
  }
  os << "],\"op_ref\":[";
  for (std::size_t i = 0; i < op_ref.size(); ++i) {
    if (i != 0) os << ',';
    os << op_ref[i];
  }
  os << "],\"setup_ref_ms\":";
  write_list(os, setup_ref_ms);
  os << ",\"window_ref_ms\":";
  write_list(os, window_ref_ms);
  os << ",\"window_ref_span_ms\":";
  write_list(os, window_ref_span_ms);
  os << ",\"exact\":";
  write_map(os, exact);
  os << ",\"layers\":";
  write_map(os, layers);
  os << ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"name\":\"" << json_escape(checks[i].name)
       << "\",\"ok\":" << (checks[i].ok ? "true" : "false")
       << ",\"detail\":\"" << json_escape(checks[i].detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux keeps ru_maxrss across
  // execve, so it would carry the launching process's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double host_ref_ms() {
  // BN254 scalar field modulus, little-endian 64-bit limbs.
  static constexpr std::uint64_t kP[4] = {
      0x43e1f593f0000001ULL, 0x2833e84879b97091ULL, 0xb85045b68181585dULL,
      0x30644e72e131a029ULL};
  constexpr int kMuls = 50'000;
  using u128 = unsigned __int128;
  // -p^-1 mod 2^64 by Newton iteration.
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - kP[0] * inv;
  inv = 0 - inv;
  // Operands below 2p stay below 2p (4p < 2^256), so the chain needs
  // no final subtraction.
  std::uint64_t x[4] = {0x1234567890abcdefULL, 0x0fedcba987654321ULL,
                        0x1111111111111111ULL, 0x0222222222222222ULL};
  const std::uint64_t y[4] = {0x0123456789abcdefULL, 0x7777777777777777ULL,
                              0x3333333333333333ULL, 0x0111111111111111ULL};
  const auto t0 = Clock::now();
  for (int n = 0; n < kMuls; ++n) {
    std::uint64_t t[6] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {  // CIOS
      std::uint64_t c = 0;
      for (int j = 0; j < 4; ++j) {
        const u128 v = static_cast<u128>(x[j]) * y[i] + t[j] + c;
        t[j] = static_cast<std::uint64_t>(v);
        c = static_cast<std::uint64_t>(v >> 64);
      }
      u128 v = static_cast<u128>(t[4]) + c;
      t[4] = static_cast<std::uint64_t>(v);
      t[5] = static_cast<std::uint64_t>(v >> 64);
      const std::uint64_t m = t[0] * inv;
      v = static_cast<u128>(m) * kP[0] + t[0];
      c = static_cast<std::uint64_t>(v >> 64);
      for (int j = 1; j < 4; ++j) {
        v = static_cast<u128>(m) * kP[j] + t[j] + c;
        t[j - 1] = static_cast<std::uint64_t>(v);
        c = static_cast<std::uint64_t>(v >> 64);
      }
      v = static_cast<u128>(t[4]) + c;
      t[3] = static_cast<std::uint64_t>(v);
      t[4] = t[5] + static_cast<std::uint64_t>(v >> 64);
    }
    for (int j = 0; j < 4; ++j) x[j] = t[j];
  }
  const double ms = ms_between(t0, Clock::now());
  static volatile std::uint64_t sink;
  sink = x[0] ^ x[1] ^ x[2] ^ x[3];
  return ms;
}

rpc::Request make_rq(rpc::Op op, std::uint64_t client, std::uint64_t a,
                     std::uint64_t b, std::uint64_t c) {
  rpc::Request rq;
  rq.op = op;
  rq.client = client;
  rq.a = a;
  rq.b = b;
  rq.c = c;
  return rq;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto idx = static_cast<std::size_t>(std::lround(rank));
  return xs[std::min(idx, xs.size() - 1)];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

// --- deployment -----------------------------------------------------------

Deployment::Deployment(const std::string& workdir) : workdir_(workdir) {
  fs::create_directories(workdir_);
  sock_ = workdir_ + "/rpc.sock";
  sys_ = std::make_unique<core::ZkdetSystem>(
      kMaxConstraints, kSystemSeed, workdir_ + "/ledger", ledger::Options{},
      kArbiterShards);
  if (sys_->ledger() == nullptr || sys_->replicas() == nullptr ||
      sys_->replicas()->size() != 1) {
    throw std::runtime_error(
        "deployment needs a durable ledger and exactly one follower "
        "(ZKDET_REPLICAS=1)");
  }
  tp_ = std::make_unique<core::TransformationProtocol>(*sys_);
  disp_ = std::make_unique<rpc::Dispatcher>(*sys_, *tp_, kDispatchSeed);
  view_ = std::make_unique<core::FollowerReadView>(
      sys_->replicas()->follower(0));
  disp_->serve_reads_from(view_.get());
  auto listener = rpc::sockio::listen_unix(sock_);
  if (!listener) throw std::runtime_error("cannot listen on " + sock_);
  rpc::AdmissionConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_inflight = 16;
  server_ = std::make_unique<rpc::Server>(*disp_, std::move(*listener), cfg);
}

Deployment::~Deployment() {
  server_.reset();
  std::error_code ec;
  fs::remove(sock_, ec);
}

std::uint64_t Deployment::total_funds() const {
  std::uint64_t total = 0;
  for (const auto& [addr, bal] : sys_->chain().balances_map()) total += bal;
  return total;
}

Counters Deployment::counters() const {
  Counters c;
  c.rt = runtime::stats();
  const auto& blocks = sys_->chain().blocks();
  for (; scanned_blocks_ < blocks.size(); ++scanned_blocks_) {
    for (const auto& tx : blocks[scanned_blocks_].txs) {
      ++scanned_txs_;
      scanned_gas_ += tx.gas_used;
    }
  }
  c.height = blocks.size();
  c.txs = scanned_txs_;
  c.gas = scanned_gas_;
  c.ledger_records = sys_->ledger()->stats().appended_records;
  for (const auto& entry : fs::directory_iterator(sys_->ledger()->dir())) {
    const auto n = ledger::parse_segment_name(entry.path().filename().string());
    if (n && *n >= c.wal_segment) {
      c.wal_segment = *n;
      c.wal_bytes = entry.file_size();
    }
  }
  c.repairs = sys_->storage().repairs();
  c.tampers = sys_->storage().tamper_detections();
  return c;
}

void Deployment::pump() {
  const auto t0 = Clock::now();
  server_->pump();
  const auto t1 = Clock::now();
  sys_->replicas()->pump();
  const auto t2 = Clock::now();
  pump_ms += ms_between(t0, t1);
  repl_pump_ms += ms_between(t1, t2);
  ++pumps;
}

bool Deployment::sync_follower() {
  if (!sys_->replicas()->sync()) return false;
  view_->refresh();
  return !sys_->replicas()->follower(0).failed() &&
         view_->height() == sys_->chain().height();
}

// --- lanes ----------------------------------------------------------------

Lanes::Lanes(Deployment& d, std::size_t n) : d_(d) {
  for (std::size_t i = 0; i < n; ++i) {
    auto c = rpc::Client::connect_unix(d.socket_path());
    if (!c) throw std::runtime_error("client cannot connect");
    clients_.push_back(std::move(*c));
  }
}

std::vector<Lanes::Answer> Lanes::round(
    std::vector<std::optional<rpc::Request>> rqs,
    std::map<std::string, Span>* spans) {
  const std::size_t n = rqs.size();
  if (n > clients_.size()) throw std::logic_error("more requests than lanes");
  std::vector<Answer> out(n);
  std::vector<Clock::time_point> sent(n);
  std::size_t pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!rqs[i]) continue;
    rqs[i]->id = next_id_++;
    sent[i] = Clock::now();
    clients_[i].send(*rqs[i]);
    ++pending;
  }
  for (int iter = 0; pending > 0 && iter < kMaxPumpsPerRound; ++iter) {
    d_.pump();
    for (std::size_t i = 0; i < n; ++i) {
      if (!rqs[i] || out[i].rs) continue;
      clients_[i].flush();
      clients_[i].poll();
      if (auto rs = clients_[i].take(rqs[i]->id)) {
        out[i].at = Clock::now();
        out[i].pump_ms = d_.pump_ms;
        out[i].repl_pump_ms = d_.repl_pump_ms;
        if (spans != nullptr) {
          std::string name = "rpc.";
          for (const char* p = rpc::op_name(rqs[i]->op); *p != '\0'; ++p) {
            name += *p == '-' ? '_' : *p;
          }
          (*spans)[name + "_ms"].add(ms_between(sent[i], out[i].at));
        }
        out[i].rs = std::move(*rs);
        --pending;
      }
    }
  }
  return out;
}

}  // namespace zkbench
