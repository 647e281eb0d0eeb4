// The three workloads: exchange, transfer and audit.
//
// Each runs set-up (everything first-use: SRS, per-shape preprocessing,
// one warm-up op per lane), then a timed window of lockstep rounds. The
// first few rounds of the window (a fixed number per workload) form the
// exact-count prefix: counts over it must repeat exactly for a fixed
// seed (run.py compares them across the processes of one run). In
// "setup" mode a process stops after the prefix, so it yields a set-up
// time and the prefix counts but no window.
//
// With tracing on, rounds alternate between traced and untraced; spans
// and per-layer metrics come from the traced rounds, and the ratio of
// the two kinds' op rates is the tracing overhead.
#include <algorithm>
#include <stdexcept>
#include <string>

#include "chain/arbiter.hpp"
#include "crypto/rng.hpp"
#include "harness.hpp"

namespace zkbench {

namespace {

// Bounded retries of a follower read that has not caught up yet. Each
// retry is one more pump of server and follower, so a follower that
// stays behind this long is a failure, not a slow op.
constexpr int kMaxReadRetries = 1'000;

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Drives the timed window: deadline, traced/untraced alternation,
// exact-count prefix and the counter deltas every workload reports.
class Window {
 public:
  Window(const Options& opt, Report& rep, Deployment& d,
         std::size_t prefix_rounds, Clock::time_point t0)
      : opt_(opt), rep_(rep), d_(d), prefix_rounds_(prefix_rounds) {
    w0_ = Clock::now();
    rep_.setup_s = ms_between(t0, w0_) / 1e3;
    cpu0_ = process_cpu_ms();
    c0_ = d_.counters();
    funds0_ = d_.total_funds();
  }

  // False once the window is over (deadline passed, or the prefix is
  // done in "setup" mode).
  bool begin_round() {
    if (rounds_ == prefix_rounds_) {
      cprefix_ = d_.counters();
      ops_prefix_ = ops_;
      rep_.peak_rss_mb = peak_rss_mb();
      if (opt_.mode == "setup") return false;
    }
    const auto now = Clock::now();
    if (rounds_ >= prefix_rounds_ &&
        ms_between(w0_, now) >= opt_.seconds * 1e3) {
      return false;
    }
    if (rep_.window_ref_ms.empty() ||
        ms_between(last_ref_, now) >= kRefEveryMs) {
      if (!rep_.window_ref_ms.empty()) {
        rep_.window_ref_span_ms.push_back(ms_between(last_ref_, now));
      }
      const double ref = host_ref_ms();
      rep_.window_ref_ms.push_back(ref);
      ref_ms_ += ref;
      last_ref_ = Clock::now();
    }
    traced_ = opt_.trace && rounds_ % 2 == 0;
    round_start_ = Clock::now();
    if (traced_) wal_before_ = d_.counters();
    return true;
  }

  void end_round(std::uint64_t ops_done) {
    ops_ += ops_done;
    const double ms = ms_between(round_start_, Clock::now());
    if (traced_) {
      traced_ms_ += ms;
      traced_ops_ += ops_done;
      const Counters after = d_.counters();
      // A snapshot rotates the WAL onto a fresh segment and deletes the
      // old one; rounds that straddle a rotation are left out.
      if (after.wal_segment == wal_before_.wal_segment) {
        wal_bytes_ += static_cast<double>(after.wal_bytes - wal_before_.wal_bytes);
        wal_ops_ += ops_done;
      }
    } else {
      untraced_ms_ += ms;
      untraced_ops_ += ops_done;
    }
    ++rounds_;
  }

  // Spans of the current round (nullptr when it is untraced).
  std::map<std::string, Span>* spans() { return traced_ ? &spans_ : nullptr; }
  void note_tx_round() { ++tx_rounds_; }

  // Closes the window: end-to-end raw figures, warm-state guard,
  // exact-count prefix and counter-derived per-layer metrics.
  void finish() {
    const auto w1 = Clock::now();
    const Counters c1 = d_.counters();
    rep_.window_s = (ms_between(w0_, w1) - ref_ms_) / 1e3;
    if (!rep_.window_ref_ms.empty()) {
      rep_.window_ref_span_ms.push_back(ms_between(last_ref_, w1));
    }
    rep_.cpu_ms = process_cpu_ms() - cpu0_ - ref_ms_;
    rep_.gas = static_cast<double>(c1.gas - c0_.gas);

    rep_.check("warm_state.key_cache_misses",
               c1.rt.key_cache_misses == c0_.rt.key_cache_misses,
               "proving-key cache missed inside the timed window");
    rep_.check("warm_state.preprocess_ns",
               c1.rt.preprocess_ns == c0_.rt.preprocess_ns,
               "circuit preprocessing ran inside the timed window");
    rep_.check("funds_conserved", d_.total_funds() == funds0_,
               "total chain balance changed");

    if (rounds_ < prefix_rounds_) {
      rep_.check("exact_prefix.complete", false,
                 "window ended before the exact-count prefix");
    } else {
      exact_counts(c0_, cprefix_, ops_prefix_);
    }
    if (opt_.trace) layers(c0_, c1);
  }

 private:
  void exact_counts(const Counters& a, const Counters& b, std::uint64_t ops) {
    const double n = static_cast<double>(ops);
    auto& e = rep_.exact;
    e["gas_per_op"] = ratio(static_cast<double>(b.gas - a.gas), n);
    e["chain.blocks_per_op"] =
        ratio(static_cast<double>(b.height - a.height), n);
    e["ledger.records_per_op"] =
        ratio(static_cast<double>(b.ledger_records - a.ledger_records), n);
    rep_.check("exact_prefix.no_wal_rotation", a.wal_segment == b.wal_segment,
               "a snapshot rotated the WAL inside the prefix");
    e["ledger.wal_bytes_per_op"] =
        ratio(static_cast<double>(b.wal_bytes - a.wal_bytes), n);
    e["runtime.settle_fold_size"] =
        ratio(static_cast<double>(b.rt.settle_claims - a.rt.settle_claims),
              static_cast<double>(b.rt.settle_batches - a.rt.settle_batches));
    e["runtime.jobs_per_op"] = ratio(
        static_cast<double>(b.rt.jobs_submitted - a.rt.jobs_submitted), n);
  }

  void layers(const Counters& a, const Counters& b) {
    const double n = static_cast<double>(ops_);
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    auto& l = rep_.layers;
    l["txpool.txs_per_batch"] =
        ratio(d(a.rt.txpool_txs_executed, b.rt.txpool_txs_executed),
              d(a.rt.txpool_batches_sealed, b.rt.txpool_batches_sealed));
    l["txpool.batches_per_round"] =
        ratio(d(a.rt.txpool_batches_sealed, b.rt.txpool_batches_sealed),
              static_cast<double>(tx_rounds_));
    l["txpool.conflict_aborts"] =
        d(a.rt.txpool_conflict_aborts, b.rt.txpool_conflict_aborts);
    l["chain.blocks_per_op"] = ratio(d(a.height, b.height), n);
    l["chain.gas_per_tx"] = ratio(d(a.gas, b.gas), d(a.txs, b.txs));
    l["chain.gas_per_op"] = ratio(d(a.gas, b.gas), n);
    l["runtime.prove_cpu_ms_per_op"] = ratio(d(a.rt.prove_ns, b.rt.prove_ns), n) / 1e6;
    l["runtime.msm_cpu_ms_per_op"] = ratio(d(a.rt.msm_ns, b.rt.msm_ns), n) / 1e6;
    l["runtime.ntt_cpu_ms_per_op"] = ratio(d(a.rt.ntt_ns, b.rt.ntt_ns), n) / 1e6;
    l["runtime.quotient_cpu_ms_per_op"] =
        ratio(d(a.rt.quotient_ns, b.rt.quotient_ns), n) / 1e6;
    l["runtime.verify_cpu_ms_per_op"] =
        ratio(d(a.rt.verify_ns, b.rt.verify_ns), n) / 1e6;
    l["runtime.steal_ratio"] =
        ratio(d(a.rt.chunks_stolen, b.rt.chunks_stolen),
              d(a.rt.chunks_executed, b.rt.chunks_executed));
    l["runtime.jobs_per_op"] = ratio(d(a.rt.jobs_submitted, b.rt.jobs_submitted), n);
    l["runtime.key_cache_misses"] = d(a.rt.key_cache_misses, b.rt.key_cache_misses);
    l["runtime.fold_checks_per_op"] =
        ratio(d(a.rt.batch_fold_checks, b.rt.batch_fold_checks), n);
    l["runtime.settle_fold_size"] =
        ratio(d(a.rt.settle_claims, b.rt.settle_claims),
              d(a.rt.settle_batches, b.rt.settle_batches));
    l["ledger.records_per_op"] = ratio(d(a.ledger_records, b.ledger_records), n);
    l["ledger.wal_bytes_per_op"] = ratio(wal_bytes_, static_cast<double>(wal_ops_));
    l["replication.records_shipped_per_op"] =
        ratio(d(a.rt.repl_records_shipped, b.rt.repl_records_shipped), n);
    l["replication.retransmits"] = d(a.rt.repl_retransmits, b.rt.repl_retransmits);
    l["rpc.requests_per_round"] =
        ratio(d(a.rt.rpc_admitted, b.rt.rpc_admitted),
              static_cast<double>(d_.pumps - pumps0_));
    l["rpc.shed"] = d(a.rt.rpc_shed, b.rt.rpc_shed);
    l["storage.repairs"] = d(a.repairs, b.repairs);
    l["storage.tamper_detections"] = d(a.tampers, b.tampers);
    for (const auto& [name, span] : spans_) l[name] = span.mean();
    l["trace.overhead_ratio"] =
        ratio(ratio(static_cast<double>(traced_ops_), traced_ms_),
              ratio(static_cast<double>(untraced_ops_), untraced_ms_));
  }

  const Options& opt_;
  Report& rep_;
  Deployment& d_;
  std::size_t prefix_rounds_;
  // Host-speed reference samples: one before the first round, then one
  // before any round that starts this long after the last sample.
  static constexpr double kRefEveryMs = 200;
  Clock::time_point w0_;
  Clock::time_point last_ref_;  // end of the last sample
  double ref_ms_ = 0;
  double cpu0_ = 0;
  Counters c0_;
  Counters cprefix_;
  std::uint64_t funds0_ = 0;
  std::uint64_t pumps0_ = d_.pumps;
  std::size_t rounds_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t ops_prefix_ = 0;
  std::uint64_t tx_rounds_ = 0;
  bool traced_ = false;
  Clock::time_point round_start_;
  Counters wal_before_;
  double wal_bytes_ = 0;
  std::uint64_t wal_ops_ = 0;
  double traced_ms_ = 0;
  double untraced_ms_ = 0;
  std::uint64_t traced_ops_ = 0;
  std::uint64_t untraced_ops_ = 0;
  std::map<std::string, Span> spans_;
};

// Records one completed RPC op: latency, and in traced rounds the split
// of that latency into server pump, follower pump and the rest.
struct OpClock {
  Clock::time_point start;
  double pump0 = 0;
  double repl0 = 0;

  static OpClock now(const Deployment& d) {
    return OpClock{Clock::now(), d.pump_ms, d.repl_pump_ms};
  }

  void done(const Lanes::Answer& end, Report& rep,
            std::map<std::string, Span>* spans) const {
    const double lat = ms_between(start, end.at);
    rep.add_latency(lat);
    if (spans == nullptr) return;
    const double pump = end.pump_ms - pump0;
    const double repl = end.repl_pump_ms - repl0;
    (*spans)["rpc.pump_ms"].add(pump);
    (*spans)["rpc.wait_ms"].add(lat - pump);
    (*spans)["replication.pump_ms"].add(repl);
    (*spans)["trace.uncovered_ms"].add(lat - pump - repl);
  }
};

bool ok(const Lanes::Answer& a) {
  return a.rs && a.rs->status == rpc::Status::kOk;
}

std::string why(const Lanes::Answer& a) {
  if (!a.rs) return "no response";
  return std::string(rpc::status_name(a.rs->status)) + ": " + a.rs->text;
}

// Setup-time RPC call on lane 0; throws on failure (set-up must work).
rpc::Response setup_call(Lanes& lanes, const rpc::Request& rq) {
  auto ans = lanes.round({rq}, nullptr);
  if (!ok(ans[0])) {
    throw std::runtime_error(std::string("set-up ") + rpc::op_name(rq.op) +
                             " failed: " + why(ans[0]));
  }
  return *ans[0].rs;
}

// End-of-run agreement of primary, follower and hash chain.
void check_replica_agreement(Deployment& d, Report& rep) {
  rep.check("follower.synced", d.sync_follower(),
            "follower did not catch up with the primary");
  const auto& primary = d.sys().chain().blocks();
  const auto& follower = d.sys().replicas()->follower(0).image().blocks;
  rep.check("follower.tip_equals_primary",
            !primary.empty() && follower.size() == primary.size() &&
                follower.back().hash == primary.back().hash,
            "follower tip differs from the primary tip");
  rep.check("chain.validates", d.sys().chain().validate_chain(),
            "validate_chain failed");
}

// Reads back, for every lane whose op wrote, the follower until it
// shows the write (`done` decides), counting retries. Returns the
// answers that completed each lane's op.
template <typename MakeRead, typename Done>
std::vector<Lanes::Answer> follower_reads(Lanes& lanes, Deployment& d,
                                          std::vector<bool>& alive,
                                          std::map<std::string, Span>* spans,
                                          MakeRead make_read, Done done) {
  const std::size_t n = alive.size();
  std::vector<Lanes::Answer> final(n);
  std::vector<int> retries(n, 0);
  std::vector<bool> pending = alive;
  if (spans != nullptr) {
    (*spans)["replication.lag_blocks"].add(static_cast<double>(
        d.sys().chain().height() - d.follower_height()));
  }
  for (int attempt = 0; attempt <= kMaxReadRetries; ++attempt) {
    std::vector<std::optional<rpc::Request>> rqs(n);
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (pending[i]) {
        rqs[i] = make_read(i);
        any = true;
      }
    }
    if (!any) break;
    auto ans = lanes.round(std::move(rqs), spans);
    for (std::size_t i = 0; i < n; ++i) {
      if (!pending[i]) continue;
      const int verdict = done(i, ans[i]);  // 1 done, 0 retry, -1 failed
      if (verdict == 0) {
        ++retries[i];
        continue;
      }
      pending[i] = false;
      if (verdict < 0) alive[i] = false;
      final[i] = ans[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i]) alive[i] = false;  // never caught up
    if (spans != nullptr && alive[i]) {
      (*spans)["replication.read_retries_per_op"].add(retries[i]);
    }
  }
  return final;
}

}  // namespace

// --- exchange ----------------------------------------------------------------
//
// Two lanes, each a (seller, buyer) pair over its own offered token; the
// two tokens route to different arbiter shards. One op is one sale:
// kLock (buyer), kSettle (seller, proves pi_k), then kReadExchange from
// the follower until it shows the exchange settled with k_c. Both lanes'
// settles land in one dispatch round, so their claims fold into one
// pairing check.
void run_exchange(const Options& opt, Report& rep, Clock::time_point t0) {
  constexpr std::size_t kLanes = 2;
  constexpr std::size_t kDatasetLen = 2;
  constexpr std::uint64_t kTimeoutBlocks = 1'000'000;
  crypto::Drbg in("zkbench-exchange", opt.seed);
  Deployment d(opt.workdir);
  Lanes lanes(d, kLanes);

  std::vector<std::uint64_t> sellers(kLanes), buyers(kLanes), offers(kLanes),
      tokens(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    sellers[i] = setup_call(lanes, make_rq(rpc::Op::kRegister, 0, 1'000'000)).value;
    buyers[i] =
        setup_call(lanes, make_rq(rpc::Op::kRegister, 0, 1'000'000'000'000)).value;
  }
  for (std::size_t i = 0; i < kLanes; ++i) {
    rpc::Request pub = make_rq(rpc::Op::kPublish, sellers[i]);
    for (std::size_t k = 0; k < kDatasetLen; ++k) {
      pub.frs.push_back(ff::Fr::from_u64(in() % 1'000'000));
    }
    tokens[i] = setup_call(lanes, pub).value;
    offers[i] = setup_call(lanes, make_rq(rpc::Op::kOffer, sellers[i], tokens[i])).value;
  }
  if (d.sys().arbiter_for_token(tokens[0]).address() ==
      d.sys().arbiter_for_token(tokens[1]).address()) {
    throw std::runtime_error("exchange tokens route to the same arbiter shard");
  }

  // One sale per lane, all lanes in lockstep. Returns completed ops.
  auto sale_round = [&](Window* w) -> std::uint64_t {
    auto* spans = w != nullptr ? w->spans() : nullptr;
    std::vector<bool> alive(kLanes, true);
    std::vector<std::uint64_t> amount(kLanes), xid(kLanes);
    const OpClock clock = OpClock::now(d);

    std::vector<std::optional<rpc::Request>> rqs(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      amount[i] = 1 + in() % 1'000;
      rqs[i] = make_rq(rpc::Op::kLock, buyers[i], offers[i], amount[i],
                       kTimeoutBlocks);
    }
    auto ans = lanes.round(std::move(rqs), spans);
    rqs.assign(kLanes, std::nullopt);
    for (std::size_t i = 0; i < kLanes; ++i) {
      alive[i] = ok(ans[i]);
      rep.check("exchange.lock_ok", alive[i], why(ans[i]));
      if (!alive[i]) continue;
      xid[i] = ans[i].rs->value;
      rqs[i] = make_rq(rpc::Op::kSettle, sellers[i], xid[i]);
    }
    if (w != nullptr) w->note_tx_round();
    ans = lanes.round(std::move(rqs), spans);
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (!alive[i]) continue;
      alive[i] = ok(ans[i]);
      rep.check("exchange.settle_ok", alive[i], why(ans[i]));
    }
    if (w != nullptr) w->note_tx_round();

    const auto settled = static_cast<std::uint64_t>(chain::ExchangeState::kSettled);
    const auto locked = static_cast<std::uint64_t>(chain::ExchangeState::kLocked);
    const auto final = follower_reads(
        lanes, d, alive, spans,
        [&](std::size_t i) { return make_rq(rpc::Op::kReadExchange, 0, xid[i]); },
        [&](std::size_t i, const Lanes::Answer& a) {
          // A follower that has not applied the lock's block yet does
          // not know the exchange: not there yet, like kLocked.
          if (a.rs && a.rs->status == rpc::Status::kRejected) return 0;
          if (!ok(a)) {
            rep.check("exchange.read_ok", false, why(a));
            return -1;
          }
          if (a.rs->value == locked) return 0;  // follower not there yet
          const bool good = a.rs->value == settled && a.rs->aux == amount[i] &&
                            !a.rs->fr.is_zero();
          rep.check("exchange.settled_with_amount", good,
                    "exchange " + std::to_string(xid[i]) + " state " +
                        std::to_string(a.rs->value) + " amount " +
                        std::to_string(a.rs->aux));
          return good ? 1 : -1;
        });
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (w != nullptr) {
        ++rep.attempted;
        if (!alive[i]) ++rep.failed;
      }
      if (!alive[i]) continue;
      ++done;
      if (w != nullptr) clock.done(final[i], rep, spans);
    }
    return done;
  };

  if (sale_round(nullptr) != kLanes) {  // warm-up: one sale per lane
    throw std::runtime_error("exchange warm-up sale failed");
  }

  Window w(opt, rep, d, /*prefix_rounds=*/1, t0);
  while (w.begin_round()) w.end_round(sale_round(&w));
  w.finish();
  check_replica_agreement(d, rep);
  if (opt.trace) {
    run_probes(d.sys(), opt.seed, rep);
    run_audit_probe(d, opt.seed, rep);
  }
}

// --- transfer ----------------------------------------------------------------
//
// Four lanes, one principal each. One op is kTransfer to a seed-chosen
// peer (so lanes conflict on accounts), then kReadBalance from the
// follower until it shows the transfer's block; the balance read must
// equal the benchmark's own ledger of the generated stream.
void run_transfer(const Options& opt, Report& rep, Clock::time_point t0) {
  constexpr std::size_t kLanes = 4;
  constexpr std::uint64_t kDeposit = 1'000'000'000'000;
  crypto::Drbg in("zkbench-transfer", opt.seed);
  Deployment d(opt.workdir);
  Lanes lanes(d, kLanes);

  std::vector<std::uint64_t> handle(kLanes);
  std::map<std::uint64_t, std::uint64_t> expected;  // handle -> balance
  for (std::size_t i = 0; i < kLanes; ++i) {
    handle[i] = setup_call(lanes, make_rq(rpc::Op::kRegister, 0, kDeposit)).value;
    expected[handle[i]] = kDeposit;
  }
  // Self-test: the benchmark's ledger starts one unit off for lane 0.
  if (opt.inject == "wrong-balance") expected[handle[0]] += 1;
  std::vector<std::uint64_t> last_height(kLanes, 0);

  auto transfer_round = [&](Window* w) -> std::uint64_t {
    auto* spans = w != nullptr ? w->spans() : nullptr;
    std::vector<bool> alive(kLanes, true);
    const OpClock clock = OpClock::now(d);
    std::vector<std::optional<rpc::Request>> rqs(kLanes);
    std::vector<std::uint64_t> dest(kLanes), amount(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      dest[i] = handle[(i + 1 + in() % (kLanes - 1)) % kLanes];
      amount[i] = 1 + in() % 1'000;
      rqs[i] = make_rq(rpc::Op::kTransfer, handle[i], dest[i], amount[i]);
    }
    auto ans = lanes.round(std::move(rqs), spans);
    if (w != nullptr) w->note_tx_round();
    for (std::size_t i = 0; i < kLanes; ++i) {
      alive[i] = ok(ans[i]);
      rep.check("transfer.ok", alive[i], why(ans[i]));
      if (!alive[i]) continue;
      expected[handle[i]] -= amount[i];
      expected[dest[i]] += amount[i];
    }
    const std::uint64_t target = d.sys().chain().height();
    const auto final = follower_reads(
        lanes, d, alive, spans,
        [&](std::size_t i) { return make_rq(rpc::Op::kReadBalance, handle[i]); },
        [&](std::size_t i, const Lanes::Answer& a) {
          if (!ok(a)) {
            rep.check("transfer.read_ok", false, why(a));
            return -1;
          }
          const std::uint64_t h = a.rs->aux;
          rep.check("transfer.read_height_monotone", h >= last_height[i],
                    "follower read height went back from " +
                        std::to_string(last_height[i]) + " to " +
                        std::to_string(h));
          last_height[i] = std::max(last_height[i], h);
          if (h < target) return 0;  // follower not there yet
          const bool good = a.rs->value == expected[handle[i]];
          rep.check("transfer.balance_matches", good,
                    "handle " + std::to_string(handle[i]) + " read " +
                        std::to_string(a.rs->value) + " expected " +
                        std::to_string(expected[handle[i]]));
          return good ? 1 : -1;
        });
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (w != nullptr) {
        ++rep.attempted;
        if (!alive[i]) ++rep.failed;
      }
      if (!alive[i]) continue;
      ++done;
      if (w != nullptr) clock.done(final[i], rep, spans);
    }
    return done;
  };

  if (transfer_round(nullptr) != kLanes &&  opt.inject.empty()) {
    throw std::runtime_error("transfer warm-up round failed");
  }
  Window w(opt, rep, d, /*prefix_rounds=*/2, t0);
  while (w.begin_round()) w.end_round(transfer_round(&w));
  w.finish();
  check_replica_agreement(d, rep);

  // Final balances on the follower, then on the primary.
  for (const bool primary : {false, true}) {
    d.read_primary(primary);
    std::vector<std::optional<rpc::Request>> rqs(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      rqs[i] = make_rq(rpc::Op::kReadBalance, handle[i]);
    }
    const auto ans = lanes.round(std::move(rqs), nullptr);
    for (std::size_t i = 0; i < kLanes; ++i) {
      rep.check(primary ? "transfer.final_primary_balances"
                        : "transfer.final_follower_balances",
                ok(ans[i]) && ans[i].rs->value == expected[handle[i]],
                "handle " + std::to_string(handle[i]) + ": " +
                    (ok(ans[i]) ? std::to_string(ans[i].rs->value) : why(ans[i])) +
                    " vs expected " + std::to_string(expected[handle[i]]));
    }
  }
  d.read_primary(false);
  if (opt.trace) {
    run_probes(d.sys(), opt.seed, rep);
    run_audit_probe(d, opt.seed, rep);
  }
}

// --- audit -------------------------------------------------------------------
//
// A third-party traceability check, in-process (auditors verify public
// chain and storage state; they do not go through the operator's RPC).
// Set-up: the smallest seeded provenance DAG with a transformation edge
// — one published 2-entry dataset partitioned into two 1-entry leaves.
// One op is one verify_provenance_chain over a leaf (round-robin) plus a
// check that every proof of that chain is served intact by storage.
// Traced ops replace verify_provenance_chain by its individual
// verify_encryption / verify_transformation calls in the same order.
namespace {

class AuditDag {
 public:
  AuditDag(Deployment& d, std::uint64_t seed, const std::string& inject)
      : sys_(d.sys()), tp_(d.tp()) {
    crypto::Drbg in("zkbench-audit", seed);
    crypto::Drbg key_rng("zkbench-audit-owner", seed);
    const crypto::KeyPair owner = crypto::KeyPair::generate(key_rng);
    sys_.chain().create_account(owner, 1'000'000);
    std::vector<ff::Fr> data = {ff::Fr::from_u64(in() % 1'000'000),
                                ff::Fr::from_u64(in() % 1'000'000)};
    auto root = tp_.publish(owner, data);
    if (!root) throw std::runtime_error("audit publish failed");
    auto parts = tp_.partition(owner, *root, {1, 1});
    if (!parts || parts->size() != 2) {
      throw std::runtime_error("audit partition failed");
    }
    for (const auto& leaf : *parts) leaves_.push_back(leaf.token_id);
    // Every proof a leaf's chain rests on, with the bytes the registry
    // holds: the auditor requires the storage network to serve them.
    for (const std::uint64_t leaf : leaves_) {
      auto ids = sys_.nft().provenance(leaf);
      ids.push_back(leaf);
      for (const std::uint64_t id : ids) {
        if (const auto* e = tp_.encryption_record(id)) {
          proofs_of_[leaf].push_back({e->proof_cid, e->proof.to_bytes()});
        }
        if (const auto* t = tp_.transform_record(id)) {
          proofs_of_[leaf].push_back({t->proof_cid, t->proof.to_bytes()});
        }
      }
      chain_of_[leaf] = std::move(ids);
    }
    if (inject == "corrupt-proof") {
      // Self-test: the partition's pi_t blob is corrupted on every node.
      const storage::Cid cid = tp_.transform_record(leaves_[0])->proof_cid;
      for (std::size_t i = 0; i < sys_.storage().num_nodes(); ++i) {
        sys_.storage().node(i).corrupt(cid);
      }
    }
  }

  [[nodiscard]] std::size_t leaves() const { return leaves_.size(); }
  [[nodiscard]] double proofs_per_op() const {
    std::size_t proofs = 0;
    for (const auto& [leaf, ps] : proofs_of_) proofs += ps.size();
    return static_cast<double>(proofs) / static_cast<double>(leaves_.size());
  }

  struct Result {
    bool ok = false;
    double latency_ms = 0;
    double verify_ms = 0;  // verify_provenance_chain, or its calls' sum
  };

  // One op over the next leaf; checks go to `rep`. With `spans`, the
  // chain's verify calls are made (and timed) one by one.
  Result op(Report& rep, std::map<std::string, Span>* spans) {
    const std::uint64_t leaf = leaves_[next_++ % leaves_.size()];
    Result r;
    const auto start = Clock::now();
    bool verified = true;
    if (spans == nullptr) {
      verified = tp_.verify_provenance_chain(leaf);
      r.verify_ms = ms_between(start, Clock::now());
    } else {
      for (const std::uint64_t id : chain_of_[leaf]) {
        const auto s0 = Clock::now();
        verified = verified && tp_.verify_encryption(id);
        const auto s1 = Clock::now();
        verified = verified && tp_.verify_transformation(id);
        const auto s2 = Clock::now();
        (*spans)["core.verify_encryption_ms"].add(ms_between(s0, s1));
        if (tp_.transform_record(id) != nullptr) {
          (*spans)["core.verify_transformation_ms"].add(ms_between(s1, s2));
        }
        r.verify_ms += ms_between(s0, s2);
      }
    }
    bool stored = true;
    const auto f0 = Clock::now();
    for (const StoredProof& p : proofs_of_[leaf]) {
      const auto blob = sys_.storage().get(p.cid);
      stored = stored && blob && *blob == p.bytes;
    }
    const auto end = Clock::now();
    r.latency_ms = ms_between(start, end);
    if (spans != nullptr) {
      (*spans)["storage.fetch_ms"].add(ms_between(f0, end));
      (*spans)["trace.uncovered_ms"].add(r.latency_ms - r.verify_ms -
                                         ms_between(f0, end));
    }
    rep.check("audit.provenance_verifies", verified,
              "verify_provenance_chain(" + std::to_string(leaf) + ") false");
    rep.check("audit.proofs_stored_intact", stored,
              "a proof of leaf " + std::to_string(leaf) +
                  "'s chain is missing or altered in storage");
    r.ok = verified && stored;
    return r;
  }

 private:
  struct StoredProof {
    storage::Cid cid;
    std::vector<std::uint8_t> bytes;
  };

  core::ZkdetSystem& sys_;
  core::TransformationProtocol& tp_;
  std::vector<std::uint64_t> leaves_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> chain_of_;
  std::map<std::uint64_t, std::vector<StoredProof>> proofs_of_;
  std::size_t next_ = 0;
};

// Storage must neither repair nor detect tampering while it is audited,
// and the traced per-call spans must add up to the untraced
// verify_provenance_chain time: ops alternate between the two kinds, so
// the median ratio of neighbouring pairs cancels the host's speed drift.
void check_audit(const Counters& before, const Counters& after,
                 const std::vector<double>& whole_ms,
                 const std::vector<double>& parts_ms, Report& rep) {
  // Pairs the span-sum comparison needs before it is judged, and the
  // tolerance it is judged by.
  constexpr std::size_t kMinPairs = 5;
  constexpr double kTolerance = 1.2;
  rep.check("storage.no_repairs", after.repairs == before.repairs,
            "storage repaired replicas during the audit");
  rep.check("storage.no_tamper", after.tampers == before.tampers,
            "storage detected tampered replicas during the audit");
  const std::size_t pairs = std::min(whole_ms.size(), parts_ms.size());
  if (pairs < kMinPairs) return;
  std::vector<double> ratios;
  for (std::size_t i = 0; i < pairs; ++i) ratios.push_back(parts_ms[i] / whole_ms[i]);
  const double r = median(ratios);
  rep.layers["trace.audit_span_sum_ratio"] = r;
  rep.check("trace.audit_spans_add_up", r > 1 / kTolerance && r < kTolerance,
            "per-call span sum / verify_provenance_chain = " + std::to_string(r));
}

}  // namespace

void run_audit(const Options& opt, Report& rep, Clock::time_point t0) {
  Deployment d(opt.workdir);
  AuditDag dag(d, opt.seed, opt.inject);
  for (std::size_t i = 0; i < dag.leaves(); ++i) dag.op(rep, nullptr);  // warm-up

  std::vector<double> whole_ms;
  std::vector<double> parts_ms;
  const Counters before = d.counters();
  Window w(opt, rep, d, /*prefix_rounds=*/dag.leaves(), t0);
  while (w.begin_round()) {
    auto* spans = w.spans();
    const auto r = dag.op(rep, spans);
    ++rep.attempted;
    if (!r.ok) ++rep.failed;
    if (r.ok) rep.add_latency(r.latency_ms);
    (spans != nullptr ? parts_ms : whole_ms).push_back(r.verify_ms);
    w.end_round(r.ok ? 1 : 0);
  }
  w.finish();
  rep.exact["audit.proofs_per_op"] = dag.proofs_per_op();
  check_audit(before, d.counters(), whole_ms, parts_ms, rep);
  if (opt.trace) run_probes(d.sys(), opt.seed, rep);
}

void run_audit_probe(Deployment& d, std::uint64_t seed, Report& rep) {
  // Interleaved untraced / traced audit ops after a traced run's window.
  constexpr int kOpsPerKind = 10;
  AuditDag dag(d, seed, "");
  for (std::size_t i = 0; i < dag.leaves(); ++i) dag.op(rep, nullptr);  // warm-up
  std::map<std::string, Span> spans;
  std::vector<double> whole_ms;
  std::vector<double> parts_ms;
  const Counters before = d.counters();
  for (int i = 0; i < kOpsPerKind; ++i) {
    whole_ms.push_back(dag.op(rep, nullptr).verify_ms);
    parts_ms.push_back(dag.op(rep, &spans).verify_ms);
  }
  const Counters after = d.counters();
  for (const char* name : {"core.verify_encryption_ms",
                           "core.verify_transformation_ms", "storage.fetch_ms"}) {
    rep.layers[name] = spans[name].mean();
  }
  rep.layers["storage.repairs"] = static_cast<double>(after.repairs - before.repairs);
  rep.layers["storage.tamper_detections"] =
      static_cast<double>(after.tampers - before.tampers);
  check_audit(before, after, whole_ms, parts_ms, rep);
}

}  // namespace zkbench
