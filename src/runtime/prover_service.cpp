#include "runtime/prover_service.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "fault/points.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace zkdet::runtime {

const char* prove_error_name(ProveError e) {
  switch (e) {
    case ProveError::kNone: return "none";
    case ProveError::kSrsTooSmall: return "srs-too-small";
    case ProveError::kUnsatisfiedWitness: return "unsatisfied-witness";
    case ProveError::kInjectedFault: return "injected-fault";
  }
  return "unknown";
}

ProverService::ProverService(const plonk::Srs& srs,
                             std::size_t key_cache_capacity)
    : srs_(srs), capacity_(std::max<std::size_t>(1, key_cache_capacity)) {
  // Warm the SRS's batch-normalized affine power table here, alongside
  // the proving/verifying-key cache: it is normalized once per SRS (one
  // field inversion for the whole vector) and then shared by every
  // commit() of every job this service runs, instead of showing up as
  // latency inside the first proof.
  (void)srs_.g1_powers_affine();
}

std::shared_ptr<const plonk::KeyPairResult> ProverService::keys_for(
    const std::string& circuit_id, const plonk::ConstraintSystem& cs) {
  std::shared_future<KeyPtr> wait_on;
  std::promise<KeyPtr> mine;
  {
    const MutexLock lk(m_);
    const auto it = index_.find(circuit_id);
    if (it != index_.end()) {
      counters::key_cache_hits.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      return it->second->second;
    }
    const auto fl = inflight_.find(circuit_id);
    if (fl != inflight_.end()) {
      counters::key_cache_hits.fetch_add(1, std::memory_order_relaxed);
      wait_on = fl->second;
    } else {
      counters::key_cache_misses.fetch_add(1, std::memory_order_relaxed);
      inflight_.emplace(circuit_id, mine.get_future().share());
    }
  }
  if (wait_on.valid()) return wait_on.get();

  // We own the miss: preprocess outside the lock.
  KeyPtr keys;
  if (auto result = plonk::preprocess(cs, srs_)) {
    keys = std::make_shared<const plonk::KeyPairResult>(std::move(*result));
  }
  {
    const MutexLock lk(m_);
    inflight_.erase(circuit_id);
    if (keys) {
      lru_.emplace_front(circuit_id, keys);
      index_[circuit_id] = lru_.begin();
      while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        counters::key_cache_evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  mine.set_value(keys);
  return keys;
}

std::shared_ptr<const plonk::KeyPairResult> ProverService::find_keys(
    const std::string& circuit_id) const {
  const MutexLock lk(m_);
  const auto it = index_.find(circuit_id);
  return it == index_.end() ? nullptr : it->second->second;
}

std::future<ProveOutcome> ProverService::submit_typed(ProofJob job) {
  counters::jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  auto run = [this, job = std::move(job)]() mutable -> ProveOutcome {
    ProveOutcome out;
    out.attempts = 1;
    // Fail-point: the worker executing this job dies mid-proof. The
    // job's result is a typed, retryable error — never a lost future.
    if (fault::fire(fault::points::kProverJob)) {
      out.error = ProveError::kInjectedFault;
    } else if (const auto keys = keys_for(job.circuit_id, *job.cs); !keys) {
      out.error = ProveError::kSrsTooSmall;
    } else {
      out.proof = plonk::prove(keys->pk, *job.cs, srs_, job.witness, job.rng);
      if (!out.proof) out.error = ProveError::kUnsatisfiedWitness;
    }
    counters::jobs_completed.fetch_add(1, std::memory_order_relaxed);
    if (!out.proof) {
      counters::jobs_failed.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  };
  auto task =
      std::make_shared<std::packaged_task<ProveOutcome()>>(std::move(run));
  auto fut = task->get_future();
  auto& pool = ThreadPool::instance();
  if (pool.concurrency() <= 1 || ThreadPool::on_worker_thread()) {
    (*task)();  // no workers, or we are one: run inline instead of blocking
  } else {
    pool.submit([task] { (*task)(); });
  }
  return fut;
}

std::future<std::optional<plonk::Proof>> ProverService::submit(ProofJob job) {
  // Untyped view of submit_typed for callers that only need the proof.
  auto typed = std::make_shared<std::future<ProveOutcome>>(
      submit_typed(std::move(job)));
  return std::async(std::launch::deferred, [typed] {
    return typed->get().proof;
  });
}

std::optional<plonk::Proof> ProverService::prove(ProofJob job) {
  return submit_typed(std::move(job)).get().proof;
}

ProveOutcome ProverService::prove_with_retry(const ProofJob& job,
                                             RetryPolicy policy) {
  // Bounded by construction: Backoff grants at most max_attempts and
  // records a deterministic jittered delay per retry (never slept).
  Backoff backoff(policy.backoff());
  ProveOutcome out;
  while (backoff.next_attempt()) {
    ProveOutcome step = submit_typed(job).get();  // job copied per attempt
    out.proof = std::move(step.proof);
    out.error = step.error;
    out.attempts += step.attempts;
    if (out.proof || out.error != ProveError::kInjectedFault) break;
  }
  out.backoff_us = backoff.total_delay_us();
  return out;
}

bool ProverService::batch_verify(std::span<const plonk::BatchEntry> entries) {
  return batch_verify_attributed(entries).all_ok();
}

plonk::BatchResult ProverService::batch_verify_attributed(
    std::span<const plonk::BatchEntry> entries) {
  counters::batch_verifications.fetch_add(1, std::memory_order_relaxed);
  counters::proofs_verified.fetch_add(entries.size(),
                                      std::memory_order_relaxed);
  ScopedTimer timer(counters::verify_ns);
  return plonk::batch_verify_attributed(entries);
}

std::size_t ProverService::key_cache_size() const {
  const MutexLock lk(m_);
  return lru_.size();
}

}  // namespace zkdet::runtime
