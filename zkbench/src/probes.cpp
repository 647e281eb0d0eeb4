// Per-layer probes of the traced run: timed calls into the public
// functions of ff, ec, plonk and crypto, at the sizes the workloads use
// (pi_k: n-point MSM, 8n-point coset NTT, one proof) and on inputs drawn
// from the workload seed. Each probe reports the median of a few calls.
#include <cstdint>
#include <functional>
#include <vector>

#include "core/circuits.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "ec/msm.hpp"
#include "ec/pairing.hpp"
#include "harness.hpp"

namespace zkbench {

namespace {

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    xs.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(xs));
}

}  // namespace

void run_probes(core::ZkdetSystem& sys, std::uint64_t seed, Report& rep) {
  crypto::Drbg rng("zkbench-probes", seed);
  auto& l = rep.layers;
  bool sane = true;

  // ff: one field multiplication, from a dependent chain of 2^20.
  {
    constexpr int kMuls = 1 << 20;
    const ff::Fr y = rng.random_fr();
    ff::Fr x = rng.random_fr();
    l["ff.fr_mul_ns"] = median_ms(5, [&] {
                          for (int i = 0; i < kMuls; ++i) x *= y;
                        }) * 1e6 / kMuls;
    sane = sane && !x.is_zero();
  }

  // plonk / ec / ff at pi_k's sizes.
  const auto bld = core::build_key_circuit(rng.random_fr(), rng.random_fr(),
                                           rng.random_fr());
  const auto& keys = sys.keys_for("pi_k", bld.cs());
  const auto& pk = keys.pk;
  {
    std::vector<ff::Fr> scalars(pk.n);
    for (auto& s : scalars) s = rng.random_fr();
    const auto bases = sys.srs().g1_powers_affine().first(pk.n);
    ec::G1 acc;
    l["ec.msm_ms"] = median_ms(3, [&] { acc = ec::msm(scalars, bases); });
    sane = sane && !acc.is_identity();
  }
  {
    std::vector<ff::Fr> evals(pk.ext_domain->size());
    for (auto& e : evals) e = rng.random_fr();
    l["ff.ntt_ms"] = median_ms(3, [&] {
      auto v = evals;
      pk.ext_domain->coset_fft(v, pk.coset_shift);
    });
  }
  std::optional<plonk::Proof> proof;
  l["plonk.prove_ms"] = median_ms(3, [&] {
    proof = plonk::prove(pk, bld.cs(), sys.srs(), bld.witness(), rng);
  });
  sane = sane && proof.has_value();
  if (proof) {
    const auto publics = bld.cs().extract_public_inputs(bld.witness());
    bool verified = true;
    l["plonk.verify_ms"] = median_ms(5, [&] {
      // zkdet-lint: allow(unbatched-verify) benchmark probe of verify()
      verified = verified && plonk::verify(keys.vk, publics, *proof);
    });
    sane = sane && verified;
  }
  {
    const ec::G1 p = ec::g1_mul_generator(rng.random_fr());
    const ec::G2 q = ec::g2_mul_generator(rng.random_fr());
    l["ec.pairing_ms"] = median_ms(5, [&] { (void)ec::pairing(p, q); });
  }

  // crypto: Schnorr over 64-byte transaction-sized messages.
  {
    const crypto::KeyPair keys_s = crypto::KeyPair::generate(rng);
    std::vector<std::uint8_t> msg(64);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng());
    crypto::Signature sig;
    l["crypto.schnorr_sign_us"] =
        median_ms(21, [&] { sig = crypto::schnorr_sign(keys_s, msg, rng); }) * 1e3;
    bool verified = true;
    l["crypto.schnorr_verify_us"] = median_ms(21, [&] {
                                      verified = verified &&
                                                 crypto::schnorr_verify(keys_s.pk, msg, sig);
                                    }) * 1e3;
    sane = sane && verified;
  }
  rep.check("probes.results_valid", sane, "a probe produced a wrong result");
}

}  // namespace zkbench
