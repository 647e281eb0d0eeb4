// Montgomery-form prime field, templated on a parameter struct.
//
// A parameter struct provides the modulus and a multiplicative generator:
//
//   struct MyParams {
//     static constexpr U256 MODULUS{...};   // odd, top limb < 2^63 - 1
//     static constexpr std::uint64_t GENERATOR = 5;  // of the full group
//     static constexpr std::size_t TWO_ADICITY = ...; // 2-adic valuation of p-1
//   };
//
// R = 2^256 mod p, R^2 mod p and -p^-1 mod 2^64 are derived constexpr.
// Elements are kept in Montgomery form; multiplication is the no-carry
// CIOS variant over unsigned __int128 limb products, which needs the
// modulus's top limb below 2^63 - 1 (checked at compile time).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ff/u256.hpp"

namespace zkdet::ff {

template <typename Params>
class Fp_ {
 public:
  static constexpr U256 MOD = Params::MODULUS;
  static constexpr std::uint64_t INV = mont_inv64(Params::MODULUS.limb[0]);
  static constexpr std::size_t TWO_ADICITY = Params::TWO_ADICITY;

  constexpr Fp_() = default;

  [[nodiscard]] static Fp_ zero() { return Fp_{}; }
  [[nodiscard]] static Fp_ one() { return from_raw(r()); }

  [[nodiscard]] static Fp_ from_u64(std::uint64_t v) {
    return from_canonical(U256{v});
  }

  // Interpret v (already reduced mod p, canonical form) as a field element.
  [[nodiscard]] static Fp_ from_canonical(const U256& v) {
    Fp_ out;
    out.v_ = mont_mul(v, r2());
    return out;
  }

  [[nodiscard]] static Fp_ from_dec(std::string_view s) {
    U256 v = u256_from_dec(s);
    while (u256_geq(v, MOD)) u256_sub(v, v, MOD);
    return from_canonical(v);
  }

  // Construct from an arbitrary 256-bit value, reducing mod p.
  [[nodiscard]] static Fp_ reduce_from(const U256& v) {
    U256 x = v;
    while (u256_geq(x, MOD)) u256_sub(x, x, MOD);
    return from_canonical(x);
  }

  // The raw Montgomery representation (for serialization of constants).
  [[nodiscard]] static constexpr Fp_ from_raw(const U256& mont) {
    Fp_ out;
    out.v_ = mont;
    return out;
  }
  [[nodiscard]] const U256& raw() const { return v_; }

  [[nodiscard]] U256 to_canonical() const { return mont_mul(v_, U256{1}); }
  [[nodiscard]] std::string to_dec() const { return u256_to_dec(to_canonical()); }
  [[nodiscard]] std::string to_hex() const { return u256_to_hex(to_canonical()); }

  [[nodiscard]] bool is_zero() const { return v_.is_zero(); }
  bool operator==(const Fp_& o) const { return v_ == o.v_; }
  bool operator!=(const Fp_& o) const { return !(v_ == o.v_); }

  Fp_ operator+(const Fp_& o) const {
    Fp_ out;
    const std::uint64_t carry = u256_add(out.v_, v_, o.v_);
    if (carry != 0 || u256_geq(out.v_, MOD)) u256_sub(out.v_, out.v_, MOD);
    return out;
  }

  Fp_ operator-(const Fp_& o) const {
    Fp_ out;
    const std::uint64_t borrow = u256_sub(out.v_, v_, o.v_);
    if (borrow != 0) u256_add(out.v_, out.v_, MOD);
    return out;
  }

  Fp_ operator-() const {
    if (is_zero()) return *this;
    Fp_ out;
    u256_sub(out.v_, MOD, v_);
    return out;
  }

  Fp_ operator*(const Fp_& o) const { return from_raw(mont_mul(v_, o.v_)); }

  Fp_& operator+=(const Fp_& o) { return *this = *this + o; }
  Fp_& operator-=(const Fp_& o) { return *this = *this - o; }
  Fp_& operator*=(const Fp_& o) { return *this = *this * o; }

  [[nodiscard]] Fp_ square() const { return *this * *this; }

  [[nodiscard]] Fp_ dbl() const { return *this + *this; }

  [[nodiscard]] Fp_ pow(const U256& e) const {
    Fp_ result = one();
    const std::size_t n = e.bit_length();
    for (std::size_t i = n; i-- > 0;) {
      result = result.square();
      if (e.bit(i)) result = result * *this;
    }
    return result;
  }

  // Multiplicative inverse via Fermat's little theorem; inverse of zero is
  // zero (callers that care must check is_zero()).
  [[nodiscard]] Fp_ inverse() const {
    U256 e;
    u256_sub(e, MOD, U256{2});
    return pow(e);
  }

  // Generator of the full multiplicative group (from Params).
  [[nodiscard]] static Fp_ generator() { return from_u64(Params::GENERATOR); }

  // Primitive 2^TWO_ADICITY-th root of unity.
  [[nodiscard]] static Fp_ two_adic_root() {
    U256 e;
    u256_sub(e, MOD, U256{1});
    for (std::size_t i = 0; i < TWO_ADICITY; ++i) {
      // e >>= 1
      for (std::size_t j = 0; j < 4; ++j) {
        e.limb[j] >>= 1;
        if (j + 1 < 4) e.limb[j] |= e.limb[j + 1] << 63;
      }
    }
    return generator().pow(e);
  }

 private:
  static constexpr U256 r() { return u256_pow2k_mod(256, Params::MODULUS); }
  static constexpr U256 r2() { return u256_pow2k_mod(512, Params::MODULUS); }

  // "No-carry" CIOS Montgomery multiplication (the gnark variant):
  // returns a*b*R^-1 mod p, canonical. When the top limb of p is below
  // 2^63 - 1, the running sum t stays below 2p < 2^256 after every outer
  // step, so the two carry chains of a step fold into t[3] without the
  // fifth and sixth words plain CIOS keeps, and one conditional subtract
  // at the end reduces t into [0, p).
  static_assert(MOD.limb[3] < 0x7fffffffffffffffULL,
                "no-carry CIOS needs a spare top bit in the modulus");
  static U256 mont_mul(const U256& a, const U256& b) {
    using u128 = unsigned __int128;
    std::uint64_t t[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < 4; ++i) {
      // t += a * b[i] (carry A) interleaved with t = (t + m * p) / 2^64
      // (carry C), where m = t[0] * -p^-1 mod 2^64 clears the low word.
      u128 cur = static_cast<u128>(a.limb[0]) * b.limb[i] + t[0];
      std::uint64_t carry_a = static_cast<std::uint64_t>(cur >> 64);
      const std::uint64_t t0 = static_cast<std::uint64_t>(cur);
      const std::uint64_t m = t0 * INV;
      cur = static_cast<u128>(m) * MOD.limb[0] + t0;
      std::uint64_t carry_c = static_cast<std::uint64_t>(cur >> 64);
      for (std::size_t j = 1; j < 4; ++j) {
        cur = static_cast<u128>(a.limb[j]) * b.limb[i] + t[j] + carry_a;
        carry_a = static_cast<std::uint64_t>(cur >> 64);
        cur = static_cast<u128>(m) * MOD.limb[j] +
              static_cast<std::uint64_t>(cur) + carry_c;
        carry_c = static_cast<std::uint64_t>(cur >> 64);
        t[j - 1] = static_cast<std::uint64_t>(cur);
      }
      t[3] = carry_a + carry_c;
    }
    U256 out{t[0], t[1], t[2], t[3]};
    if (u256_geq(out, MOD)) u256_sub(out, out, MOD);
    return out;
  }

  U256 v_{};  // Montgomery form
};

}  // namespace zkdet::ff
