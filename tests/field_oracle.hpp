// Reference modular arithmetic for differential checks of the Montgomery
// field: plain double-and-add over U256, sharing no code with
// Fp_::mont_mul. Slow (hundreds of additions per product), exact, and
// obviously correct. Used by test_field.cpp and fuzz/fuzz_u256.cpp.
#pragma once

#include "ff/u256.hpp"

namespace zkdet::ff::oracle {

// (a + b) mod p for a, b < p.
inline U256 add_mod(const U256& a, const U256& b, const U256& p) {
  U256 s;
  const std::uint64_t carry = u256_add(s, a, b);
  if (carry != 0 || u256_geq(s, p)) u256_sub(s, s, p);
  return s;
}

// a * b mod p for a, b < p, scanning b from its top bit.
inline U256 mul_mod(const U256& a, const U256& b, const U256& p) {
  U256 acc{};
  for (std::size_t i = b.bit_length(); i-- > 0;) {
    acc = add_mod(acc, acc, p);
    if (b.bit(i)) acc = add_mod(acc, a, p);
  }
  return acc;
}

// R = 2^256 mod p, by 256 modular doublings of 1.
inline U256 mont_r(const U256& p) {
  U256 r{1};
  for (int i = 0; i < 256; ++i) r = add_mod(r, r, p);
  return r;
}

// True iff `out` is the canonical Montgomery product of the raw values
// a, b < p: out < p and out * R == a * b (mod p). R is invertible mod p,
// so exactly one such `out` exists.
inline bool is_mont_product(const U256& out, const U256& a, const U256& b,
                            const U256& p) {
  if (u256_geq(out, p)) return false;
  return mul_mod(out, mont_r(p), p) == mul_mod(a, b, p);
}

}  // namespace zkdet::ff::oracle
