//! Seeded inputs: operand pools, pair selection, the Poisson schedule,
//! and the residue arithmetic the correctness gate runs on.
//!
//! Everything is a pure function of `(seed, index)`, so two commits time
//! the same operands, and nothing here draws random numbers while a
//! clock is running: a "fresh" operand is `pool[i % 64] + i`, a copy with
//! a digest no cache has seen.

use std::time::Duration;

use he_bigint::UBig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The correctness gate's modulus: the Mersenne prime `2^61 - 1`.
pub const RESIDUE_PRIME: u64 = (1 << 61) - 1;

/// Operands in the seeded pool fresh operands are derived from.
pub const POOL: usize = 64;

/// Operands of the pool that `served_reuse` draws its pairs from: they
/// all fit the serving cache's 128 entries, so every lookup hits.
pub const REUSE_POOL: u64 = 48;

/// Indices at and above this belong to warm-ups and ladder rungs, so no
/// timed product ever shares a fresh operand with them.
pub const WARM_BASE: u64 = 1 << 40;

/// `x mod (2^61 - 1)`, folding 64-bit limbs from the top (`2^64 = 8`).
pub fn residue(x: &UBig) -> u64 {
    x.as_limbs()
        .iter()
        .rev()
        .fold(0u64, |r, &limb| fold(u128::from(r) * 8 + u128::from(limb)))
}

/// `a * b mod (2^61 - 1)` for reduced `a`, `b`.
pub fn mul_residues(a: u64, b: u64) -> u64 {
    fold(u128::from(a) * u128::from(b))
}

/// Reduces `v < 2^122` modulo `2^61 - 1`.
fn fold(v: u128) -> u64 {
    let p = u128::from(RESIDUE_PRIME);
    let once = (v & p) + (v >> 61);
    let twice = ((once & p) + (once >> 61)) as u64;
    if twice >= RESIDUE_PRIME {
        twice - RESIDUE_PRIME
    } else {
        twice
    }
}

/// SplitMix64: the stateless hash behind pair selection and sampling.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which operands product `i` of a workload multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Two one-shot operands: three transforms per product.
    FreshFresh,
    /// One recurring operand times a one-shot partner (the paper's
    /// serving shape).
    FixedFresh,
    /// Seeded uniform pairs from [`REUSE_POOL`] recurring operands.
    ReusePairs,
}

/// One product's operands and the residue its result must have.
#[derive(Debug)]
pub struct Job {
    /// Left operand.
    pub a: UBig,
    /// Right operand.
    pub b: UBig,
    /// `a * b mod (2^61 - 1)`.
    pub expect: u64,
}

/// The seeded operand pool of one run.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    pool: Vec<UBig>,
    pool_residues: Vec<u64>,
    fixed: UBig,
    fixed_residue: u64,
}

impl Inputs {
    /// The pool for `seed` at `bits`-bit operands.
    pub fn new(seed: u64, bits: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        // One bit of headroom, so `pool[k] + i` never outgrows `bits`.
        let pool: Vec<UBig> = (0..POOL)
            .map(|_| UBig::random_bits(&mut rng, bits - 1))
            .collect();
        let fixed = UBig::random_bits(&mut rng, bits);
        Inputs {
            seed,
            pool_residues: pool.iter().map(residue).collect(),
            fixed_residue: residue(&fixed),
            pool,
            fixed,
        }
    }

    /// The seed the pool was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The recurring operand of [`Traffic::FixedFresh`].
    pub fn fixed(&self) -> &UBig {
        &self.fixed
    }

    /// Fresh operand `i` and its residue.
    pub fn fresh(&self, i: u64) -> (UBig, u64) {
        let k = (i % POOL as u64) as usize;
        let value = &self.pool[k] + &UBig::from(i);
        let residue = fold(u128::from(self.pool_residues[k]) + u128::from(i));
        (value, residue)
    }

    /// Product `i` of a workload with the given traffic shape.
    pub fn job(&self, traffic: Traffic, i: u64) -> Job {
        let ((a, ra), (b, rb)) = match traffic {
            Traffic::FreshFresh => (self.fresh(2 * i), self.fresh(2 * i + 1)),
            Traffic::FixedFresh => ((self.fixed.clone(), self.fixed_residue), self.fresh(i)),
            Traffic::ReusePairs => {
                let h = mix(self.seed ^ mix(i));
                let pick = |k: u64| {
                    let k = (k % REUSE_POOL) as usize;
                    (self.pool[k].clone(), self.pool_residues[k])
                };
                (pick(h), pick(h >> 32))
            }
        };
        Job {
            a,
            b,
            expect: mul_residues(ra, rb),
        }
    }

    /// Whether product `i` is in the seeded 1-in-64 sample compared
    /// bit-exact against `he-bigint` after the clock stops.
    pub fn sampled(&self, i: u64) -> bool {
        mix(self.seed.rotate_left(17) ^ i).is_multiple_of(64)
    }
}

/// Arrival offsets of a Poisson process at `rate_per_s` over `seconds`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x0a11_1a15));
    let mut at = 0.0f64;
    let mut arrivals = Vec::new();
    loop {
        // 53 uniform bits in (0, 1]: the logarithm is always finite.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        at += -u.ln() / rate_per_s;
        if at >= seconds {
            return arrivals;
        }
        arrivals.push(Duration::from_secs_f64(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residue_matches_big_division() {
        let inputs = Inputs::new(7, 4_000);
        for x in [
            UBig::zero(),
            UBig::from(RESIDUE_PRIME),
            inputs.fixed().clone(),
        ] {
            assert_eq!(residue(&x), x.div_rem_small(RESIDUE_PRIME).1);
        }
        let job = inputs.job(Traffic::FreshFresh, 3);
        assert_eq!(residue(&(&job.a * &job.b)), job.expect);
    }

    #[test]
    fn fresh_operands_never_repeat() {
        let inputs = Inputs::new(7, 4_000);
        assert_ne!(inputs.fresh(1).0, inputs.fresh(65).0);
        assert!(inputs.fresh(WARM_BASE + 63).0.bit_len() <= 4_000);
    }
}
