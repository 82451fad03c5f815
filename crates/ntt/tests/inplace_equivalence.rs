//! The equivalence matrix: one engine, two oracles and the definition all
//! compute the same transform — forward and inverse, allocating and in
//! place — on every shape the crate plans.
//!
//! Each row is a radix list. [`MixedRadixPlan`] executes it as the paper's
//! Eq. 1 recursion; its product is the length [`Radix2kPlan`] (the
//! production engine) and [`Radix2Plan`] (the layer-at-a-time oracle) plan
//! when it is a power of two; `naive::dft` is the `O(n²)` definition.
//! All four share the canonical root chain, so spectra must be
//! **bit-identical**, not merely equivalent.
//!
//! The in-place forms run twice over one reused [`NttScratch`]: the pool
//! hands back buffers with unspecified contents (`take_any`), so reuse
//! across calls and across shapes is exactly where stale-data bugs would
//! hide.

use he_field::Fp;
use he_ntt::kernels::Direction;
use he_ntt::{naive, MixedRadixPlan, NttScratch, Radix2Plan, Radix2kPlan};
use proptest::prelude::*;

/// Radix lists, outermost stage first. The power-of-two lengths cover
/// every shape of compiled `deg` schedule — single pass, balanced, and the
/// uneven ones (128 → `[4, 3]`, 512 → `[5, 4]`, 2048 → `[6, 5]`) — and
/// `[3, 5]` is the non-power-of-two case only the recursion plans.
const SHAPES: &[&[usize]] = &[
    &[2],
    &[4, 2],
    &[64],
    &[16, 8],
    &[8, 64],
    &[64, 16],
    &[16, 64],
    &[32, 64],
    &[3, 5],
];

fn arb_vec(n: usize) -> impl Strategy<Value = Vec<Fp>> {
    proptest::collection::vec(any::<u64>().prop_map(Fp::new), n..=n)
}

/// Runs `run(data, first)` on a copy of `input` and undoes it with the
/// opposite direction, twice, checking every step.
fn check_in_place(
    label: &str,
    input: &[Fp],
    expected: &[Fp],
    first: Direction,
    mut run: impl FnMut(&mut [Fp], Direction),
) {
    let back = match first {
        Direction::Forward => Direction::Inverse,
        Direction::Inverse => Direction::Forward,
    };
    let mut data = input.to_vec();
    for round in 0..2 {
        run(&mut data, first);
        assert_eq!(data, expected, "{label} {first:?}, round {round}");
        run(&mut data, back);
        assert_eq!(data, input, "{label} {first:?} undone, round {round}");
    }
}

/// One row of the matrix on one input.
fn check_shape(radices: &[usize], input: &[Fp], scratch: &mut NttScratch) {
    let recursion = MixedRadixPlan::new(radices).expect("shape divides p - 1");
    let n = recursion.len();
    let omega = recursion.omega();
    let input = &input[..n];
    let spectrum = naive::dft(input, omega);
    // Every inverse is checked on `input` itself (not on a spectrum), so a
    // forward bug cannot mask an inverse one.
    let inverse = naive::idft(input, omega);
    let both = [
        (Direction::Forward, &spectrum),
        (Direction::Inverse, &inverse),
    ];

    assert_eq!(recursion.forward(input), spectrum, "{radices:?} recursion");
    assert_eq!(recursion.inverse(input), inverse, "{radices:?} recursion");
    for (first, expected) in both {
        check_in_place("recursion", input, expected, first, |d, dir| match dir {
            Direction::Forward => recursion.forward_into(d, scratch),
            Direction::Inverse => recursion.inverse_into(d, scratch),
        });
    }

    if !n.is_power_of_two() {
        return;
    }
    let engine = Radix2kPlan::new(n).expect("power of two");
    let radix2 = Radix2Plan::new(n).expect("power of two");
    assert_eq!(engine.omega(), omega, "one canonical root chain");
    assert_eq!(radix2.omega(), omega, "one canonical root chain");
    assert_eq!(engine.forward(input), spectrum, "{radices:?} engine");
    assert_eq!(engine.inverse(input), inverse, "{radices:?} engine");
    assert_eq!(radix2.forward(input), spectrum, "{radices:?} radix-2");
    assert_eq!(radix2.inverse(input), inverse, "{radices:?} radix-2");
    for (first, expected) in both {
        check_in_place("engine", input, expected, first, |d, dir| {
            engine.transform_in_place(d, dir).expect("length matches")
        });
        check_in_place("radix-2", input, expected, first, |d, dir| {
            match dir {
                Direction::Forward => radix2.forward_in_place(d),
                Direction::Inverse => radix2.inverse_in_place(d),
            }
            .expect("length matches")
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_oracles_and_definition_agree_on_every_shape(v in arb_vec(2048)) {
        // One scratch across every shape and both directions, as the
        // product stack shares one pool across everything it runs.
        let mut scratch = NttScratch::new();
        for radices in SHAPES {
            check_shape(radices, &v, &mut scratch);
        }
    }
}

/// The paper's size is too large for proptest cases (and for the `O(n²)`
/// definition); cover it with two deterministic patterns across the
/// engine, its 64K-pinned wrapper, and both oracles on the same root.
#[test]
fn the_matrix_holds_at_64k() {
    use he_ntt::{Ntt64k, N64K};
    let pinned = Ntt64k::new();
    let engine = Radix2kPlan::new(N64K).unwrap();
    let radix2 = Radix2Plan::new(N64K).unwrap();
    let recursion = MixedRadixPlan::new(&[64, 64, 16]).unwrap();
    assert_eq!(
        engine.omega(),
        pinned.omega(),
        "root_of_unity(64K) is omega_64k"
    );
    let mut scratch = NttScratch::new();
    let mut impulse = vec![Fp::ZERO; N64K];
    impulse[1] = Fp::new(7);
    let noise: Vec<Fp> = (0..N64K as u64)
        .map(|i| Fp::new(i.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xbeef))
        .collect();
    for v in [impulse, noise] {
        let spectrum = radix2.forward(&v);
        assert_eq!(engine.forward(&v), spectrum);
        assert_eq!(pinned.forward(&v), spectrum);
        assert_eq!(recursion.forward(&v), spectrum);
        assert_eq!(engine.inverse(&v), radix2.inverse(&v));
        assert_eq!(pinned.inverse(&v), radix2.inverse(&v));
        assert_eq!(recursion.inverse(&v), radix2.inverse(&v));
        check_in_place(
            "Ntt64k",
            &v,
            &spectrum,
            Direction::Forward,
            |d, dir| match dir {
                Direction::Forward => pinned.forward_into(d, &mut scratch),
                Direction::Inverse => pinned.inverse_into(d, &mut scratch),
            },
        );
    }
    assert_eq!(scratch.pooled(), 0, "the engine never touches the scratch");
}
