//! Compressed DGHV keys and ciphertexts — Coron–Naccache–Tibouchi
//! (EUROCRYPT 2012), the paper's reference [34]: the public key stores a
//! seed plus small corrections instead of τ full γ-bit integers, and
//! evaluated ciphertexts are shrunk through a ladder of smaller moduli
//! before transmission.
//!
//! Run with: `cargo run --release --example key_compression`

use he_accel::Karatsuba;
use he_dghv::{CompressedKeyPair, DghvError, DghvParams, ModulusLadder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), DghvError> {
    let params = DghvParams::toy();
    println!(
        "DGHV toy setting: gamma = {} bits, eta = {}, tau = {} public elements",
        params.gamma, params.eta, params.tau
    );

    let mut rng = StdRng::seed_from_u64(34);
    let keys = CompressedKeyPair::generate(params, 0x5EED, &mut rng)?;
    let compressed = keys.compressed();

    let stored_kb = compressed.stored_bits() as f64 / 8192.0;
    let expanded_kb = compressed.expanded_bits() as f64 / 8192.0;
    println!("\nkey sizes:");
    println!("  uncompressed public key {expanded_kb:>10.1} KiB");
    println!("  compressed public key   {stored_kb:>10.1} KiB");
    println!(
        "  compression ratio       {:>10.1}x  (information bound ~ gamma/eta = {:.1}x)",
        compressed.compression_ratio(),
        params.gamma as f64 / params.eta as f64
    );

    println!("\nexpanding the seed back into a full public key…");
    let public = compressed.expand();
    assert_eq!(public.elements().len(), params.tau as usize);

    // The expanded key is a completely ordinary DGHV key.
    let backend = Karatsuba;
    let mut failures = 0;
    for a in [false, true] {
        for b in [false, true] {
            let ca = public.encrypt(a, &mut rng);
            let cb = public.encrypt(b, &mut rng);
            let xor = public.add(&ca, &cb);
            let and = public.mul(&backend, &ca, &cb)?;
            if keys.secret().decrypt(&xor) != (a ^ b) || keys.secret().decrypt(&and) != (a & b) {
                failures += 1;
            }
        }
    }
    assert_eq!(failures, 0);
    println!("homomorphic XOR/AND truth tables verified on the expanded key");

    // The other half of [34]: shrink an *evaluated* ciphertext through a
    // ladder of smaller exact multiples of p before sending it back.
    println!("\nciphertext laddering (result compression):");
    let ladder = ModulusLadder::generate(keys.secret(), &mut rng);
    let ca = public.encrypt(true, &mut rng);
    let cb = public.encrypt(true, &mut rng);
    let result = public.mul(&backend, &ca, &cb)?;
    println!("  evaluated result       {:>8} bits", result.bit_len());
    for level in 0..ladder.num_rungs() {
        let small = ladder.compress(&result, level);
        assert!(keys.secret().decrypt(&small)); // 1 AND 1
        println!(
            "  rung {level}                 {:>8} bits (still decrypts)",
            small.bit_len()
        );
    }

    // At the paper's scale the ratio approaches gamma/eta ~ 500x.
    let paper = DghvParams::small_paper();
    println!(
        "\nat the paper's scale (gamma = {}), the same construction stores ~{:.0}x less",
        paper.gamma,
        paper.gamma as f64 / paper.eta as f64
    );
    Ok(())
}
