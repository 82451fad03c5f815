//! SIMD over encrypted bits, batch-first: the batched DGHV variant (the
//! paper's reference \[22\], Coron–Lepoint–Tibouchi) with many plaintext
//! slots per ciphertext, driven through the batch evaluation API — the
//! recurring operand of a slot-wise AND sweep is prepared **once** and its
//! forward transform amortized over the whole batch, exactly the traffic
//! shape the accelerator targets.
//!
//! Run with: `cargo run --release --example simd_batch`

use he_accel::{Karatsuba, SsaSoftware};
use he_dghv::batch::{BatchCiphertext, BatchParams, BatchSecretKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), he_dghv::DghvError> {
    let params = BatchParams::tiny();
    println!(
        "batched DGHV: {} slots of {}-bit secrets in {}-bit ciphertexts",
        params.slots, params.base.eta, params.base.gamma
    );

    let mut rng = StdRng::seed_from_u64(99);
    let key = BatchSecretKey::generate(params, &mut rng)?;

    // A server-side sweep: one encrypted mask ANDed against a batch of
    // encrypted records — slots × batch plaintext ANDs on batch ciphertext
    // products, with the mask's transform paid once.
    let mask = [true, false, true, true];
    let records = [
        [true, true, false, false],
        [false, true, true, false],
        [true, true, true, true],
    ];
    println!("encrypting mask    = {mask:?}");
    let cmask = key.encrypt(&mask, &mut rng);
    let cts: Vec<BatchCiphertext> = records
        .iter()
        .map(|bits| {
            println!("encrypting record  = {bits:?}");
            key.encrypt(bits, &mut rng)
        })
        .collect();

    println!(
        "\nANDing the mask against {} records ({} plaintext bits per ciphertext product)…",
        cts.len(),
        key.slots()
    );
    // The SSA backend caches the mask's forward spectrum across the batch;
    // the classical backend cross-checks the results bit-for-bit.
    let ssa = SsaSoftware::for_operand_bits(params.base.gamma as usize)?;
    let products = key.mul_many(&ssa, &cmask, &cts)?;
    let reference = key.mul_many(&Karatsuba, &cmask, &cts)?;
    assert_eq!(products, reference, "cached batch must be bit-exact");

    for (product, bits) in products.iter().zip(&records) {
        let decrypted = key.decrypt(product);
        let expected: Vec<bool> = mask.iter().zip(bits).map(|(m, b)| m & b).collect();
        println!("decrypted mask AND {bits:?} = {decrypted:?}");
        assert_eq!(decrypted, expected);
    }

    // Slot-wise OR still composes from the batch results:
    // a OR b = (a AND b) XOR a XOR b.
    let or = key.add(&key.add(&products[0], &cmask), &cts[0]);
    let expected: Vec<bool> = mask.iter().zip(&records[0]).map(|(m, b)| m | b).collect();
    assert_eq!(key.decrypt(&or), expected);
    println!(
        "\nall {} slots correct across the batch — {} plaintext ANDs on {} ciphertext products",
        key.slots(),
        key.slots() * products.len(),
        products.len()
    );
    Ok(())
}
