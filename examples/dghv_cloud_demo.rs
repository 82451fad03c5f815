//! Computing on encrypted data in the cloud — the paper's motivating
//! scenario (Section I: "multiparty computation, medical applications,
//! financial computing, electronic voting").
//!
//! Part 1 (electronic voting): three voters encrypt their ballots with
//! DGHV; an untrusted server computes the majority homomorphically
//! (`maj(a,b,c) = ab ⊕ ac ⊕ bc`) without ever seeing a vote; only the key
//! holder can decrypt the tally.
//!
//! Part 2 (financial computing): two parties submit encrypted sealed bids;
//! the server selects the winning bid with an encrypted comparator and
//! bitwise multiplexers — it never learns either amount.
//!
//! Run with: `cargo run --release --example dghv_cloud_demo`

use he_accel::SsaSoftware;
use he_dghv::{
    circuits::{decrypt_number, encrypt_number},
    Ciphertext, CircuitEvaluator, DghvError, DghvParams, KeyPair, PublicKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The "cloud": sees only ciphertexts and the public key.
/// `maj(a,b,c) = ab ⊕ ac ⊕ bc` — three homomorphic ANDs, two XORs.
fn tally_majority(
    pk: &PublicKey,
    backend: &SsaSoftware,
    votes: &[Ciphertext; 3],
) -> Result<Ciphertext, DghvError> {
    let gates = CircuitEvaluator::new(pk, backend);
    let ab = gates.and(&votes[0], &votes[1])?;
    let ac = gates.and(&votes[0], &votes[2])?;
    let bc = gates.and(&votes[1], &votes[2])?;
    Ok(gates.xor(&gates.xor(&ab, &ac), &bc))
}

fn main() -> Result<(), DghvError> {
    let params = DghvParams::toy();
    println!(
        "DGHV parameters: rho={} eta={} gamma={} tau={} (toy security, {}-bit ciphertexts)",
        params.rho, params.eta, params.gamma, params.tau, params.gamma
    );

    let mut rng = StdRng::seed_from_u64(3);
    println!("key holder: generating keys…");
    let keys = KeyPair::generate(params, &mut rng)?;

    let ballots = [true, false, true];
    println!("voters: encrypting ballots {ballots:?}…");
    let votes = [
        keys.public().encrypt(ballots[0], &mut rng),
        keys.public().encrypt(ballots[1], &mut rng),
        keys.public().encrypt(ballots[2], &mut rng),
    ];
    for (i, v) in votes.iter().enumerate() {
        println!(
            "  ballot {i}: {} ciphertext bits, noise estimate {} bits",
            v.bit_len(),
            v.noise_bits()
        );
    }

    println!("cloud: tallying homomorphically (3 ciphertext multiplications on SSA)…");
    let backend = SsaSoftware::for_operand_bits(params.gamma as usize)?;
    let tally = tally_majority(keys.public(), &backend, &votes)?;
    println!(
        "  encrypted tally: {} bits, noise estimate {} / ceiling {} bits",
        tally.bit_len(),
        tally.noise_bits(),
        keys.public().noise_ceiling_bits()
    );

    let result = keys.secret().decrypt(&tally);
    let expected =
        (ballots[0] & ballots[1]) ^ (ballots[0] & ballots[2]) ^ (ballots[1] & ballots[2]);
    println!("key holder: decrypted majority = {result}");
    assert_eq!(
        result, expected,
        "homomorphic tally disagrees with plaintext"
    );
    println!("matches the plaintext majority ({expected}) — the cloud never saw a vote.");

    // Part 2: a sealed-bid auction on 4-bit encrypted amounts.
    let (bid_a, bid_b) = (9u64, 11u64);
    let width = 4;
    println!("\nsealed bids: two parties encrypt {bid_a} and {bid_b} ({width}-bit amounts)…");
    let ea = encrypt_number(keys.public(), bid_a, width, &mut rng);
    let eb = encrypt_number(keys.public(), bid_b, width, &mut rng);

    println!("cloud: comparing bids and selecting the winner homomorphically…");
    let gates = CircuitEvaluator::new(keys.public(), &backend);
    let a_lt_b = gates.less_than(&ea, &eb, &mut rng)?;
    let winning_bits = ea
        .iter()
        .zip(&eb)
        .map(|(xa, xb)| gates.mux(&a_lt_b, xb, xa))
        .collect::<Result<Vec<_>, _>>()?;

    let winner_is_b = keys.secret().decrypt(&a_lt_b);
    let winning_bid = decrypt_number(keys.secret(), &winning_bits);
    println!(
        "key holder: winner = bidder {}, winning bid = {winning_bid}",
        if winner_is_b { "B" } else { "A" }
    );
    assert_eq!(winning_bid, bid_a.max(bid_b));
    assert_eq!(winner_is_b, bid_a < bid_b);
    println!("the cloud compared and selected without learning either amount.");
    Ok(())
}
