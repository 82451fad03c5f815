//! DGHV somewhat-homomorphic encryption over the integers — the workload
//! that motivates the accelerator.
//!
//! The paper targets "the most time consuming operation used by the
//! encryption primitive, large integer multiplication … We assume to deal
//! with operands of 786,432 bits, which correspond to the small security
//! parameter setting for DGHV adopted in various research papers"
//! (Section III). This crate implements the van Dijk–Gentry–Halevi–
//! Vaikuntanathan scheme (EUROCRYPT 2010) in its somewhat-homomorphic form:
//!
//! * **KeyGen**: secret `p` (odd, η bits); public elements
//!   `x_i = p·q_i + 2·r_i` with γ-bit `q_i·p` and ρ-bit noise `r_i`, plus an
//!   exact multiple `x_0 = p·q_0` used as the public modulus;
//! * **Encrypt** (bit `m`): `c = (m + 2r + 2·Σ_{i∈S} x_i) mod x_0`;
//! * **Decrypt**: `m = (c mods p) mod 2` with the centered remainder;
//! * **Add/Mul**: integer `+`/`×` modulo `x_0`, homomorphic for XOR/AND.
//!
//! Ciphertexts are γ-bit integers; homomorphic multiplication multiplies
//! two of them — exactly the 786,432-bit products the accelerator performs.
//! Every homomorphic AND takes its backend as an
//! [`he_accel::Multiplier`] — the accelerator's one product interface —
//! so the scheme runs unchanged on the classical algorithms, the software
//! SSA, the hardware simulator, or a serving fleet
//! ([`he_accel::ServedMultiplier`]); a backend failure surfaces as
//! [`DghvError::Multiply`].
//!
//! # Example
//!
//! ```
//! use he_dghv::{DghvParams, KeyPair};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let keys = KeyPair::generate(DghvParams::tiny(), &mut rng)?;
//! let a = keys.public().encrypt(true, &mut rng);
//! let b = keys.public().encrypt(false, &mut rng);
//! let xor = keys.public().add(&a, &b);
//! assert_eq!(keys.secret().decrypt(&xor), true); // 1 XOR 0
//! # Ok::<(), he_dghv::DghvError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod ciphertext;
pub mod circuits;
mod compress;
mod error;
mod keys;
mod ladder;
mod params;
mod serialize;

pub use ciphertext::Ciphertext;
pub use circuits::CircuitEvaluator;
pub use compress::{CompressedKeyPair, CompressedPublicKey};
pub use error::DghvError;
pub use keys::{KeyPair, PublicKey, SecretKey};
pub use ladder::ModulusLadder;
pub use params::DghvParams;
