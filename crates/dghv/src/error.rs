//! Error type for the DGHV scheme.

use core::fmt;

use he_accel::MultiplyError;

/// Error from parameter validation, key generation or a homomorphic
/// product's backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DghvError {
    /// The parameter set violates a scheme constraint.
    InvalidParams {
        /// The violated constraint.
        reason: String,
    },
    /// Homomorphic evaluation exhausted the noise budget; the result of a
    /// further operation would no longer decrypt.
    NoiseBudgetExhausted {
        /// Estimated noise bits the operation would produce.
        would_be_bits: u32,
        /// The ceiling allowed by the parameters.
        ceiling_bits: u32,
    },
    /// The multiplication backend failed the product (capacity, a foreign
    /// operand handle, a closed or faulty serving front).
    Multiply(MultiplyError),
}

impl fmt::Display for DghvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DghvError::InvalidParams { reason } => {
                write!(f, "invalid DGHV parameters: {reason}")
            }
            DghvError::NoiseBudgetExhausted { would_be_bits, ceiling_bits } => write!(
                f,
                "noise budget exhausted: operation would reach {would_be_bits} bits, ceiling is {ceiling_bits}"
            ),
            DghvError::Multiply(e) => write!(f, "ciphertext product failed: {e}"),
        }
    }
}

impl std::error::Error for DghvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DghvError::Multiply(e) => Some(e),
            DghvError::InvalidParams { .. } | DghvError::NoiseBudgetExhausted { .. } => None,
        }
    }
}

impl From<MultiplyError> for DghvError {
    fn from(e: MultiplyError) -> DghvError {
        DghvError::Multiply(e)
    }
}
