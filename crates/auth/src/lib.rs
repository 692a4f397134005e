//! # dft-auth — authentication substrate for the authenticated-Byzantine model
//!
//! Section 7 of the paper assumes an authentication mechanism: every node can
//! sign its messages, every node can verify every other node's signatures,
//! and a Byzantine node "cannot forge messages claiming that they are
//! forwarded from other nodes" (Section 2).  The paper treats signatures as
//! an abstract primitive; this crate supplies a simulated implementation with
//! exactly the property the algorithms consume:
//!
//! * [`KeyDirectory`] — deterministically generates one secret key per node
//!   and verifies any node's signature (the role of the PKI);
//! * [`Signer`] — the per-node signing capability handed to a node (honest
//!   or Byzantine); a Byzantine strategy only ever receives its *own*
//!   signer, so it cannot fabricate other nodes' endorsements;
//! * [`Signature`] — a keyed 64-bit MAC tag over a message digest;
//! * [`SignedValue`] — a value plus its signature chain, the unit of the
//!   Dolev–Strong broadcast and of the "authenticated common sets of values"
//!   in `AB-Consensus`;
//! * [`SignerSet`] — the bitset in which a signature walk finds a repeated
//!   signer in one step.
//!
//! The MAC uses a small non-cryptographic hash ([`hash`]); inside a closed
//! simulation this preserves unforgeability because key material never
//! reaches the adversary (see `DESIGN.md` for the substitution note).
//!
//! # Example
//!
//! ```
//! use dft_auth::{KeyDirectory, SignedValue};
//!
//! let directory = KeyDirectory::generate(4, 2024);
//!
//! // Node 0 originates a value, nodes 1 and 2 relay-and-countersign it.
//! let mut sv = SignedValue::originate(&directory.signer(0), 42);
//! sv.countersign(&directory.signer(1));
//! sv.countersign(&directory.signer(2));
//!
//! // Anyone can check the chain: three distinct valid signatures, source first.
//! assert!(sv.verify_chain_with_length(&directory, 3));
//!
//! // Tampering with the value invalidates every signature.
//! let mut tampered = sv.clone();
//! tampered.value = 41;
//! assert!(!tampered.verify_chain(&directory));
//! ```

#![warn(missing_docs)]

mod error;
pub mod hash;
mod keys;
mod signature;
mod signed;
mod signer_set;

pub use error::{AuthError, AuthResult};
pub use keys::{KeyDirectory, SecretKey, Signer, SignerId};
pub use signature::Signature;
pub use signed::{value_digest, SignedValue, DECISIVE_VALUES};
pub use signer_set::SignerSet;
