//! Content addresses: what identifies a stored artifact.
//!
//! PAS2P splits the methodology into signature *construction* (Stage A
//! on the base machine) and signature *execution* (Stage B on each
//! target). The store mirrors that split with two key shapes:
//!
//! * a **signature key** is the digest of everything construction
//!   consumed — the encoded trace bytes, the base machine preset, the
//!   analysis configuration, and the store format version. Same inputs,
//!   same key, so a signature is computed once per (run, machine,
//!   config) and every later request hits it;
//! * a **prediction key** extends a signature key with what execution
//!   adds — the target machine preset and the mapping policy.
//!
//! The configuration fingerprint hashes each threshold's exact bit
//! pattern (`f64::to_bits`), so any semantic config change — however
//! small — moves every key, which is precisely the "incremental
//! invalidation on config bumps" contract. Execution-only knobs that
//! cannot change the produced artifact (worker counts) are deliberately
//! excluded: the same signature served at `parallelism = 1` and `= 8`
//! must share one address.

use crate::digest::Sha256;
use pas2p_machine::MachineModel;
use pas2p_phases::SimilarityConfig;
use pas2p_signature::SignatureConfig;
use serde::{Deserialize, Serialize};

/// Version of the store's on-disk layout and key derivation. Bumping it
/// invalidates every existing entry (they are evicted at open).
pub const STORE_FORMAT_VERSION: u32 = 3;

/// The address of one stored artifact.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StoreKey {
    /// SHA-256 content address (64 hex chars).
    pub digest: String,
    /// The configuration fingerprint baked into the digest, kept
    /// alongside it so stale-config entries can be found and evicted
    /// without recomputing anything.
    pub fingerprint: String,
}

/// Hash of the analysis/construction configuration: every threshold
/// that can change a produced signature or prediction, over exact f64
/// bit patterns. `SimilarityConfig::parallelism` and
/// `SimilarityConfig::kernel` are excluded — both are execution knobs
/// with a byte-identical-output guarantee (the scalar oracle and the
/// SoA kernel produce the same artifact, `tests/kernel_equivalence.rs`).
pub fn config_fingerprint(
    similarity: &SimilarityConfig,
    signature: &SignatureConfig,
    per_event_seconds: f64,
) -> String {
    let mut h = Sha256::new();
    h.update(b"pas2p-config-v1\0");
    for bits in [
        similarity.compute_ratio.to_bits(),
        similarity.size_ratio.to_bits(),
        similarity.event_fraction.to_bits(),
        similarity.compute_floor.to_bits(),
        signature.relevance_threshold.to_bits(),
        signature.warmup_occurrences as u64,
        signature.measure_occurrences as u64,
        signature.disk_bandwidth.to_bits(),
        signature.ckpt_latency.to_bits(),
        signature.restart_latency.to_bits(),
        per_event_seconds.to_bits(),
    ] {
        h.update(&bits.to_be_bytes());
    }
    crate::digest::to_hex(&h.finish())
}

/// Canonical byte rendering of a machine preset. Spelled out field by
/// field (exact `f64` bit patterns, big-endian) rather than through a
/// serialization framework: the digest must not move when serialization
/// details — field order, number formatting — change.
fn machine_bytes(machine: &MachineModel) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(machine.name.as_bytes());
    out.push(0);
    for v in [
        machine.nodes,
        machine.sockets_per_node,
        machine.cores_per_socket,
    ] {
        out.extend_from_slice(&v.to_be_bytes());
    }
    for bits in [
        machine.compute.flops_per_sec.to_bits(),
        machine.compute.mem_bw.to_bits(),
    ] {
        out.extend_from_slice(&bits.to_be_bytes());
    }
    for net in [&machine.network, &machine.intra] {
        for bits in [
            net.latency.to_bits(),
            net.bandwidth.to_bits(),
            net.per_msg_overhead.to_bits(),
        ] {
            out.extend_from_slice(&bits.to_be_bytes());
        }
    }
    for bits in [
        machine.jitter.compute_sigma.to_bits(),
        machine.jitter.comm_sigma.to_bits(),
        machine.jitter.seed,
    ] {
        out.extend_from_slice(&bits.to_be_bytes());
    }
    out.extend_from_slice(machine.isa.to_string().as_bytes());
    out
}

fn segment(h: &mut Sha256, tag: &[u8], bytes: &[u8]) {
    // Length-prefixed, tagged segments: no two input splits collide.
    h.update(tag);
    h.update(&(bytes.len() as u64).to_be_bytes());
    h.update(bytes);
}

/// The signature key: `digest(trace bytes ‖ base machine ‖ config
/// fingerprint ‖ format version)`.
pub fn signature_key(trace_bytes: &[u8], base: &MachineModel, fingerprint: &str) -> StoreKey {
    let mut h = Sha256::new();
    segment(&mut h, b"sig\0", &STORE_FORMAT_VERSION.to_be_bytes());
    segment(&mut h, b"trace\0", trace_bytes);
    segment(&mut h, b"machine\0", &machine_bytes(base));
    segment(&mut h, b"config\0", fingerprint.as_bytes());
    StoreKey {
        digest: crate::digest::to_hex(&h.finish()),
        fingerprint: fingerprint.to_string(),
    }
}

/// The prediction key: a signature key extended with the execution
/// inputs (target machine, mapping policy).
pub fn prediction_key(signature: &StoreKey, target: &MachineModel, policy: &str) -> StoreKey {
    let mut h = Sha256::new();
    segment(&mut h, b"pred\0", &STORE_FORMAT_VERSION.to_be_bytes());
    segment(&mut h, b"sig-digest\0", signature.digest.as_bytes());
    segment(&mut h, b"target\0", &machine_bytes(target));
    segment(&mut h, b"policy\0", policy.as_bytes());
    StoreKey {
        digest: crate::digest::to_hex(&h.finish()),
        fingerprint: signature.fingerprint.clone(),
    }
}

/// The human-oriented alias of a signature entry: lets a service answer
/// "is (app, workload, nprocs, base) under this config already
/// analyzed?" without re-collecting the trace just to hash it. Aliases
/// are derived, never stored authoritative state — an index rebuild
/// regenerates them from entry metadata.
pub fn signature_alias(
    app: &str,
    workload: &str,
    nprocs: u32,
    base: &str,
    fingerprint: &str,
) -> String {
    format!("{app}\u{1f}{workload}\u{1f}{nprocs}\u{1f}{base}\u{1f}{fingerprint}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, cluster_b};

    #[test]
    fn fingerprint_ignores_parallelism() {
        let sig = SignatureConfig::default();
        let a = SimilarityConfig {
            parallelism: Some(1),
            ..SimilarityConfig::default()
        };
        let b = SimilarityConfig {
            parallelism: Some(8),
            ..SimilarityConfig::default()
        };
        assert_eq!(
            config_fingerprint(&a, &sig, 3e-6),
            config_fingerprint(&b, &sig, 3e-6)
        );
    }

    #[test]
    fn fingerprint_moves_on_any_threshold_change() {
        let sim = SimilarityConfig::default();
        let sig = SignatureConfig::default();
        let base = config_fingerprint(&sim, &sig, 3e-6);
        let bumped_sim = SimilarityConfig {
            size_ratio: 0.86,
            ..sim
        };
        assert_ne!(config_fingerprint(&bumped_sim, &sig, 3e-6), base);
        let bumped_sig = SignatureConfig {
            measure_occurrences: 25,
            ..sig
        };
        assert_ne!(config_fingerprint(&sim, &bumped_sig, 3e-6), base);
        assert_ne!(config_fingerprint(&sim, &sig, 4e-6), base);
    }

    #[test]
    fn signature_key_separates_every_input() {
        let fp = config_fingerprint(
            &SimilarityConfig::default(),
            &SignatureConfig::default(),
            3e-6,
        );
        let base = signature_key(b"trace-bytes", &cluster_a(), &fp);
        assert_eq!(base.digest.len(), 64);
        assert_ne!(
            signature_key(b"other-bytes", &cluster_a(), &fp).digest,
            base.digest
        );
        assert_ne!(
            signature_key(b"trace-bytes", &cluster_b(), &fp).digest,
            base.digest
        );
        assert_ne!(
            signature_key(b"trace-bytes", &cluster_a(), "other-fp").digest,
            base.digest
        );
        // Deterministic: same inputs, same address.
        assert_eq!(signature_key(b"trace-bytes", &cluster_a(), &fp), base);
    }

    #[test]
    fn prediction_key_separates_target_and_policy() {
        let fp = "fp";
        let sig = signature_key(b"t", &cluster_a(), fp);
        let a = prediction_key(&sig, &cluster_b(), "block");
        assert_ne!(a.digest, sig.digest);
        assert_ne!(prediction_key(&sig, &cluster_a(), "block").digest, a.digest);
        assert_ne!(
            prediction_key(&sig, &cluster_b(), "round-robin").digest,
            a.digest
        );
        assert_eq!(prediction_key(&sig, &cluster_b(), "block").digest, a.digest);
    }

    #[test]
    fn alias_is_injective_over_fields() {
        let a = signature_alias("cg", "w", 8, "A", "fp");
        assert_ne!(a, signature_alias("cg", "w", 16, "A", "fp"));
        assert_ne!(a, signature_alias("cg", "w", 8, "B", "fp"));
        assert_ne!(a, signature_alias("cg", "w", 8, "A", "fp2"));
    }
}
