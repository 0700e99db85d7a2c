//! Gradient compression with per-rank error feedback.
//!
//! Sec. VIII-B: "more aggressive optimizations involving computing in
//! low-precision and *communicating high-order bits of weight updates*
//! are poorly understood with regards to their implications for
//! classification and regression accuracy for scientific datasets."
//! This module makes bytes-on-wire a first-class knob (ROADMAP item 3,
//! grounded in Gupta et al., *Rudra*, and Jin et al., *How to scale
//! distributed deep learning?* — both argue communication **volume**,
//! not latency, caps scale-out):
//!
//! * [`Compression`] — the policy: top-k sparsification
//!   (`topk:<density>`), 8/16-bit symmetric quantisation (`int8` /
//!   `int16`) or `none`. Parsed from the CLI knob (`--compress`).
//! * [`ErrorFeedback`] — per-rank state implementing compressed rounds
//!   with **error feedback**: each round compresses `gradient +
//!   residual`, sends the compressed view and keeps `compensated − sent`
//!   as the next round's residual, so dropped mass telescopes instead of
//!   vanishing. The invariant `decompress(sent) + residual ==
//!   compensated` holds *exactly* per round (kept top-k elements have a
//!   zero residual and dropped ones a zero sent value; for the
//!   quantisers `|sent| and |compensated|` are within a factor of two
//!   whenever the quantised step is non-zero, so the subtraction is
//!   exact by Sterbenz's lemma) — the property battery in
//!   `tests/proptests.rs` pins it.
//! * [`CompressedGrad`] — the owned wire message for the PS path
//!   (sparse index+value pairs, i8/i16 payload + f32 scale, or dense
//!   f32), decompressed server-side into a reusable buffer.
//!
//! ## Exactness at identity settings
//!
//! `Compression::None` and `topk:1.0` keep every element bit-for-bit:
//! the residual stays zero forever and the values that travel are the
//! original gradients, so the compressed paths are bit-identical to the
//! uncompressed ones (the differential battery proves it end-to-end
//! through both engines).
//!
//! ## Wire accounting
//!
//! The thread-backed collectives exchange the dense *decompressed* sent
//! values (the shared-memory fabric has no wire); what compression
//! changes there is the arithmetic (values are rounded to what the codec
//! can represent) and the **accounted** bytes — the sizes a real network
//! would carry, which the cluster simulator charges for real. On a real
//! deployment only the [`CompressedGrad`] payload would travel, exactly
//! as it does on the PS path here.
//!
//! ## Non-finite gradients poison the stream
//!
//! A NaN/Inf element would otherwise round to a plausible finite value
//! and vanish (the laundering `quantize_i8` used to do). Instead the
//! whole round is poisoned — the wire message is
//! [`CompressedGrad::Poisoned`], decompression yields all-NaN, and the
//! numeric-health sentinel is notified via `nonfinite_hook` — matching
//! the PR 8 codec semantics.

/// Gradient compression policy, applied per rank with error feedback.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Compression {
    /// Full-precision f32 (the identity policy; zero overhead).
    #[default]
    None,
    /// Keep the `density` fraction of elements with the largest
    /// magnitude (ties broken by lower index); the rest stay in the
    /// residual. `density` is clamped to `(0, 1]`; `1.0` keeps
    /// everything and is bit-identical to [`Compression::None`] values
    /// on the wire (at top-k wire cost).
    TopK {
        /// Fraction of elements kept per round, in `(0, 1]`.
        density: f32,
    },
    /// Symmetric linear 8-bit quantisation (i8 payload + f32 scale).
    Int8,
    /// Symmetric linear 16-bit quantisation (i16 payload + f32 scale).
    Int16,
}

impl Compression {
    /// Parses the CLI knob: `none`, `int8`, `int16` or `topk:<density>`
    /// (e.g. `topk:0.01`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Compression::None),
            "int8" => Ok(Compression::Int8),
            "int16" => Ok(Compression::Int16),
            _ => {
                if let Some(d) = s.strip_prefix("topk:") {
                    let density: f32 = d.parse().map_err(|_| format!("bad top-k density {d:?}"))?;
                    if density > 0.0 && density <= 1.0 {
                        Ok(Compression::TopK { density })
                    } else {
                        Err(format!("top-k density must be in (0, 1], got {density}"))
                    }
                } else {
                    Err(format!(
                        "unknown compression {s:?} (try none, int8, int16, topk:<density>)"
                    ))
                }
            }
        }
    }

    /// Human-readable label (round-trips through [`Compression::parse`]).
    pub fn label(&self) -> String {
        match self {
            Compression::None => "none".into(),
            Compression::TopK { density } => format!("topk:{density}"),
            Compression::Int8 => "int8".into(),
            Compression::Int16 => "int16".into(),
        }
    }

    /// Number of elements a top-k round keeps out of `len` (at least 1
    /// for a non-empty buffer).
    pub fn topk_keep(density: f32, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (((density as f64) * len as f64).round() as usize).clamp(1, len)
    }

    /// Bytes a real network would carry for one compressed buffer of
    /// `elems` gradients: sparse `u32 index + f32 value` pairs plus a
    /// count word for top-k, the integer payload plus an f32 scale for
    /// the quantisers, plain f32 otherwise.
    pub fn wire_bytes(&self, elems: usize) -> usize {
        match self {
            Compression::None => 4 * elems,
            Compression::TopK { density } => 4 + 8 * Self::topk_keep(*density, elems),
            Compression::Int8 => 4 + elems,
            Compression::Int16 => 4 + 2 * elems,
        }
    }

    /// [`Compression::wire_bytes`] over `u64` element counts (the cluster
    /// simulator's byte domain).
    pub fn wire_bytes_u64(&self, elems: u64) -> u64 {
        self.wire_bytes(elems as usize) as u64
    }
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// One compressed gradient on the wire — what a PS update carries.
#[derive(Clone, Debug, PartialEq)]
pub enum CompressedGrad {
    /// Uncompressed f32 payload ([`Compression::None`]).
    Dense(Vec<f32>),
    /// Top-k sparse payload: sorted indices + their values.
    TopK {
        /// Dense length of the original buffer.
        len: u32,
        /// Kept element indices, ascending.
        indices: Vec<u32>,
        /// Kept element values, aligned with `indices`.
        values: Vec<f32>,
    },
    /// 8-bit quantised payload.
    Int8 {
        /// Quantised values.
        values: Vec<i8>,
        /// Dequantisation scale (`f32 ≈ i8 × scale`); NaN poisons.
        scale: f32,
    },
    /// 16-bit quantised payload.
    Int16 {
        /// Quantised values.
        values: Vec<i16>,
        /// Dequantisation scale; NaN poisons.
        scale: f32,
    },
    /// A round whose input contained NaN/Inf: no values travel, the
    /// receiver decompresses to all-NaN so the corruption surfaces
    /// instead of laundering into plausible numbers.
    Poisoned {
        /// Dense length of the original buffer.
        len: u32,
    },
}

impl CompressedGrad {
    /// Dense length of the gradient this message encodes.
    pub fn len(&self) -> usize {
        match self {
            CompressedGrad::Dense(v) => v.len(),
            CompressedGrad::TopK { len, .. } => *len as usize,
            CompressedGrad::Int8 { values, .. } => values.len(),
            CompressedGrad::Int16 { values, .. } => values.len(),
            CompressedGrad::Poisoned { len } => *len as usize,
        }
    }

    /// True when the dense length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this message would occupy on a real wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            CompressedGrad::Dense(v) => 4 * v.len(),
            CompressedGrad::TopK { indices, .. } => 4 + 8 * indices.len(),
            CompressedGrad::Int8 { values, .. } => 4 + values.len(),
            CompressedGrad::Int16 { values, .. } => 4 + 2 * values.len(),
            CompressedGrad::Poisoned { .. } => 8,
        }
    }

    /// Reconstructs the dense gradient into `out` (must match
    /// [`CompressedGrad::len`]). Poisoned messages fill `out` with NaN.
    pub fn decompress_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "decompress length mismatch");
        match self {
            CompressedGrad::Dense(v) => out.copy_from_slice(v),
            CompressedGrad::TopK {
                indices, values, ..
            } => {
                out.fill(0.0);
                for (&i, &v) in indices.iter().zip(values) {
                    out[i as usize] = v;
                }
            }
            CompressedGrad::Int8 { values, scale } => {
                scidl_tensor::ops::dequantize_i8(values, *scale, out);
            }
            CompressedGrad::Int16 { values, scale } => {
                scidl_tensor::ops::dequantize_i16(values, *scale, out);
            }
            CompressedGrad::Poisoned { .. } => out.fill(f32::NAN),
        }
    }
}

/// Per-rank error-feedback compression state: the residual of every
/// round is carried into the next, so lossy rounds telescope instead of
/// dropping gradient mass. One instance per (rank, stream) — residuals
/// are **worker-local** state and deliberately live outside the PS, so a
/// PS crash/failover can neither drop nor double-apply them.
///
/// Scratch buffers are reused across rounds: after warm-up, [`apply`]
/// (the hot bucket-path entry) allocates nothing.
///
/// [`apply`]: ErrorFeedback::apply
pub struct ErrorFeedback {
    policy: Compression,
    /// Residual carried to the next round (sized lazily).
    residual: Vec<f32>,
    /// Top-k selection scratch: element indices ordered by magnitude.
    sel: Vec<u32>,
}

impl ErrorFeedback {
    /// Fresh (zero-residual) state for `policy`.
    pub fn new(policy: Compression) -> Self {
        Self {
            policy,
            residual: Vec::new(),
            sel: Vec::new(),
        }
    }

    /// Current residual (empty before the first round).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Residual magnitude (L2), for diagnostics.
    pub fn residual_norm(&self) -> f64 {
        self.residual
            .iter()
            .map(|&x| x as f64 * x as f64)
            .sum::<f64>()
            .sqrt()
    }

    fn ensure_len(&mut self, len: usize) {
        if self.residual.len() != len {
            self.residual.clear();
            self.residual.resize(len, 0.0);
        }
    }

    /// One error-feedback round in place: `data` enters holding this
    /// round's gradient and leaves holding the decompressed sent values
    /// (what the receiver reconstructs); the residual absorbs the rest.
    /// Returns the wire bytes the compressed form would occupy.
    /// Allocation-free after warm-up. A non-finite input poisons `data`
    /// to all-NaN and reports to the numeric-health sentinel.
    pub fn apply(&mut self, data: &mut [f32]) -> usize {
        self.round(data, false).0
    }

    /// One error-feedback round producing the owned wire message (the PS
    /// path): same arithmetic as [`ErrorFeedback::apply`] — `data` also
    /// leaves holding the sent values, so
    /// `msg.decompress_into(..) == data` afterwards.
    pub fn encode(&mut self, data: &mut [f32]) -> CompressedGrad {
        self.round(data, true)
            .1
            .expect("encode always builds a message")
    }

    fn round(&mut self, data: &mut [f32], want_msg: bool) -> (usize, Option<CompressedGrad>) {
        let len = data.len();
        match self.policy {
            Compression::None => {
                // Identity: nothing is dropped, the residual stays zero
                // and `data` is untouched (bit-identical fast path).
                let msg = want_msg.then(|| CompressedGrad::Dense(data.to_vec()));
                (4 * len, msg)
            }
            Compression::TopK { density } => self.round_topk(data, density, want_msg),
            Compression::Int8 => self.round_quant(data, 127.0, want_msg),
            Compression::Int16 => self.round_quant(data, 32767.0, want_msg),
        }
    }

    /// Compensate `data` with the residual; on non-finite input, poison
    /// and report. Returns `false` when the round is poisoned.
    fn compensate(&mut self, data: &mut [f32], source: &'static str) -> bool {
        let len = data.len();
        self.ensure_len(len);
        for (d, r) in data.iter_mut().zip(&self.residual) {
            *d += *r;
        }
        if let Some((first, count, value)) = scidl_trace::scan_nonfinite(data) {
            scidl_trace::nonfinite_hook(source, first, count, value);
            // Poison, don't launder: the receiver sees NaN everywhere.
            // The residual is frozen — a poisoned round contributes no
            // residual update, mirroring `quantize_i8`'s contract.
            data.fill(f32::NAN);
            return false;
        }
        true
    }

    fn round_topk(
        &mut self,
        data: &mut [f32],
        density: f32,
        want_msg: bool,
    ) -> (usize, Option<CompressedGrad>) {
        let len = data.len();
        let k = Compression::topk_keep(density, len);
        let bytes = 4 + 8 * k;
        if k == len {
            // Everything is kept: mathematically the residual is zero
            // forever, so skip the compensation entirely — this keeps
            // `topk:1.0` a bit-identical identity (at top-k wire cost).
            if let Some((first, count, value)) = scidl_trace::scan_nonfinite(data) {
                scidl_trace::nonfinite_hook("compress.topk", first, count, value);
                data.fill(f32::NAN);
                return (
                    bytes,
                    want_msg.then_some(CompressedGrad::Poisoned { len: len as u32 }),
                );
            }
            let msg = want_msg.then(|| CompressedGrad::TopK {
                len: len as u32,
                indices: (0..len as u32).collect(),
                values: data.to_vec(),
            });
            return (bytes, msg);
        }
        if !self.compensate(data, "compress.topk") {
            return (
                bytes,
                want_msg.then_some(CompressedGrad::Poisoned { len: len as u32 }),
            );
        }
        // Deterministic selection: order by (|value| desc, index asc) —
        // a total order, so the kept set is a pure function of the data.
        self.sel.clear();
        self.sel.extend(0..len as u32);
        let key = |i: u32| data[i as usize].abs();
        self.sel
            .select_nth_unstable_by(k - 1, |&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
        self.sel[..k].sort_unstable();
        // Sweep: kept elements are sent exactly (residual 0); dropped
        // elements are sent as 0 (residual = compensated value). Both
        // cases make `sent + residual == compensated` exact.
        let mut j = 0usize;
        for (i, (d, r)) in data.iter_mut().zip(self.residual.iter_mut()).enumerate() {
            if j < k && self.sel[j] as usize == i {
                *r = 0.0;
                j += 1;
            } else {
                *r = *d;
                *d = 0.0;
            }
        }
        let msg = want_msg.then(|| CompressedGrad::TopK {
            len: len as u32,
            indices: self.sel[..k].to_vec(),
            values: self.sel[..k].iter().map(|&i| data[i as usize]).collect(),
        });
        (bytes, msg)
    }

    fn round_quant(
        &mut self,
        data: &mut [f32],
        qmax: f32,
        want_msg: bool,
    ) -> (usize, Option<CompressedGrad>) {
        let len = data.len();
        let wide = qmax > 255.0;
        let bytes = 4 + len * if wide { 2 } else { 1 };
        let source = if wide {
            "compress.int16"
        } else {
            "compress.int8"
        };
        if !self.compensate(data, source) {
            return (
                bytes,
                want_msg.then_some(CompressedGrad::Poisoned { len: len as u32 }),
            );
        }
        // Same arithmetic as `scidl_tensor::ops::quantize_i8/16`, fused
        // with the residual update so the hot path stays allocation-free:
        // sent = round(x/scale)·scale is exactly what the receiver's
        // dequantise computes, and x − sent is exact (Sterbenz) so the
        // error-feedback invariant holds bitwise.
        let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max > 0.0 { max / qmax } else { 1.0 };
        let mut q8: Vec<i8> = Vec::new();
        let mut q16: Vec<i16> = Vec::new();
        if want_msg {
            if wide {
                q16.reserve(len);
            } else {
                q8.reserve(len);
            }
        }
        for (d, r) in data.iter_mut().zip(self.residual.iter_mut()) {
            let q = (*d / scale).round().clamp(-qmax, qmax);
            let sent = q * scale;
            *r = *d - sent;
            *d = sent;
            if want_msg {
                if wide {
                    q16.push(q as i16);
                } else {
                    q8.push(q as i8);
                }
            }
        }
        let msg = want_msg.then_some({
            if wide {
                CompressedGrad::Int16 { values: q16, scale }
            } else {
                CompressedGrad::Int8 { values: q8, scale }
            }
        });
        (bytes, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{CommWorld, Communicator};
    use std::thread;

    /// A compressed mean all-reduce is these two lines wherever it runs:
    /// one error-feedback round, then the exact collective over the
    /// decompressed sent values.
    fn compressed_allreduce_mean(
        ef: &mut ErrorFeedback,
        comm: &Communicator,
        data: &mut [f32],
    ) -> usize {
        let bytes = ef.apply(data);
        comm.allreduce_mean(data);
        bytes
    }

    #[test]
    fn parse_round_trips() {
        for s in ["none", "int8", "int16", "topk:0.1", "topk:0.01", "topk:1"] {
            let p = Compression::parse(s).unwrap();
            assert_eq!(Compression::parse(&p.label()).unwrap(), p);
        }
        assert!(Compression::parse("topk:0").is_err());
        assert!(Compression::parse("topk:1.5").is_err());
        assert!(Compression::parse("zfp").is_err());
    }

    #[test]
    fn wire_bytes_match_formats() {
        assert_eq!(Compression::None.wire_bytes(1000), 4000);
        assert_eq!(Compression::Int8.wire_bytes(1000), 1004);
        assert_eq!(Compression::Int16.wire_bytes(1000), 2004);
        // topk 10% of 1000 = 100 kept × (4B index + 4B value) + count.
        assert_eq!(Compression::TopK { density: 0.1 }.wire_bytes(1000), 804);
        // ≥4× reduction at top-k 10% (the fig8 acceptance criterion).
        assert!(
            Compression::None.wire_bytes(1000)
                >= 4 * Compression::TopK { density: 0.1 }.wire_bytes(1000)
        );
        assert_eq!(Compression::TopK { density: 0.1 }.wire_bytes_u64(1000), 804);
    }

    fn stream(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 33) as i32 % 2001 - 1000) as f32 / 500.0
            })
            .collect()
    }

    #[test]
    fn error_feedback_invariant_exact_per_round() {
        // decompress(sent) + residual == compensated, exactly, for every
        // policy and round.
        for policy in [
            Compression::TopK { density: 0.01 },
            Compression::TopK { density: 0.1 },
            Compression::TopK { density: 1.0 },
            Compression::Int8,
            Compression::Int16,
            Compression::None,
        ] {
            let mut ef = ErrorFeedback::new(policy);
            for round in 0..12u64 {
                let orig = stream(round * 7 + 1, 233);
                let mut compensated = orig.clone();
                for (c, r) in compensated.iter_mut().zip(ef.residual()) {
                    *c += *r;
                }
                let mut data = orig.clone();
                let msg = ef.encode(&mut data);
                let mut sent = vec![0.0f32; orig.len()];
                msg.decompress_into(&mut sent);
                assert_eq!(sent, data, "{policy:?}: data must hold the sent values");
                for i in 0..orig.len() {
                    let back = sent[i] + ef.residual().get(i).copied().unwrap_or(0.0);
                    assert_eq!(
                        back,
                        compensated[i],
                        "{policy:?} round {round} elem {i}: {} + {} != {}",
                        sent[i],
                        ef.residual()[i],
                        compensated[i]
                    );
                }
            }
        }
    }

    #[test]
    fn identity_policies_are_bitwise_noops() {
        for policy in [Compression::None, Compression::TopK { density: 1.0 }] {
            let mut ef = ErrorFeedback::new(policy);
            for round in 0..5u64 {
                let orig = stream(round + 99, 77);
                let mut data = orig.clone();
                let bytes = ef.apply(&mut data);
                assert!(bytes > 0);
                assert_eq!(
                    data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    orig.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{policy:?} must be a bitwise identity"
                );
                assert_eq!(ef.residual_norm(), 0.0);
            }
        }
    }

    #[test]
    fn apply_matches_encode_decompress() {
        for policy in [
            Compression::TopK { density: 0.25 },
            Compression::Int8,
            Compression::Int16,
        ] {
            let mut a = ErrorFeedback::new(policy);
            let mut b = ErrorFeedback::new(policy);
            for round in 0..6u64 {
                let orig = stream(round * 3 + 5, 131);
                let mut via_apply = orig.clone();
                a.apply(&mut via_apply);
                let mut via_encode = orig.clone();
                let msg = b.encode(&mut via_encode);
                let mut decoded = vec![0.0f32; orig.len()];
                msg.decompress_into(&mut decoded);
                assert_eq!(via_apply, decoded, "{policy:?} round {round}");
                assert_eq!(a.residual(), b.residual());
            }
        }
    }

    #[test]
    fn topk_keeps_largest_magnitudes_deterministically() {
        let mut ef = ErrorFeedback::new(Compression::TopK { density: 0.25 });
        let mut data = vec![0.1, -5.0, 0.2, 4.0, -0.3, 0.0, 1.0, -1.0];
        let msg = ef.encode(&mut data);
        match msg {
            CompressedGrad::TopK {
                indices, values, ..
            } => {
                assert_eq!(indices, vec![1, 3]);
                assert_eq!(values, vec![-5.0, 4.0]);
            }
            other => panic!("expected TopK, got {other:?}"),
        }
        // |1.0| == |-1.0|: the tie at density 0.5 keeps the lower index.
        let mut ef = ErrorFeedback::new(Compression::TopK { density: 0.5 });
        let mut data = vec![1.0, -1.0, 0.5, -0.5];
        let msg = ef.encode(&mut data);
        match msg {
            CompressedGrad::TopK { indices, .. } => assert_eq!(indices, vec![0, 1]),
            other => panic!("expected TopK, got {other:?}"),
        }
    }

    #[test]
    fn nonfinite_input_poisons_every_policy() {
        for policy in [
            Compression::TopK { density: 0.1 },
            Compression::TopK { density: 1.0 },
            Compression::Int8,
            Compression::Int16,
        ] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut ef = ErrorFeedback::new(policy);
                let mut data = vec![1.0, bad, 2.0];
                let msg = ef.encode(&mut data);
                assert!(
                    data.iter().all(|x| x.is_nan()),
                    "{policy:?}/{bad}: sent values must be poisoned, got {data:?}"
                );
                let mut out = vec![0.0f32; 3];
                msg.decompress_into(&mut out);
                assert!(
                    out.iter().all(|x| x.is_nan()),
                    "{policy:?}/{bad}: receiver must see poison, got {out:?}"
                );
            }
        }
    }

    #[test]
    fn compressed_allreduce_poisons_instead_of_laundering() {
        // Regression for the laundering bug: a poisoned gradient used to
        // come out of the compressed all-reduce as plausible finite
        // values. It must now surface as NaN plus a health report.
        let sink = std::sync::Arc::new(scidl_trace::TraceSink::new());
        scidl_trace::install(std::sync::Arc::clone(&sink));
        let comms = CommWorld::new(1);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut state = ErrorFeedback::new(Compression::Int8);
            let mut data = vec![1.0, bad, 2.0];
            compressed_allreduce_mean(&mut state, &comms[0], &mut data);
            assert!(
                data.iter().all(|x| x.is_nan()),
                "{bad}: output must be poisoned, got {data:?}"
            );
        }
        scidl_trace::uninstall();
        let alerts = sink.health_alerts();
        assert!(
            alerts
                .iter()
                .filter(|a| a.source == "compress.int8")
                .count()
                >= 3,
            "each poisoned round must report to the sentinel, got {alerts:?}"
        );
    }

    #[test]
    fn compressed_mean_close_to_exact() {
        let n = 4;
        let len = 257;
        let comms = CommWorld::new(n);
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                thread::spawn(move || {
                    let mut state = ErrorFeedback::new(Compression::Int8);
                    let mut data: Vec<f32> = (0..len)
                        .map(|i| ((rank * len + i) % 13) as f32 * 0.1 - 0.6)
                        .collect();
                    let exact: Vec<f32> = (0..len)
                        .map(|i| {
                            (0..n)
                                .map(|r| ((r * len + i) % 13) as f32 * 0.1 - 0.6)
                                .sum::<f32>()
                                / n as f32
                        })
                        .collect();
                    let bytes = compressed_allreduce_mean(&mut state, &comm, &mut data);
                    (data, exact, bytes)
                })
            })
            .collect();
        for h in handles {
            let (got, exact, bytes) = h.join().unwrap();
            assert_eq!(bytes, len + 4);
            for (g, e) in got.iter().zip(&exact) {
                // Worst-case per-element quantisation error is max/127.
                assert!((g - e).abs() < 0.02, "{g} vs {e}");
            }
        }
    }

    #[test]
    fn error_feedback_recovers_dropped_mass_over_rounds() {
        // A value far below one quantisation step would be silently
        // dropped without error feedback; with it, the accumulated sum
        // over many rounds approaches the true total. Same story for
        // top-k: a small element is dropped every round but its residual
        // grows until it wins a slot.
        let comms = CommWorld::new(1);
        let comm = &comms[0];
        for policy in [Compression::Int8, Compression::TopK { density: 0.5 }] {
            let mut state = ErrorFeedback::new(policy);
            let tiny = 0.004f32;
            let big = 1.0f32;
            let mut acc = 0.0f64;
            let rounds = 500;
            for _ in 0..rounds {
                let mut data = vec![tiny, big];
                compressed_allreduce_mean(&mut state, comm, &mut data);
                acc += data[0] as f64;
            }
            let want = tiny as f64 * rounds as f64;
            assert!(
                (acc - want).abs() / want < 0.05,
                "{policy:?}: error feedback should preserve mass: {acc} vs {want}"
            );
        }
    }

    #[test]
    fn without_feedback_tiny_values_vanish() {
        // Control for the test above: plain quantisation drops values
        // under half a quantisation step (1/254 of the max here).
        let (q, scale) = scidl_tensor::ops::quantize_i8(&[0.003, 1.0]);
        let mut out = vec![0.0f32; 2];
        scidl_tensor::ops::dequantize_i8(&q, scale, &mut out);
        assert_eq!(out[0], 0.0, "tiny value must round to zero at this scale");
    }

    #[test]
    fn residual_norm_reports_state() {
        let comms = CommWorld::new(1);
        let mut state = ErrorFeedback::new(Compression::Int8);
        assert_eq!(state.residual_norm(), 0.0);
        let mut data = vec![0.004, 1.0];
        compressed_allreduce_mean(&mut state, &comms[0], &mut data);
        assert!(state.residual_norm() > 0.0);
    }

    #[test]
    fn wire_bytes_quarter_of_f32() {
        let comms = CommWorld::new(1);
        let mut state = ErrorFeedback::new(Compression::Int8);
        let mut data = vec![1.0f32; 1000];
        let bytes = compressed_allreduce_mean(&mut state, &comms[0], &mut data);
        assert_eq!(bytes, 1004);
        assert!(bytes * 3 < 1000 * 4);
    }
}
