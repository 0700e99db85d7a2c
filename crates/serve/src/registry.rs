//! Checkpoint-backed model registry with atomic hot-swap.
//!
//! Serving must keep answering while a newer training snapshot loads:
//! the registry holds the active model behind `RwLock<Arc<..>>`. Readers
//! (`current`) clone the `Arc` under a read lock — a few nanoseconds —
//! and keep serving from their snapshot even while `swap` publishes a
//! replacement, so a batch never observes a half-loaded model.
//!
//! Loading goes through `scidl-core::checkpoint` (checksummed, crash-safe
//! files) and enforces the **round-trip guarantee**: a freshly restored
//! network must produce *bit-identical* logits to the network that wrote
//! the checkpoint. The format stores raw little-endian f32 bits and
//! [`scidl_nn::Network::infer`] is bit-deterministic, so any mismatch
//! means corruption or architecture drift — serving refuses the swap.
//!
//! ## Validate-before-publish and the swap circuit breaker
//!
//! [`ModelRegistry::load_and_swap_guarded`] never lets an unvalidated
//! model near traffic: the candidate must pass (1) the checkpoint
//! format's checksum at load, (2) the bit-identical round-trip check
//! against the training-side network when one is supplied, and (3) a
//! finite-output probe inference. Any failure leaves the previous model
//! serving — "rollback" is the absence of publication — and trips a
//! consecutive-failure counter. Once the counter reaches the breaker
//! threshold the breaker *opens* and further swap attempts are refused
//! outright ([`SwapError::BreakerOpen`]) until an operator calls
//! [`ModelRegistry::reset_breaker`]: a training run that has gone bad
//! (diverged weights, truncated checkpoints) cannot grind serving
//! through repeated load/verify cycles. Every rejection and breaker
//! transition is emitted as a `scidl-trace` event.

use crate::policy::{Breaker, BREAKER_THRESHOLD};
use scidl_cluster::faults::FaultPlan;
use scidl_core::checkpoint::Checkpoint;
use scidl_nn::network::Model;
use scidl_nn::Network;
use scidl_tensor::Tensor;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// An immutable, servable model snapshot: the network plus the training
/// cursor it was captured at, and optionally an int8 sidecar
/// ([`scidl_nn::QuantizedNetwork`]) that workers execute instead of the
/// f32 forward.
pub struct ServingModel {
    /// The network (read-only at serving time; use [`Network::infer`]).
    pub network: Network,
    /// int8 sidecar built by [`ServingModel::with_quantized`]; when
    /// present, [`ServingModel::infer_with`] runs the quantized forward.
    pub quant: Option<scidl_nn::QuantizedNetwork>,
    /// Training iteration the snapshot was taken at.
    pub iteration: u64,
    /// RNG seed of the training run that produced it.
    pub seed: u64,
}

impl std::fmt::Debug for ServingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingModel")
            .field("network", &self.network.name())
            .field("quantized", &self.quant.is_some())
            .field("iteration", &self.iteration)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ServingModel {
    /// Wraps an in-memory network as a servable snapshot.
    pub fn new(network: Network, iteration: u64, seed: u64) -> Self {
        Self {
            network,
            quant: None,
            iteration,
            seed,
        }
    }

    /// Builds the int8 sidecar for this snapshot (builder style): workers
    /// will serve through [`scidl_nn::Network::infer_quantized_with`].
    /// Deployment safety is the *caller's* job — production swaps go
    /// through [`ModelRegistry::load_and_swap_quantized_guarded`], which
    /// rejects a sidecar whose probe accuracy degrades past a threshold.
    pub fn with_quantized(mut self) -> Self {
        self.quant = Some(self.network.quantize());
        self
    }

    /// Whether this snapshot serves int8.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The serving forward: the quantized path when the int8 sidecar is
    /// present, the bit-deterministic f32 path otherwise. Workers call
    /// this instead of touching `network` directly so a hot-swap to or
    /// from int8 needs no worker-side changes; `scratch` holds the int8
    /// path's integer buffers, the f32 path does not touch it.
    pub fn infer_with(&self, input: &Tensor, scratch: &mut scidl_nn::InferScratch) -> Tensor {
        match &self.quant {
            Some(q) => self.network.infer_quantized_with(q, input, scratch),
            None => self.network.infer(input),
        }
    }

    /// Loads a checkpoint from `path` into `arch` (a freshly built
    /// network of the architecture that wrote it).
    pub fn load(path: &Path, mut arch: Network) -> io::Result<Self> {
        let ck = Checkpoint::load(path)?;
        if ck.params.len() != arch.num_params() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint has {} params but architecture {} expects {}",
                    ck.params.len(),
                    arch.name(),
                    arch.num_params()
                ),
            ));
        }
        ck.restore(&mut arch);
        Ok(Self::new(arch, ck.iteration, ck.seed))
    }
}

/// Checks the checkpoint round-trip guarantee: `loaded` must produce
/// bit-identical logits to `source` on `probe`. Comparison is on f32
/// *bits* so NaN payloads and signed zeros cannot hide drift.
pub fn check_roundtrip(source: &Network, loaded: &Network, probe: &Tensor) -> Result<(), String> {
    let want = source.infer(probe);
    let got = loaded.infer(probe);
    if want.shape() != got.shape() {
        return Err(format!(
            "round-trip shape mismatch: {:?} vs {:?}",
            want.shape(),
            got.shape()
        ));
    }
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "round-trip logit drift at flat index {i}: {a} ({:#010x}) vs {b} ({:#010x})",
                a.to_bits(),
                b.to_bits()
            ));
        }
    }
    Ok(())
}

/// Fraction of batch items whose argmax class differs between two logit
/// tensors of identical shape. The probe-accuracy metric the quantized
/// swap gate uses: scale-insensitive (quantization shifts logit values
/// but deployment only cares about predictions flipping).
pub fn argmax_disagreement(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.shape(), b.shape(), "logit shape mismatch");
    let n = a.shape().n;
    if n == 0 {
        return 0.0;
    }
    let classes = a.shape().item_len();
    let amax = |d: &[f32]| {
        d.iter()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(y.1))
            .map(|(j, _)| j)
    };
    let mut flips = 0usize;
    for i in 0..n {
        let sa = &a.data()[i * classes..(i + 1) * classes];
        let sb = &b.data()[i * classes..(i + 1) * classes];
        if amax(sa) != amax(sb) {
            flips += 1;
        }
    }
    flips as f64 / n as f64
}

/// Why a guarded hot-swap was refused. The previous model keeps serving
/// in every case.
#[derive(Debug)]
pub enum SwapError {
    /// The checkpoint failed to load: I/O error, bad magic/version, or a
    /// checksum mismatch (corruption on disk).
    Load(io::Error),
    /// The restored network's logits drifted from the training-side
    /// network's — the round-trip guarantee is violated.
    Roundtrip(String),
    /// The candidate produced a non-finite logit on the probe input: the
    /// checkpoint captured diverged weights.
    NonFinite(String),
    /// The int8 sidecar's probe predictions disagreed with the f32
    /// network on too large a fraction of the probe batch — quantization
    /// degraded this checkpoint past the deployment threshold.
    QuantizedAccuracy {
        /// Fraction of probe items whose argmax changed under int8.
        disagreement: f64,
        /// The maximum fraction the caller allowed.
        threshold: f64,
    },
    /// The breaker is open after `failures` consecutive bad checkpoints;
    /// the candidate was not even loaded. Call
    /// [`ModelRegistry::reset_breaker`] once the checkpoint source is
    /// healthy again.
    BreakerOpen {
        /// Consecutive failures that opened the breaker.
        failures: u32,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Load(e) => write!(f, "swap refused: checkpoint load failed: {e}"),
            SwapError::Roundtrip(m) => write!(f, "swap refused: round-trip drift: {m}"),
            SwapError::NonFinite(m) => write!(f, "swap refused: non-finite probe output: {m}"),
            SwapError::QuantizedAccuracy { disagreement, threshold } => write!(
                f,
                "swap refused: int8 probe disagreement {disagreement:.3} exceeds threshold {threshold:.3}"
            ),
            SwapError::BreakerOpen { failures } => write!(
                f,
                "swap refused: breaker open after {failures} consecutive bad checkpoints"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

/// The registry serving workers read the active model from.
pub struct ModelRegistry {
    active: RwLock<Arc<ServingModel>>,
    breaker: Mutex<Breaker>,
    faults: FaultPlan,
    swap_attempts: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry serving `model`; its breaker opens after
    /// three consecutive failures (the policy core's threshold).
    pub fn new(model: ServingModel) -> Self {
        Self {
            active: RwLock::new(Arc::new(model)),
            breaker: Mutex::new(Breaker::default()),
            faults: FaultPlan::none(),
            swap_attempts: AtomicU64::new(0),
        }
    }

    /// Attaches a chaos plan: guarded swap attempt `k` fails as a
    /// checksum error when `plan.swap_is_corrupt(k)`, exercising the
    /// full reject/breaker path deterministically.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The currently active model. Cheap (Arc clone under a read lock);
    /// the returned snapshot stays valid across concurrent swaps.
    pub fn current(&self) -> Arc<ServingModel> {
        Arc::clone(&self.active.read().unwrap())
    }

    /// Atomically publishes `model`, returning the previous snapshot.
    /// In-flight batches keep their old `Arc` and finish on it.
    pub fn swap(&self, model: ServingModel) -> Arc<ServingModel> {
        std::mem::replace(&mut *self.active.write().unwrap(), Arc::new(model))
    }

    /// Charges one rollout failure against the swap circuit breaker: the
    /// counter advances and the breaker opens at the threshold. Rejected
    /// guarded swaps charge it through this path.
    /// Returns `true` when the breaker is open after the charge. A
    /// rollout failure consumes no swap-attempt ordinal — nothing was
    /// loaded.
    pub fn record_rollout_failure(&self, reason: &'static str) -> bool {
        let mut b = self.breaker.lock().unwrap();
        let opened = b.fail(BREAKER_THRESHOLD);
        let after = *b;
        drop(b);
        let tr = scidl_trace::TraceHandle::current();
        let failures = after.failures as u64;
        tr.instant(
            u64::MAX,
            scidl_trace::EventKind::SwapReject { reason, failures },
        );
        if opened {
            tr.instant(
                u64::MAX,
                scidl_trace::EventKind::Breaker {
                    open: true,
                    failures,
                },
            );
        }
        after.open
    }

    /// Validate-before-publish hot-swap under the circuit breaker.
    ///
    /// The candidate at `path` must pass, in order: the checkpoint
    /// checksum (at load), the bit-identical round-trip check against
    /// `source` when one is given, and a finite-output inference on
    /// `probe`. On any failure nothing is published — the previous model
    /// keeps serving — and the consecutive-failure counter advances;
    /// reaching the threshold opens the breaker, after which attempts
    /// fail fast with [`SwapError::BreakerOpen`]. A successful swap
    /// resets the counter and returns the *previous* snapshot.
    pub fn load_and_swap_guarded(
        &self,
        path: &Path,
        arch: Network,
        probe: &Tensor,
        source: Option<&Network>,
    ) -> Result<Arc<ServingModel>, SwapError> {
        self.guarded_swap(path, arch, probe, source, None)
    }

    /// [`ModelRegistry::load_and_swap_guarded`], then quantize-and-verify:
    /// after the candidate passes the checksum, round-trip and
    /// finite-probe gates, its int8 sidecar is built and probed. The
    /// sidecar must keep argmax agreement with the f32 network on all but
    /// `max_disagreement` (a fraction in `[0, 1]`) of the probe items,
    /// and must not be poisoned (non-finite weight scale or quantized
    /// probe output). A sidecar that degrades past the threshold refuses
    /// the whole swap ([`SwapError::QuantizedAccuracy`]) and charges the
    /// breaker — the f32 model keeps serving. On success the published
    /// snapshot serves int8 ([`ServingModel::is_quantized`]).
    pub fn load_and_swap_quantized_guarded(
        &self,
        path: &Path,
        arch: Network,
        probe: &Tensor,
        source: Option<&Network>,
        max_disagreement: f64,
    ) -> Result<Arc<ServingModel>, SwapError> {
        assert!(
            (0.0..=1.0).contains(&max_disagreement),
            "max_disagreement must be a fraction in [0, 1]"
        );
        self.guarded_swap(path, arch, probe, source, Some(max_disagreement))
    }

    fn guarded_swap(
        &self,
        path: &Path,
        arch: Network,
        probe: &Tensor,
        source: Option<&Network>,
        quant_threshold: Option<f64>,
    ) -> Result<Arc<ServingModel>, SwapError> {
        let tr = scidl_trace::TraceHandle::current();
        let b = *self.breaker.lock().unwrap();
        if b.open {
            tr.instant(
                u64::MAX,
                scidl_trace::EventKind::SwapReject {
                    reason: "breaker_open",
                    failures: b.failures as u64,
                },
            );
            return Err(SwapError::BreakerOpen {
                failures: b.failures,
            });
        }
        let attempt = self.swap_attempts.fetch_add(1, Ordering::SeqCst);
        let candidate = if self.faults.swap_is_corrupt(attempt) {
            Err(SwapError::Load(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("injected corrupt checkpoint at swap attempt {attempt}"),
            )))
        } else {
            ServingModel::load(path, arch).map_err(SwapError::Load)
        };
        let result = candidate.and_then(|model| {
            if let Some(src) = source {
                check_roundtrip(src, &model.network, probe).map_err(SwapError::Roundtrip)?;
            }
            let y = model.network.infer(probe);
            if !y.all_finite() {
                let bad = y
                    .data()
                    .iter()
                    .position(|v| !v.is_finite())
                    .map(|i| format!("logit at flat index {i} is {}", y.data()[i]))
                    .unwrap_or_else(|| "non-finite logit".into());
                return Err(SwapError::NonFinite(bad));
            }
            let Some(threshold) = quant_threshold else {
                return Ok(model);
            };
            // int8 gate: quantize, probe, and require argmax agreement.
            let model = model.with_quantized();
            let yq = model
                .network
                .infer_quantized(model.quant.as_ref().expect("just built"), probe);
            if !yq.all_finite() {
                return Err(SwapError::NonFinite(
                    "quantized probe produced non-finite output (poisoned weights)".into(),
                ));
            }
            let disagreement = argmax_disagreement(&y, &yq);
            if disagreement > threshold {
                return Err(SwapError::QuantizedAccuracy {
                    disagreement,
                    threshold,
                });
            }
            Ok(model)
        });
        match result {
            Ok(model) => {
                self.breaker.lock().unwrap().succeed();
                Ok(self.swap(model))
            }
            Err(e) => {
                let reason = match &e {
                    SwapError::Load(_) => "checksum",
                    SwapError::Roundtrip(_) => "roundtrip",
                    SwapError::NonFinite(_) => "nonfinite",
                    SwapError::QuantizedAccuracy { .. } => "quant_accuracy",
                    SwapError::BreakerOpen { .. } => "breaker_open",
                };
                self.record_rollout_failure(reason);
                Err(e)
            }
        }
    }

    /// Whether the breaker is currently refusing swaps.
    pub fn breaker_open(&self) -> bool {
        self.breaker.lock().unwrap().open
    }

    /// Consecutive guarded-swap failures since the last success/reset.
    pub fn consecutive_failures(&self) -> u32 {
        self.breaker.lock().unwrap().failures
    }

    /// Guarded swap attempts made so far (the ordinal chaos plans index
    /// with `swap_is_corrupt`).
    pub fn swap_attempts(&self) -> u64 {
        self.swap_attempts.load(Ordering::SeqCst)
    }

    /// Closes the breaker and zeroes the failure counter: the operator
    /// asserts the checkpoint source is healthy again.
    pub fn reset_breaker(&self) {
        self.breaker.lock().unwrap().reset();
        let tr = scidl_trace::TraceHandle::current();
        tr.instant(
            u64::MAX,
            scidl_trace::EventKind::Breaker {
                open: false,
                failures: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidl_nn::arch::hep_small;
    use scidl_tensor::{Shape4, TensorRng};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("scidl_serve_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn loaded_checkpoint_serves_bit_identical_logits() {
        let mut rng = TensorRng::new(11);
        let source = hep_small(&mut rng);
        let path = tmp("roundtrip");
        Checkpoint::capture(&source, 42, 7).save(&path).unwrap();

        let mut rng2 = TensorRng::new(999); // different init, fully overwritten
        let model = ServingModel::load(&path, hep_small(&mut rng2)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(model.iteration, 42);
        assert_eq!(model.seed, 7);

        let mut xr = TensorRng::new(5);
        let probe = xr.uniform_tensor(Shape4::new(3, 3, 32, 32), -1.0, 1.0);
        check_roundtrip(&source, &model.network, &probe).unwrap();
    }

    #[test]
    fn roundtrip_check_catches_single_param_drift() {
        let mut rng = TensorRng::new(12);
        let source = hep_small(&mut rng);
        let mut rng2 = TensorRng::new(12);
        let mut drifted = hep_small(&mut rng2);
        let mut p = drifted.flat_params();
        p[100] += 1e-3;
        drifted.set_flat_params(&p);

        let mut xr = TensorRng::new(6);
        let probe = xr.uniform_tensor(Shape4::new(2, 3, 32, 32), -1.0, 1.0);
        let err = check_roundtrip(&source, &drifted, &probe).unwrap_err();
        assert!(err.contains("drift"), "{err}");
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let mut rng = TensorRng::new(13);
        let source = hep_small(&mut rng);
        let path = tmp("wrongarch");
        Checkpoint::capture(&source, 1, 1).save(&path).unwrap();
        let mut rng2 = TensorRng::new(14);
        // The full 224px HEP network has a different parameter count.
        let err = ServingModel::load(&path, scidl_nn::arch::hep_network(&mut rng2)).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("expects"), "{err}");
    }

    #[test]
    fn swap_is_atomic_and_preserves_in_flight_snapshots() {
        let mut rng = TensorRng::new(15);
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rng), 1, 0));
        let held = reg.current();
        assert_eq!(held.iteration, 1);

        let mut rng2 = TensorRng::new(16);
        let old = reg.swap(ServingModel::new(hep_small(&mut rng2), 2, 0));
        assert_eq!(old.iteration, 1);
        assert_eq!(reg.current().iteration, 2);
        // The snapshot taken before the swap is still fully usable.
        assert_eq!(held.iteration, 1);
        let mut xr = TensorRng::new(7);
        let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);
        assert!(held.network.infer(&probe).all_finite());
    }

    #[test]
    fn load_and_swap_refuses_corrupt_roundtrip() {
        let mut rng = TensorRng::new(17);
        let source = hep_small(&mut rng);
        let path = tmp("refuse");
        Checkpoint::capture(&source, 3, 0).save(&path).unwrap();

        let mut rngr = TensorRng::new(18);
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 0, 0));
        let mut xr = TensorRng::new(8);
        let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);

        // Against a *different* source network the round-trip must fail
        // and the active model must stay untouched.
        let mut rng3 = TensorRng::new(19);
        let other = hep_small(&mut rng3);
        let mut rng4 = TensorRng::new(20);
        let err = reg
            .load_and_swap_guarded(&path, hep_small(&mut rng4), &probe, Some(&other))
            .unwrap_err();
        assert!(err.to_string().contains("drift"), "{err}");
        assert_eq!(reg.current().iteration, 0, "failed verify must not publish");

        // Against the true source it succeeds.
        let mut rng5 = TensorRng::new(21);
        reg.load_and_swap_guarded(&path, hep_small(&mut rng5), &probe, Some(&source))
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reg.current().iteration, 3);
    }

    #[test]
    fn guarded_swap_publishes_only_validated_models() {
        let mut rng = TensorRng::new(50);
        let source = hep_small(&mut rng);
        let path = tmp("guarded_ok");
        Checkpoint::capture(&source, 9, 1).save(&path).unwrap();

        let mut rngr = TensorRng::new(51);
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 0, 0));
        let mut xr = TensorRng::new(52);
        let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);

        let mut rng2 = TensorRng::new(53);
        let old = reg
            .load_and_swap_guarded(&path, hep_small(&mut rng2), &probe, Some(&source))
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(old.iteration, 0);
        assert_eq!(reg.current().iteration, 9);
        assert!(!reg.breaker_open());
        assert_eq!(reg.consecutive_failures(), 0);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected_and_previous_model_keeps_serving() {
        let mut rng = TensorRng::new(54);
        let source = hep_small(&mut rng);
        let path = tmp("guarded_corrupt");
        Checkpoint::capture(&source, 9, 1).save(&path).unwrap();
        // Flip one byte of the payload: the file-format checksum must
        // catch it at load, before any publication.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let mut rngr = TensorRng::new(55);
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 7, 0));
        let mut xr = TensorRng::new(56);
        let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);

        let mut rng2 = TensorRng::new(57);
        let err = reg
            .load_and_swap_guarded(&path, hep_small(&mut rng2), &probe, Some(&source))
            .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SwapError::Load(_)), "{err}");
        assert_eq!(reg.current().iteration, 7, "previous model keeps serving");
        assert_eq!(reg.consecutive_failures(), 1);
        assert!(!reg.breaker_open(), "one failure is below the threshold");
    }

    #[test]
    fn guarded_swap_rejects_nonfinite_weights() {
        // Poison either end of the network: the output layer feeds the
        // logits directly; the whole first block (`conv1.weight`) has two
        // ReLUs and two max-pools between it and them, none of which may
        // launder the NaN into a finite activation.
        for poisoned in ["fc.weight", "conv1.weight"] {
            let mut rng = TensorRng::new(58);
            let mut diverged = hep_small(&mut rng);
            for b in diverged.param_blocks_mut() {
                if b.name == poisoned {
                    b.value.data_mut().fill(f32::NAN);
                }
            }
            let path = tmp(&format!("guarded_nan_{poisoned}"));
            Checkpoint::capture(&diverged, 9, 1).save(&path).unwrap();

            let mut rngr = TensorRng::new(59);
            let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 7, 0));
            let mut xr = TensorRng::new(60);
            let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);

            // No round-trip source: the checkpoint is internally consistent
            // (it really holds NaN weights), so only the probe catches it.
            let mut rng2 = TensorRng::new(61);
            let err = reg
                .load_and_swap_guarded(&path, hep_small(&mut rng2), &probe, None)
                .unwrap_err();
            std::fs::remove_file(&path).ok();
            assert!(matches!(err, SwapError::NonFinite(_)), "{poisoned}: {err}");
            assert_eq!(reg.current().iteration, 7);
            assert_eq!(
                reg.consecutive_failures(),
                1,
                "{poisoned}: the refusal charges the breaker"
            );
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_reset_closes_it() {
        let mut rng = TensorRng::new(62);
        let source = hep_small(&mut rng);
        let path = tmp("guarded_breaker");
        Checkpoint::capture(&source, 9, 1).save(&path).unwrap();

        let mut rngr = TensorRng::new(63);
        // Chaos plan corrupts attempts 0, 1 and 2; threshold 3 opens on
        // the third failure.
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 7, 0)).with_faults(
            FaultPlan::none()
                .with_corrupt_swap(0)
                .with_corrupt_swap(1)
                .with_corrupt_swap(2),
        );
        let mut xr = TensorRng::new(64);
        let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);

        for want_open in [false, false, true] {
            let mut rng2 = TensorRng::new(65);
            let err = reg
                .load_and_swap_guarded(&path, hep_small(&mut rng2), &probe, Some(&source))
                .unwrap_err();
            assert!(matches!(err, SwapError::Load(_)), "{err}");
            assert_eq!(reg.breaker_open(), want_open);
        }
        // Open breaker fails fast without consuming a swap attempt.
        let attempts_before = reg.swap_attempts();
        let mut rng3 = TensorRng::new(66);
        let err = reg
            .load_and_swap_guarded(&path, hep_small(&mut rng3), &probe, Some(&source))
            .unwrap_err();
        assert!(
            matches!(err, SwapError::BreakerOpen { failures: 3 }),
            "{err}"
        );
        assert_eq!(reg.swap_attempts(), attempts_before);
        assert_eq!(reg.current().iteration, 7, "nothing published while open");

        // Reset: the (healthy) checkpoint now goes through.
        reg.reset_breaker();
        let mut rng4 = TensorRng::new(67);
        reg.load_and_swap_guarded(&path, hep_small(&mut rng4), &probe, Some(&source))
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(reg.current().iteration, 9);
        assert!(!reg.breaker_open());
    }

    /// Satellite regression: `reset_breaker` is not an amnesty — it only
    /// zeroes the streak. A *fresh* failure streak after the reset must
    /// reopen the breaker at the same threshold.
    #[test]
    fn breaker_reopens_after_reset_and_another_failure_streak() {
        let mut rng = TensorRng::new(70);
        let source = hep_small(&mut rng);
        let path = tmp("breaker_reopen");
        Checkpoint::capture(&source, 9, 1).save(&path).unwrap();

        let mut rngr = TensorRng::new(71);
        // Attempts 0-2 corrupt (first streak) and 3-5 corrupt (second
        // streak after the reset).
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 7, 0))
            .with_faults((0..6).fold(FaultPlan::none(), FaultPlan::with_corrupt_swap));
        let mut xr = TensorRng::new(72);
        let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);

        for _ in 0..3 {
            let mut rng2 = TensorRng::new(73);
            reg.load_and_swap_guarded(&path, hep_small(&mut rng2), &probe, Some(&source))
                .unwrap_err();
        }
        assert!(reg.breaker_open());
        reg.reset_breaker();
        assert!(!reg.breaker_open());
        assert_eq!(reg.consecutive_failures(), 0, "reset zeroes the streak");

        // Two failures after reset: still closed (streak restarted at 0).
        for _ in 0..2 {
            let mut rng3 = TensorRng::new(74);
            reg.load_and_swap_guarded(&path, hep_small(&mut rng3), &probe, Some(&source))
                .unwrap_err();
        }
        assert!(
            !reg.breaker_open(),
            "two post-reset failures are below threshold"
        );
        assert_eq!(reg.consecutive_failures(), 2);

        // Third failure of the new streak: reopens.
        let mut rng4 = TensorRng::new(75);
        reg.load_and_swap_guarded(&path, hep_small(&mut rng4), &probe, Some(&source))
            .unwrap_err();
        assert!(reg.breaker_open(), "a fresh streak reopens the breaker");
        std::fs::remove_file(&path).ok();
        assert_eq!(reg.current().iteration, 7, "nothing was ever published");
    }

    /// Satellite regression: a successful guarded swap fully clears the
    /// consecutive-failure count — a later isolated failure starts a new
    /// streak from zero instead of inheriting pre-success failures.
    #[test]
    fn successful_guarded_swap_clears_failure_streak() {
        let mut rng = TensorRng::new(76);
        let source = hep_small(&mut rng);
        let path = tmp("success_clears");
        Checkpoint::capture(&source, 9, 1).save(&path).unwrap();

        let mut rngr = TensorRng::new(77);
        // Attempts 0,1 corrupt; attempt 2 healthy; attempt 3 corrupt.
        // Threshold 3: without the clear-on-success, attempt 3 would be
        // the third cumulative failure and would wrongly open the breaker.
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 7, 0)).with_faults(
            FaultPlan::none()
                .with_corrupt_swap(0)
                .with_corrupt_swap(1)
                .with_corrupt_swap(3),
        );
        let mut xr = TensorRng::new(78);
        let probe = xr.uniform_tensor(Shape4::new(1, 3, 32, 32), -1.0, 1.0);

        for _ in 0..2 {
            let mut rng2 = TensorRng::new(79);
            reg.load_and_swap_guarded(&path, hep_small(&mut rng2), &probe, Some(&source))
                .unwrap_err();
        }
        assert_eq!(reg.consecutive_failures(), 2);
        let mut rng3 = TensorRng::new(80);
        reg.load_and_swap_guarded(&path, hep_small(&mut rng3), &probe, Some(&source))
            .unwrap();
        assert_eq!(
            reg.consecutive_failures(),
            0,
            "success fully clears the streak"
        );
        assert_eq!(reg.current().iteration, 9);

        let mut rng4 = TensorRng::new(81);
        reg.load_and_swap_guarded(&path, hep_small(&mut rng4), &probe, Some(&source))
            .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(reg.consecutive_failures(), 1, "new streak starts from zero");
        assert!(
            !reg.breaker_open(),
            "isolated post-success failure must not open"
        );
        assert_eq!(
            reg.current().iteration,
            9,
            "the promoted model keeps serving"
        );
    }

    /// A probe batch of constant, well-separated items (the shape the
    /// hep_small toy task trains on): smooth inputs where int8 argmax
    /// should track f32 argmax.
    fn separable_probe(n: usize) -> Tensor {
        let mut x = Tensor::zeros(Shape4::new(n, 3, 32, 32));
        for i in 0..n {
            let v = if i % 2 == 0 { 0.8 } else { -0.8 };
            x.item_mut(i).iter_mut().for_each(|p| *p = v);
        }
        x
    }

    #[test]
    fn quantized_guarded_swap_publishes_an_int8_model() {
        let mut rng = TensorRng::new(84);
        let source = hep_small(&mut rng);
        let path = tmp("quant_ok");
        Checkpoint::capture(&source, 11, 2).save(&path).unwrap();

        let mut rngr = TensorRng::new(85);
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 0, 0));
        let probe = separable_probe(6);

        let mut rng2 = TensorRng::new(86);
        let old = reg
            .load_and_swap_quantized_guarded(
                &path,
                hep_small(&mut rng2),
                &probe,
                Some(&source),
                0.34,
            )
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!old.is_quantized());
        let cur = reg.current();
        assert_eq!(cur.iteration, 11);
        assert!(cur.is_quantized(), "published snapshot must serve int8");
        // The published snapshot actually serves through the sidecar.
        let mut scratch = scidl_nn::InferScratch::new();
        let y = cur.infer_with(&probe, &mut scratch);
        assert!(y.all_finite());
        assert_eq!(reg.consecutive_failures(), 0);
    }

    #[test]
    fn quantized_guarded_swap_rejects_degrading_checkpoint() {
        // Craft a checkpoint whose int8 form loses the f32 decision
        // structure. Both output classes share one huge weight on feature
        // 0 (cancels in the argmax either way), which stretches the
        // per-layer int8 scale to 1e6/127 so the class-0 row's modest 1.0
        // weights all quantize to 0. A tiny class-1 bias then decides the
        // quantized argmax (bias is added in f32 *after* dequant) while
        // f32 still picks class 0 through the un-quantized 1.0 weights:
        //   f32:  logit0 - logit1 = Σ features - 1e-4  > 0  → class 0
        //   int8: logit0 - logit1 = 0 - 1e-4           < 0  → class 1
        let mut rng = TensorRng::new(87);
        let mut source = hep_small(&mut rng);
        {
            let blocks = source.param_blocks_mut();
            let mut fc_w = None;
            let mut fc_b = None;
            for b in blocks {
                match b.name.as_str() {
                    "fc.weight" => fc_w = Some(b),
                    "fc.bias" => fc_b = Some(b),
                    _ => {}
                }
            }
            let d = fc_w.expect("hep_small has an fc layer").value.data_mut();
            let in_len = d.len() / 2;
            // Class-0 row: survives f32, rounds to 0 in int8.
            d[..in_len].iter_mut().for_each(|w| *w = 1.0);
            d[in_len..].iter_mut().for_each(|w| *w = 0.0);
            d[0] = 1e6; // shared outlier: class-0 row, feature 0
            d[in_len] = 1e6; // shared outlier: class-1 row, feature 0
            let b = fc_b.expect("hep_small fc has a bias").value.data_mut();
            b[1] = 1e-4; // breaks the int8 tie toward class 1
        }
        let path = tmp("quant_reject");
        Checkpoint::capture(&source, 12, 3).save(&path).unwrap();

        let mut rngr = TensorRng::new(88);
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rngr), 7, 0));
        let probe = separable_probe(6);

        // Sanity: the f32 candidate itself passes every non-quant gate.
        let mut rng2 = TensorRng::new(89);
        let err = reg
            .load_and_swap_quantized_guarded(
                &path,
                hep_small(&mut rng2),
                &probe,
                Some(&source),
                0.1,
            )
            .unwrap_err();
        std::fs::remove_file(&path).ok();
        let SwapError::QuantizedAccuracy {
            disagreement,
            threshold,
        } = err
        else {
            panic!("expected QuantizedAccuracy, got {err}");
        };
        assert!(disagreement > threshold, "{disagreement} vs {threshold}");
        // Nothing published; the rejection charges the breaker.
        let cur = reg.current();
        assert_eq!(cur.iteration, 7, "f32 model keeps serving");
        assert!(!cur.is_quantized());
        assert_eq!(reg.consecutive_failures(), 1);
    }

    #[test]
    fn argmax_disagreement_counts_flipped_items() {
        let a = Tensor::from_vec(Shape4::new(2, 2, 1, 1), vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tensor::from_vec(Shape4::new(2, 2, 1, 1), vec![0.0, 1.0, 0.0, 1.0]);
        assert_eq!(argmax_disagreement(&a, &a), 0.0);
        assert_eq!(argmax_disagreement(&a, &b), 0.5);
    }

    /// Rollout failures charge the same breaker as rejected swaps.
    #[test]
    fn publish_and_rollout_hooks_drive_the_breaker() {
        let mut rng = TensorRng::new(82);
        let reg = ModelRegistry::new(ServingModel::new(hep_small(&mut rng), 1, 0));

        for _ in 0..2 {
            assert!(
                !reg.record_rollout_failure("canary_slo"),
                "failures below the threshold stay closed"
            );
        }
        assert_eq!(reg.consecutive_failures(), 2);
        assert!(
            reg.record_rollout_failure("canary_slo"),
            "threshold reached: opens"
        );
        assert!(reg.breaker_open());
        reg.reset_breaker();
        assert!(!reg.breaker_open());
    }
}
