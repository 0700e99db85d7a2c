//! Synthetic HEP event generator and cut-based benchmark analysis.
//!
//! Stands in for the paper's Pythia 8 + Delphes pipeline (Sec. I-A): we
//! generate two event classes —
//!
//! * **Background**: QCD multi-jet events. A mostly back-to-back dijet
//!   system plus soft radiation; steeply falling pT spectrum.
//! * **Signal**: pair-produced heavy particles ("gluinos"), each decaying
//!   into three jets collimated around the parent axis. Compared to
//!   background at the *same* HT, signal events carry more jets, a more
//!   spherical topology and locally *clustered* jet groups — structure
//!   visible in the low-level image but only partially captured by the
//!   high-level features the cut-based benchmark [5] uses.
//!
//! Events are rendered onto a cylindrical η–φ calorimeter image with
//! three channels (Table I/II): electromagnetic energy, hadronic energy
//! and track counts. A preselection keeps only events in an overlapping
//! HT window, mirroring the paper's filtering to "those more challenging
//! to discriminate".

use scidl_tensor::{Shape4, Tensor, TensorRng};

/// η acceptance of the detector image.
const ETA_MAX: f64 = 2.5;

/// One reconstructed jet.
#[derive(Clone, Copy, Debug)]
struct Jet {
    pt: f64,
    eta: f64,
    phi: f64,
    /// Electromagnetic energy fraction.
    em_frac: f64,
    /// Charged-track multiplicity.
    ntrk: usize,
}

/// High-level physics features of one event — the inputs to the paper's
/// benchmark selections (HT, jet counts, leading-jet pT).
#[derive(Clone, Copy, Debug, Default)]
pub struct HepFeatures {
    /// Scalar sum of jet transverse momenta (GeV).
    pub ht: f32,
    /// Number of jets above threshold.
    pub njets: u32,
    /// Leading-jet pT (GeV).
    pub leading_pt: f32,
    /// Total charged-track multiplicity.
    pub ntracks: u32,
}

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct HepConfig {
    /// Square image side in pixels (224 at paper scale).
    pub image_size: usize,
    /// Fraction of generated events that are signal (the paper trains on
    /// a filtered, roughly balanced sample carved from 6.4M signal + 64M
    /// background events).
    pub signal_fraction: f64,
    /// Apply the HT-window preselection that keeps only events in the
    /// signal/background overlap region.
    pub preselect: bool,
}

impl HepConfig {
    /// Paper-scale configuration: 224x224 images.
    pub fn paper() -> Self {
        Self {
            image_size: 224,
            signal_fraction: 0.5,
            preselect: true,
        }
    }

    /// Laptop-scale configuration: 32x32 images for fast training runs.
    pub fn small() -> Self {
        Self {
            image_size: 32,
            signal_fraction: 0.5,
            preselect: true,
        }
    }
}

/// An in-memory labelled HEP dataset.
pub struct HepDataset {
    /// Generator configuration used.
    pub config: HepConfig,
    /// Images `(n, 3, s, s)`.
    pub images: Tensor,
    /// Labels: 1 = signal, 0 = background.
    pub labels: Vec<usize>,
    /// High-level features per event (for the cut-based baseline).
    pub features: Vec<HepFeatures>,
}

impl HepDataset {
    /// Generates `n` events deterministically from `seed`.
    pub fn generate(config: HepConfig, n: usize, seed: u64) -> Self {
        let s = config.image_size;
        let mut rng = TensorRng::new(seed ^ 0x4845_5045);
        let mut images = Tensor::zeros(Shape4::new(n, 3, s, s));
        let mut labels = Vec::with_capacity(n);
        let mut features = Vec::with_capacity(n);

        for i in 0..n {
            let is_signal = rng.bernoulli(config.signal_fraction);
            let (jets, feats) = loop {
                let jets = if is_signal {
                    gen_signal_jets(&mut rng)
                } else {
                    gen_background_jets(&mut rng)
                };
                let feats = compute_features(&jets);
                if !config.preselect || preselection(&feats) {
                    break (jets, feats);
                }
            };
            render_event(&jets, images.item_mut(i), s, &mut rng);
            labels.push(is_signal as usize);
            features.push(feats);
        }
        Self {
            config,
            images,
            labels,
            features,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Copies a batch of events by index into a fresh tensor + label vec.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let s = self.images.shape();
        let mut out = Tensor::zeros(s.with_n(indices.len()));
        let mut labels = Vec::with_capacity(indices.len());
        for (j, &i) in indices.iter().enumerate() {
            out.item_mut(j).copy_from_slice(self.images.item(i));
            labels.push(self.labels[i]);
        }
        (out, labels)
    }
}

/// The paper's preselection analogue: keep events in the HT/jet window
/// where the two classes overlap and discrimination is hard.
fn preselection(f: &HepFeatures) -> bool {
    f.ht > 600.0 && f.ht < 2200.0 && f.njets >= 3
}

fn compute_features(jets: &[Jet]) -> HepFeatures {
    let ht: f64 = jets.iter().map(|j| j.pt).sum();
    let leading = jets.iter().map(|j| j.pt).fold(0.0, f64::max);
    HepFeatures {
        ht: ht as f32,
        njets: jets.len() as u32,
        leading_pt: leading as f32,
        ntracks: jets.iter().map(|j| j.ntrk as u32).sum(),
    }
}

/// QCD multi-jet background: hard dijet system plus Poisson soft jets.
fn gen_background_jets(rng: &mut TensorRng) -> Vec<Jet> {
    let mut jets = Vec::new();
    // Falling leading-pT spectrum.
    let lead_pt = 250.0 + 260.0 * (-rng.uniform().max(1e-12).ln());
    let phi1 = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
    let eta1 = rng.normal_ms(0.0, 1.1).clamp(-ETA_MAX, ETA_MAX);
    jets.push(make_jet(rng, lead_pt, eta1, phi1, false));
    // Recoiling jet, roughly back-to-back with pT balance.
    let phi2 = wrap_phi(phi1 + std::f64::consts::PI + rng.normal_ms(0.0, 0.25));
    let eta2 = rng.normal_ms(0.0, 1.1).clamp(-ETA_MAX, ETA_MAX);
    let balance = rng.uniform_range(0.75, 1.0);
    jets.push(make_jet(rng, lead_pt * balance, eta2, phi2, false));
    // Soft radiation jets.
    let nsoft = rng.poisson(1.0);
    for _ in 0..nsoft {
        let pt = 40.0 + 90.0 * (-rng.uniform().max(1e-12).ln());
        let phi = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
        let eta = rng.normal_ms(0.0, 1.4).clamp(-ETA_MAX, ETA_MAX);
        jets.push(make_jet(rng, pt, eta, phi, false));
    }
    jets
}

/// Signal: two back-to-back heavy parents, each decaying into 2–3
/// resolved jets collimated around the parent axis (occasionally two
/// decay products merge into one jet, as a real jet algorithm would),
/// plus initial-state radiation. Jet multiplicity therefore *overlaps*
/// the background's — the cut baseline retains discriminating power but
/// cannot see the angular clustering the CNN exploits.
fn gen_signal_jets(rng: &mut TensorRng) -> Vec<Jet> {
    let mut jets = Vec::new();
    let parent_phi = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
    for side in 0..2 {
        let phi0 =
            wrap_phi(parent_phi + side as f64 * std::f64::consts::PI + rng.normal_ms(0.0, 0.15));
        let eta0 = rng.normal_ms(0.0, 0.9).clamp(-1.8, 1.8);
        // Parent energy split over the decay jets; with some probability
        // two products merge and are reconstructed as one jet.
        let parent_pt = rng.normal_ms(560.0, 150.0).max(200.0);
        let merged = rng.bernoulli(0.4);
        let fracs: Vec<f64> = if merged {
            let a = rng.uniform_range(0.35, 0.65);
            vec![a, 1.0 - a]
        } else {
            let mut f = [
                rng.uniform() + 0.2,
                rng.uniform() + 0.2,
                rng.uniform() + 0.2,
            ];
            let s: f64 = f.iter().sum();
            f.iter_mut().for_each(|x| *x /= s);
            f.to_vec()
        };
        for &frac in &fracs {
            let d_eta = rng.normal_ms(0.0, 0.4);
            let d_phi = rng.normal_ms(0.0, 0.4);
            jets.push(make_jet(
                rng,
                (parent_pt * frac).max(25.0),
                (eta0 + d_eta).clamp(-ETA_MAX, ETA_MAX),
                wrap_phi(phi0 + d_phi),
                true,
            ));
        }
    }
    // Initial-state radiation, indistinguishable from background soft jets.
    let nisr = rng.poisson(0.7);
    for _ in 0..nisr {
        let pt = 40.0 + 80.0 * (-rng.uniform().max(1e-12).ln());
        let phi = rng.uniform_range(-std::f64::consts::PI, std::f64::consts::PI);
        let eta = rng.normal_ms(0.0, 1.4).clamp(-ETA_MAX, ETA_MAX);
        jets.push(make_jet(rng, pt, eta, phi, false));
    }
    jets
}

fn make_jet(rng: &mut TensorRng, pt: f64, eta: f64, phi: f64, signal: bool) -> Jet {
    // Signal jets (from heavy-flavour-rich decays) are slightly
    // track-richer and less electromagnetic at the same pT — low-level
    // structure the HT/njet cuts cannot exploit, but with substantial
    // overlap so the CNN's advantage stays moderate.
    let em_frac = if signal {
        rng.uniform_range(0.2, 0.6)
    } else {
        rng.uniform_range(0.3, 0.75)
    };
    let trk_rate = if signal { pt / 7.5 } else { pt / 9.0 };
    Jet {
        pt,
        eta,
        phi,
        em_frac,
        ntrk: rng.poisson(trk_rate.min(80.0)),
    }
}

#[inline]
fn wrap_phi(phi: f64) -> f64 {
    let mut p = phi;
    while p > std::f64::consts::PI {
        p -= std::f64::consts::TAU;
    }
    while p < -std::f64::consts::PI {
        p += std::f64::consts::TAU;
    }
    p
}

/// Renders jets into the 3-channel image (`item` is one NCHW batch item,
/// channel-major): channel 0 ECAL, 1 HCAL, 2 tracks. φ wraps cylindrically
/// (the image seam is periodic, like the real detector).
fn render_event(jets: &[Jet], item: &mut [f32], s: usize, rng: &mut TensorRng) {
    let plane = s * s;
    let to_px_eta = |eta: f64| (eta + ETA_MAX) / (2.0 * ETA_MAX) * s as f64;
    let to_px_phi = |phi: f64| (phi + std::f64::consts::PI) / std::f64::consts::TAU * s as f64;

    for jet in jets {
        let cx = to_px_eta(jet.eta);
        let cy = to_px_phi(jet.phi);
        // Calorimeter splash: ECAL narrow, HCAL wide. Widths in pixels,
        // scaled with the image so small images keep the same topology.
        let sigma_em = 0.030 * s as f64;
        let sigma_had = 0.060 * s as f64;
        let amp = (1.0 + jet.pt / 100.0).ln() as f32;
        deposit_gaussian(
            &mut item[0..plane],
            s,
            cx,
            cy,
            sigma_em,
            amp * jet.em_frac as f32,
        );
        deposit_gaussian(
            &mut item[plane..2 * plane],
            s,
            cx,
            cy,
            sigma_had,
            amp * (1.0 - jet.em_frac) as f32,
        );
        // Discrete track hits scattered around the core.
        let trk_plane = &mut item[2 * plane..3 * plane];
        for _ in 0..jet.ntrk {
            let hx = cx + rng.normal_ms(0.0, sigma_em);
            let hy = cy + rng.normal_ms(0.0, sigma_em);
            let x = hx.rem_euclid(s as f64) as usize % s;
            let y = hy.rem_euclid(s as f64) as usize % s;
            trk_plane[y * s + x] += 0.25;
        }
    }
}

/// Adds a truncated Gaussian blob; y (φ) wraps, x (η) clips.
fn deposit_gaussian(plane: &mut [f32], s: usize, cx: f64, cy: f64, sigma: f64, amp: f32) {
    let r = (3.0 * sigma).ceil() as isize;
    let x0 = cx.floor() as isize;
    let y0 = cy.floor() as isize;
    let inv2s2 = 1.0 / (2.0 * sigma * sigma);
    for dy in -r..=r {
        let y = (y0 + dy).rem_euclid(s as isize) as usize;
        for dx in -r..=r {
            let x = x0 + dx;
            if x < 0 || x >= s as isize {
                continue;
            }
            let fx = x as f64 + 0.5 - cx;
            let fy = (y0 + dy) as f64 + 0.5 - cy;
            let w = (-((fx * fx + fy * fy) * inv2s2)).exp() as f32;
            plane[y * s + x as usize] += amp * w;
        }
    }
}

// ---------------------------------------------------------------------------
// Cut-based benchmark analysis (the paper's baseline, Sec. I-A / VII-A).
// ---------------------------------------------------------------------------

/// A benchmark selection: an event passes when every feature exceeds its
/// threshold. This mirrors the physics-motivated selections of [5]
/// (HT, jet multiplicity and leading-jet pT cuts).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutSelection {
    /// Minimum HT (GeV).
    pub ht_min: f32,
    /// Minimum jet multiplicity.
    pub njets_min: u32,
    /// Minimum leading-jet pT (GeV).
    pub leading_min: f32,
}

impl CutSelection {
    /// Whether an event passes the selection.
    pub fn passes(&self, f: &HepFeatures) -> bool {
        f.ht >= self.ht_min && f.njets >= self.njets_min && f.leading_pt >= self.leading_min
    }
}

/// (false-positive rate, true-positive rate) of a selection on a dataset.
pub fn selection_rates(sel: &CutSelection, ds: &HepDataset) -> (f64, f64) {
    let mut tp = 0u64;
    let mut fp = 0u64;
    let mut pos = 0u64;
    let mut neg = 0u64;
    for (f, &l) in ds.features.iter().zip(&ds.labels) {
        let pass = sel.passes(f);
        if l == 1 {
            pos += 1;
            tp += pass as u64;
        } else {
            neg += 1;
            fp += pass as u64;
        }
    }
    (fp as f64 / neg.max(1) as f64, tp as f64 / pos.max(1) as f64)
}

/// Grid-searches cut thresholds to maximise TPR subject to
/// `FPR <= fpr_budget`; returns the best selection and its (FPR, TPR).
/// This is our re-implementation of tuning the benchmark analysis of [5]
/// at the working point the paper evaluates (FPR = 0.02%, Sec. VII-A).
pub fn tune_cuts(ds: &HepDataset, fpr_budget: f64) -> (CutSelection, f64, f64) {
    let mut best = (
        CutSelection {
            ht_min: f32::MAX,
            njets_min: 99,
            leading_min: f32::MAX,
        },
        0.0,
        0.0,
    );
    for ht in (600..2300).step_by(100) {
        for nj in 3..9 {
            for lead in (100..900).step_by(100) {
                let sel = CutSelection {
                    ht_min: ht as f32,
                    njets_min: nj,
                    leading_min: lead as f32,
                };
                let (fpr, tpr) = selection_rates(&sel, ds);
                if fpr <= fpr_budget && tpr > best.2 {
                    best = (sel, fpr, tpr);
                }
            }
        }
    }
    best
}

/// TPR of a score-based classifier at the largest threshold whose
/// FPR ≤ `fpr_budget` (the metric of Sec. VII-A).
pub fn tpr_at_fpr(scores: &[f32], labels: &[usize], fpr_budget: f64) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let pos = labels.iter().filter(|&&l| l == 1).count().max(1) as f64;
    let neg = labels.iter().filter(|&&l| l == 0).count().max(1) as f64;
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut best_tpr = 0.0;
    for &i in &order {
        if labels[i] == 1 {
            tp += 1.0;
        } else {
            fp += 1.0;
            if fp / neg > fpr_budget {
                break;
            }
        }
        if fp / neg <= fpr_budget {
            best_tpr = tp / pos;
        }
    }
    best_tpr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ds(n: usize, seed: u64) -> HepDataset {
        HepDataset::generate(HepConfig::small(), n, seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_ds(16, 7);
        let b = small_ds(16, 7);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.images.data(), b.images.data());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_ds(16, 7);
        let b = small_ds(16, 8);
        assert_ne!(a.images.data(), b.images.data());
    }

    #[test]
    fn label_balance_follows_config() {
        let ds = small_ds(600, 1);
        let sig = ds.labels.iter().sum::<usize>() as f64 / ds.len() as f64;
        assert!((sig - 0.5).abs() < 0.08, "signal fraction {sig}");
    }

    #[test]
    fn images_are_finite_and_nonnegative() {
        let ds = small_ds(32, 3);
        assert!(ds.images.all_finite());
        assert!(ds.images.min() >= 0.0);
        assert!(ds.images.max() > 0.0, "images should have energy deposits");
    }

    #[test]
    fn preselection_bounds_ht() {
        let ds = small_ds(200, 5);
        for f in &ds.features {
            assert!(f.ht > 600.0 && f.ht < 2200.0, "HT {} outside window", f.ht);
            assert!(f.njets >= 3);
        }
    }

    #[test]
    fn signal_has_more_jets_on_average() {
        let ds = small_ds(400, 11);
        let mean = |lbl: usize| {
            let v: Vec<f64> = ds
                .features
                .iter()
                .zip(&ds.labels)
                .filter(|(_, &l)| l == lbl)
                .map(|(f, _)| f.njets as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(1) > mean(0),
            "signal {} vs background {}",
            mean(1),
            mean(0)
        );
    }

    #[test]
    fn signal_is_track_richer() {
        let ds = small_ds(400, 13);
        let mean = |lbl: usize| {
            let v: Vec<f64> = ds
                .features
                .iter()
                .zip(&ds.labels)
                .filter(|(_, &l)| l == lbl)
                .map(|(f, _)| f.ntracks as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(1) > mean(0));
    }

    #[test]
    fn gather_copies_requested_items() {
        let ds = small_ds(10, 17);
        let (batch, labels) = ds.gather(&[3, 7]);
        assert_eq!(batch.shape().n, 2);
        assert_eq!(labels, vec![ds.labels[3], ds.labels[7]]);
        assert_eq!(batch.item(0), ds.images.item(3));
    }

    #[test]
    fn cuts_separate_better_than_chance_but_imperfectly() {
        let ds = small_ds(2000, 23);
        let (sel, fpr, tpr) = tune_cuts(&ds, 0.05);
        assert!(fpr <= 0.05, "fpr {fpr}");
        assert!(
            tpr > 0.05,
            "cuts should do better than nothing: tpr {tpr} sel {sel:?}"
        );
        assert!(
            tpr < 0.98,
            "cuts should not be perfect on the filtered sample: tpr {tpr}"
        );
    }

    #[test]
    fn tpr_at_fpr_perfect_scores() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let labels = vec![1, 1, 0, 0];
        assert_eq!(tpr_at_fpr(&scores, &labels, 0.0), 1.0);
    }

    #[test]
    fn tpr_at_fpr_respects_budget() {
        // One FP ranked above the second TP.
        let scores = vec![0.9, 0.85, 0.8, 0.1];
        let labels = vec![1, 0, 1, 0];
        // Budget 0: only the top positive counts before the FP arrives.
        assert_eq!(tpr_at_fpr(&scores, &labels, 0.0), 0.5);
        // Budget 0.5 (one of two negatives): both positives reachable.
        assert_eq!(tpr_at_fpr(&scores, &labels, 0.5), 1.0);
    }

    #[test]
    fn background_ht_spectrum_falls() {
        let ds = HepDataset::generate(
            HepConfig {
                signal_fraction: 0.0,
                ..HepConfig::small()
            },
            1500,
            41,
        );
        let low = ds.features.iter().filter(|f| f.ht < 1000.0).count();
        let high = ds.features.iter().filter(|f| f.ht >= 1400.0).count();
        assert!(
            low > 2 * high,
            "QCD HT spectrum should fall: {low} low vs {high} high"
        );
    }

    /// Background dijets are back-to-back in φ: the two hardest jets'
    /// energy should concentrate in opposite image halves more often
    /// than not. We proxy this with the φ separation of the two leading
    /// deposits being biased toward π.
    #[test]
    fn background_leading_jets_are_back_to_back() {
        let mut near = 0;
        let mut far = 0;
        // Regenerate raw jets directly for a clean measurement.
        let mut rng = TensorRng::new(77);
        for _ in 0..500 {
            let jets = gen_background_jets(&mut rng);
            let mut sorted = jets.clone();
            sorted.sort_by(|a, b| b.pt.partial_cmp(&a.pt).unwrap());
            let dphi = wrap_phi(sorted[0].phi - sorted[1].phi).abs();
            if dphi > std::f64::consts::PI / 2.0 {
                far += 1;
            } else {
                near += 1;
            }
        }
        assert!(
            far > 3 * near,
            "dijets should be back-to-back: {far} far vs {near} near"
        );
    }

    /// Signal decay jets cluster: the mean φ separation between a signal
    /// event's two most collimated jets is far below the background's.
    #[test]
    fn signal_jets_cluster_tighter_than_background() {
        let mut rng = TensorRng::new(79);
        let min_sep = |jets: &[Jet]| -> f64 {
            let mut best = f64::MAX;
            for i in 0..jets.len() {
                for j in i + 1..jets.len() {
                    let deta = jets[i].eta - jets[j].eta;
                    let dphi = wrap_phi(jets[i].phi - jets[j].phi);
                    best = best.min((deta * deta + dphi * dphi).sqrt());
                }
            }
            best
        };
        let n = 400;
        let sig: f64 = (0..n)
            .map(|_| min_sep(&gen_signal_jets(&mut rng)))
            .sum::<f64>()
            / n as f64;
        let bkg: f64 = (0..n)
            .map(|_| min_sep(&gen_background_jets(&mut rng)))
            .sum::<f64>()
            / n as f64;
        assert!(
            sig < 0.8 * bkg,
            "signal decay products should be collimated: {sig:.3} vs {bkg:.3}"
        );
    }

    /// φ is uniformly populated over many events (no detector azimuthal
    /// bias): the energy in each of four φ quadrants agrees within 20%.
    #[test]
    fn phi_occupancy_is_uniform_in_aggregate() {
        let ds = small_ds(300, 47);
        let s = ds.config.image_size;
        let mut quadrant = [0.0f64; 4];
        for i in 0..ds.len() {
            let item = ds.images.item(i);
            for y in 0..s {
                let q = y * 4 / s;
                for x in 0..s {
                    quadrant[q] += item[y * s + x] as f64; // ECAL channel
                }
            }
        }
        let mean = quadrant.iter().sum::<f64>() / 4.0;
        for (q, &e) in quadrant.iter().enumerate() {
            assert!(
                (e - mean).abs() / mean < 0.2,
                "quadrant {q} energy {e:.1} deviates from mean {mean:.1}"
            );
        }
    }

    #[test]
    fn phi_wraps_cylindrically() {
        assert!((wrap_phi(4.0) - (4.0 - std::f64::consts::TAU)).abs() < 1e-12);
        assert!((wrap_phi(-4.0) - (-4.0 + std::f64::consts::TAU)).abs() < 1e-12);
        assert_eq!(wrap_phi(1.0), 1.0);
    }
}
