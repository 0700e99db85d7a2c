//! Synthetic climate-simulation frames with embedded extreme-weather
//! events and ground-truth bounding boxes.
//!
//! Stands in for the paper's 15TB CAM5 archive (Sec. I-B). Each frame is
//! a multi-channel atmospheric state image: smooth large-scale background
//! fields (generated as sums of random low-frequency harmonics with a
//! latitudinal gradient) into which extreme-weather events are written:
//!
//! * **Tropical cyclone (TC)** — compact vortex: strong local maximum in
//!   integrated water vapour (TMQ), deep sea-level-pressure minimum,
//!   rotational wind signature, in the tropics band.
//! * **Extra-tropical cyclone (ETC)** — a broader, weaker, comma-shaped
//!   vortex at mid-latitudes.
//! * **Atmospheric river (AR)** — a long, narrow filament of high TMQ
//!   stretching from the tropics poleward.
//!
//! These are the three event classes of Sec. VII-B. Only a configurable
//! fraction of frames carries labels, matching the semi-supervised
//! setting.

use scidl_tensor::{Shape4, Tensor, TensorRng};

/// Channel indices with physical meaning; remaining channels are
/// generic correlated state variables (the real data has 16+ variables:
/// temperature, humidity and wind at multiple levels, etc.).
pub mod channel {
    /// Integrated water vapour (TMQ) — the variable plotted in Fig. 9.
    pub const TMQ: usize = 0;
    /// Sea-level pressure.
    pub const PSL: usize = 1;
    /// Zonal wind.
    pub const U: usize = 2;
    /// Meridional wind.
    pub const V: usize = 3;
}

/// Extreme-weather classes (Sec. VII-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// Tropical cyclone.
    TropicalCyclone = 0,
    /// Extra-tropical cyclone.
    ExtraTropicalCyclone = 1,
    /// Atmospheric river.
    AtmosphericRiver = 2,
}

impl EventClass {
    /// Class index (0-based, matching the class head).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::TropicalCyclone => "TC",
            EventClass::ExtraTropicalCyclone => "ETC",
            EventClass::AtmosphericRiver => "AR",
        }
    }
}

/// A ground-truth box in normalised image coordinates (centre format).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GtBox {
    /// Event class.
    pub class: usize,
    /// Centre x in `[0, 1]`.
    pub cx: f32,
    /// Centre y in `[0, 1]`.
    pub cy: f32,
    /// Width in `[0, 1]`.
    pub w: f32,
    /// Height in `[0, 1]`.
    pub h: f32,
}

/// One climate frame: the multi-channel image, its ground-truth boxes and
/// whether the labels are visible to training (semi-supervised setting).
#[derive(Debug)]
pub struct ClimateSample {
    /// The frame `(1, channels, s, s)`.
    pub image: Tensor,
    /// Ground-truth event boxes (always generated; hidden when
    /// `labelled == false`).
    pub boxes: Vec<GtBox>,
    /// Whether this frame's boxes are available for supervised training.
    pub labelled: bool,
}

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClimateConfig {
    /// Square image side (768 at paper scale).
    pub image_size: usize,
    /// Channel count (16 at paper scale).
    pub channels: usize,
    /// Mean number of events per frame.
    pub events_per_frame: f64,
    /// Fraction of frames that carry labels.
    pub labelled_fraction: f64,
}

impl ClimateConfig {
    /// Paper-scale configuration: 768x768x16.
    pub fn paper() -> Self {
        Self {
            image_size: 768,
            channels: 16,
            events_per_frame: 2.5,
            labelled_fraction: 0.5,
        }
    }

    /// Laptop-scale configuration: 64x64x4 for fast tests/training.
    pub fn small() -> Self {
        Self {
            image_size: 64,
            channels: 4,
            events_per_frame: 2.0,
            labelled_fraction: 0.5,
        }
    }
}

/// An in-memory climate dataset.
#[derive(Debug)]
pub struct ClimateDataset {
    /// Generator configuration used.
    pub config: ClimateConfig,
    /// The frames.
    pub samples: Vec<ClimateSample>,
}

impl ClimateDataset {
    /// Generates `n` frames deterministically from `seed`.
    pub fn generate(config: ClimateConfig, n: usize, seed: u64) -> Self {
        let mut rng = TensorRng::new(seed ^ 0x434C_494D);
        let samples = (0..n)
            .map(|i| generate_frame(&config, &mut rng.fork(i as u64)))
            .collect();
        Self { config, samples }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Stacks frames `indices` into one `(k, c, s, s)` batch tensor,
    /// returning the per-frame box lists alongside (empty for unlabelled
    /// frames).
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<Vec<GtBox>>) {
        assert!(!indices.is_empty());
        let s = self.samples[indices[0]].image.shape();
        let mut out = Tensor::zeros(Shape4::new(indices.len(), s.c, s.h, s.w));
        let mut boxes = Vec::with_capacity(indices.len());
        for (j, &i) in indices.iter().enumerate() {
            let sample = &self.samples[i];
            out.item_mut(j).copy_from_slice(sample.image.data());
            boxes.push(if sample.labelled {
                sample.boxes.clone()
            } else {
                Vec::new()
            });
        }
        (out, boxes)
    }
}

/// Generates one frame: background fields + embedded events.
fn generate_frame(config: &ClimateConfig, rng: &mut TensorRng) -> ClimateSample {
    let s = config.image_size;
    let c = config.channels;
    let mut image = Tensor::zeros(Shape4::new(1, c, s, s));

    render_background(&mut image, rng);

    let n_events = rng.poisson(config.events_per_frame).min(6);
    let mut boxes = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let class = match rng.below(3) {
            0 => EventClass::TropicalCyclone,
            1 => EventClass::ExtraTropicalCyclone,
            _ => EventClass::AtmosphericRiver,
        };
        boxes.push(render_event(&mut image, class, rng));
    }

    ClimateSample {
        image,
        boxes,
        labelled: rng.bernoulli(config.labelled_fraction),
    }
}

/// Smooth large-scale background: latitudinal gradient plus a few random
/// low-frequency harmonics per channel; channels beyond the named four are
/// correlated mixtures so the autoencoder has cross-channel structure to
/// learn.
fn render_background(image: &mut Tensor, rng: &mut TensorRng) {
    let shape = image.shape();
    let (c, s) = (shape.c, shape.h);
    let mut modes = Vec::new();
    for _ in 0..4 {
        modes.push((
            rng.uniform_range(0.5, 3.0), // kx
            rng.uniform_range(0.5, 3.0), // ky
            rng.uniform_range(0.0, std::f64::consts::TAU),
            rng.uniform_range(0.1, 0.3), // amplitude
        ));
    }
    for ch in 0..c {
        let phase_shift = ch as f64 * 0.7;
        let lat_strength = match ch {
            channel::TMQ => 0.5,  // moist tropics
            channel::PSL => -0.2, // weak gradient
            _ => 0.2,
        };
        let plane_off = ch * s * s;
        for y in 0..s {
            // "Latitude": y=0 north pole, y=s equator-ish band in middle.
            let lat = (y as f64 / s as f64 - 0.5).abs() * 2.0; // 0 at equator
            let lat_term = lat_strength * (1.0 - lat);
            for x in 0..s {
                let mut v = lat_term;
                for &(kx, ky, ph, amp) in &modes {
                    v += amp
                        * ((kx * x as f64 / s as f64 * std::f64::consts::TAU
                            + ky * y as f64 / s as f64 * std::f64::consts::TAU
                            + ph
                            + phase_shift)
                            .sin());
                }
                image.data_mut()[plane_off + y * s + x] = v as f32;
            }
        }
    }
    // Small measurement noise.
    for v in image.data_mut().iter_mut() {
        *v += rng.normal_ms(0.0, 0.02) as f32;
    }
}

/// Renders one event and returns its ground-truth box.
fn render_event(image: &mut Tensor, class: EventClass, rng: &mut TensorRng) -> GtBox {
    let shape = image.shape();
    let s = shape.h;
    match class {
        EventClass::TropicalCyclone => {
            // Compact vortex in the tropics band (middle third).
            let cx = rng.uniform_range(0.1, 0.9);
            let cy = rng.uniform_range(0.38, 0.62);
            let radius = rng.uniform_range(0.03, 0.06);
            render_vortex(image, cx, cy, radius, 1.6, rng);
            GtBox {
                class: class.index(),
                cx: cx as f32,
                cy: cy as f32,
                w: (radius * 2.4) as f32,
                h: (radius * 2.4) as f32,
            }
        }
        EventClass::ExtraTropicalCyclone => {
            // Broader, weaker vortex at mid-latitudes (top or bottom band).
            let cx = rng.uniform_range(0.1, 0.9);
            let cy = if rng.bernoulli(0.5) {
                rng.uniform_range(0.12, 0.3)
            } else {
                rng.uniform_range(0.7, 0.88)
            };
            let radius = rng.uniform_range(0.07, 0.12);
            render_vortex(image, cx, cy, radius, 0.8, rng);
            GtBox {
                class: class.index(),
                cx: cx as f32,
                cy: cy as f32,
                w: (radius * 2.4) as f32,
                h: (radius * 2.4) as f32,
            }
        }
        EventClass::AtmosphericRiver => {
            // Narrow TMQ filament from the tropics poleward.
            let x0 = rng.uniform_range(0.1, 0.7);
            let y0 = rng.uniform_range(0.45, 0.55);
            let len = rng.uniform_range(0.25, 0.45);
            let angle = rng.uniform_range(0.5, 1.2) * if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
            let width = rng.uniform_range(0.015, 0.03);
            let x1 = (x0 + len * angle.cos()).clamp(0.02, 0.98);
            let y1 = (y0 - len * angle.sin()).clamp(0.02, 0.98);
            render_filament(image, x0, y0, x1, y1, width, rng);
            let _ = s;
            GtBox {
                class: class.index(),
                cx: ((x0 + x1) / 2.0) as f32,
                cy: ((y0 + y1) / 2.0) as f32,
                w: ((x1 - x0).abs() + 2.0 * width) as f32,
                h: ((y1 - y0).abs() + 2.0 * width) as f32,
            }
        }
    }
}

/// Vortex signature: TMQ ring, PSL depression, tangential winds; `power`
/// scales intensity (TCs are sharper and stronger than ETCs).
fn render_vortex(
    image: &mut Tensor,
    cx: f64,
    cy: f64,
    radius: f64,
    power: f64,
    rng: &mut TensorRng,
) {
    let shape = image.shape();
    let (c, s) = (shape.c, shape.h);
    let px_cx = cx * s as f64;
    let px_cy = cy * s as f64;
    let px_r = (radius * s as f64).max(1.5);
    let extent = (px_r * 2.5).ceil() as isize;
    let x0 = px_cx as isize;
    let y0 = px_cy as isize;
    let spin = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };

    for dy in -extent..=extent {
        let y = y0 + dy;
        if y < 0 || y >= s as isize {
            continue;
        }
        for dx in -extent..=extent {
            let x = x0 + dx;
            if x < 0 || x >= s as isize {
                continue;
            }
            let fx = x as f64 + 0.5 - px_cx;
            let fy = y as f64 + 0.5 - px_cy;
            let r = (fx * fx + fy * fy).sqrt() / px_r;
            if r > 2.5 {
                continue;
            }
            let core = (-r * r).exp();
            let ring = (-(r - 1.0) * (r - 1.0) * 4.0).exp();
            let idx = |ch: usize| (ch * s + y as usize) * s + x as usize;
            let d = image.data_mut();
            // TMQ: moist ring + core.
            d[idx(channel::TMQ)] += (power * (0.7 * ring + 0.6 * core)) as f32;
            // PSL: deep low at the centre.
            d[idx(channel::PSL)] -= (power * core) as f32;
            // Tangential wind field (u, v) ∝ spin × (−fy, fx)/r.
            let denom = (fx * fx + fy * fy).sqrt().max(1e-6);
            let vmag = power * ring;
            if c > channel::U {
                d[idx(channel::U)] += (spin * vmag * (-fy / denom)) as f32;
            }
            if c > channel::V {
                d[idx(channel::V)] += (spin * vmag * (fx / denom)) as f32;
            }
            // Generic upper channels get a damped copy (correlated state).
            for ch in 4..c {
                d[idx(ch)] += (0.3 * power * core) as f32;
            }
        }
    }
}

/// Atmospheric-river filament: elevated TMQ along a line segment.
fn render_filament(
    image: &mut Tensor,
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    width: f64,
    _rng: &mut TensorRng,
) {
    let shape = image.shape();
    let (c, s) = (shape.c, shape.h);
    let (px0, py0) = (x0 * s as f64, y0 * s as f64);
    let (px1, py1) = (x1 * s as f64, y1 * s as f64);
    let w_px = (width * s as f64).max(1.0);
    let (dx, dy) = (px1 - px0, py1 - py0);
    let len2 = (dx * dx + dy * dy).max(1e-9);

    let xmin = (px0.min(px1) - 3.0 * w_px).max(0.0) as usize;
    let xmax = ((px0.max(px1) + 3.0 * w_px) as usize).min(s - 1);
    let ymin = (py0.min(py1) - 3.0 * w_px).max(0.0) as usize;
    let ymax = ((py0.max(py1) + 3.0 * w_px) as usize).min(s - 1);

    for y in ymin..=ymax {
        for x in xmin..=xmax {
            let fx = x as f64 + 0.5;
            let fy = y as f64 + 0.5;
            // Distance from the segment.
            let t = (((fx - px0) * dx + (fy - py0) * dy) / len2).clamp(0.0, 1.0);
            let ex = px0 + t * dx - fx;
            let ey = py0 + t * dy - fy;
            let dist = (ex * ex + ey * ey).sqrt() / w_px;
            if dist > 3.0 {
                continue;
            }
            let a = (-dist * dist).exp();
            let d = image.data_mut();
            d[(channel::TMQ * s + y) * s + x] += (1.2 * a) as f32;
            // Moisture transport: wind along the filament.
            if c > channel::V {
                let norm = len2.sqrt();
                d[(channel::U * s + y) * s + x] += (0.5 * a * dx / norm) as f32;
                d[(channel::V * s + y) * s + x] += (0.5 * a * dy / norm) as f32;
            }
        }
    }
}

/// Converts per-frame boxes into the grid targets consumed by
/// `scidl_nn::DetectionTargets` — one positive cell per box (the cell
/// containing the box centre), YOLO-style.
pub fn boxes_to_targets(
    boxes_per_item: &[Vec<GtBox>],
    grid: usize,
    classes: usize,
) -> scidl_nn::DetectionTargets {
    let n = boxes_per_item.len();
    let mut t = scidl_nn::DetectionTargets::empty(n, grid, grid, classes);
    for (i, boxes) in boxes_per_item.iter().enumerate() {
        for b in boxes {
            let gx = ((b.cx * grid as f32) as usize).min(grid - 1);
            let gy = ((b.cy * grid as f32) as usize).min(grid - 1);
            let ox = (b.cx * grid as f32 - gx as f32).clamp(0.0, 1.0);
            let oy = (b.cy * grid as f32 - gy as f32).clamp(0.0, 1.0);
            t.add_object(i, gy, gx, b.class, ox, oy, b.w, b.h);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ds(n: usize, seed: u64) -> ClimateDataset {
        ClimateDataset::generate(ClimateConfig::small(), n, seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_ds(4, 3);
        let b = small_ds(4, 3);
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.image.data(), y.image.data());
            assert_eq!(x.boxes, y.boxes);
            assert_eq!(x.labelled, y.labelled);
        }
    }

    #[test]
    fn frames_have_requested_shape() {
        let ds = small_ds(2, 5);
        let s = ds.samples[0].image.shape();
        assert_eq!(s, Shape4::new(1, 4, 64, 64));
        assert!(ds.samples[0].image.all_finite());
    }

    #[test]
    fn boxes_are_normalised() {
        let ds = small_ds(30, 7);
        for sample in &ds.samples {
            for b in &sample.boxes {
                assert!((0.0..=1.0).contains(&b.cx) && (0.0..=1.0).contains(&b.cy));
                assert!(b.w > 0.0 && b.h > 0.0 && b.w <= 1.0 && b.h <= 1.0);
                assert!(b.class < 3);
            }
        }
    }

    #[test]
    fn labelled_fraction_respected() {
        let ds = ClimateDataset::generate(
            ClimateConfig {
                labelled_fraction: 0.3,
                ..ClimateConfig::small()
            },
            500,
            11,
        );
        let frac = ds.samples.iter().filter(|s| s.labelled).count() as f64 / 500.0;
        assert!((frac - 0.3).abs() < 0.08, "labelled fraction {frac}");
    }

    #[test]
    fn tc_produces_local_tmq_maximum_and_psl_minimum() {
        let cfg = ClimateConfig {
            events_per_frame: 0.0,
            ..ClimateConfig::small()
        };
        let mut rng = TensorRng::new(42);
        let mut frame = generate_frame(&cfg, &mut rng);
        let before_tmq = frame.image.clone();
        let boxed = render_event(&mut frame.image, EventClass::TropicalCyclone, &mut rng);
        let s = 64;
        let cx = (boxed.cx * s as f32) as usize;
        let cy = (boxed.cy * s as f32) as usize;
        let idx = |ch: usize| (ch * s + cy) * s + cx;
        // PSL dropped at the centre; TMQ rose near the ring.
        assert!(frame.image.data()[idx(channel::PSL)] < before_tmq.data()[idx(channel::PSL)]);
        let tmq_delta: f32 = frame
            .image
            .data()
            .iter()
            .zip(before_tmq.data())
            .take(s * s)
            .map(|(a, b)| a - b)
            .sum();
        assert!(tmq_delta > 0.0, "TC must add water vapour");
    }

    #[test]
    fn gather_hides_unlabelled_boxes() {
        let ds = ClimateDataset::generate(
            ClimateConfig {
                labelled_fraction: 0.0,
                events_per_frame: 3.0,
                ..ClimateConfig::small()
            },
            4,
            13,
        );
        let (batch, boxes) = ds.gather(&[0, 1, 2, 3]);
        assert_eq!(batch.shape().n, 4);
        assert!(boxes.iter().all(|b| b.is_empty()));
        // Ground truth still exists on the samples themselves.
        assert!(ds.samples.iter().any(|s| !s.boxes.is_empty()));
    }

    #[test]
    fn targets_mark_box_centres() {
        let boxes = vec![vec![GtBox {
            class: 2,
            cx: 0.55,
            cy: 0.30,
            w: 0.2,
            h: 0.1,
        }]];
        let t = boxes_to_targets(&boxes, 8, 3);
        assert_eq!(t.positives(), 1);
        // cell (gy, gx) = (2, 4): 0.30*8=2.4 → 2; 0.55*8=4.4 → 4.
        let cell = 2 * 8 + 4;
        assert_eq!(t.conf[cell], 1.0);
        assert_eq!(t.class[cell], 2);
        // Offsets are the fractional parts.
        assert!((t.bbox[cell] - 0.4).abs() < 1e-5);
        assert!((t.bbox[64 + cell] - 0.4).abs() < 1e-5);
    }

    #[test]
    fn event_mix_covers_all_classes() {
        let ds = ClimateDataset::generate(
            ClimateConfig {
                events_per_frame: 3.0,
                ..ClimateConfig::small()
            },
            60,
            17,
        );
        let mut seen = [false; 3];
        for s in &ds.samples {
            for b in &s.boxes {
                seen[b.class] = true;
            }
        }
        assert!(
            seen.iter().all(|&x| x),
            "all three event classes should appear"
        );
    }
}
