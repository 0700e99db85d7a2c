//! Loss heads.
//!
//! * [`SoftmaxCrossEntropy`] — the HEP classifier's loss (Sec. III-A:
//!   "softmax with cross-entropy as the loss function").
//! * [`DetectionLoss`] — the climate network's semi-supervised objective
//!   (Sec. III-B): at every coarse-grid location the network predicts a
//!   confidence, class scores and a bounding box; the loss "attempts to
//!   simultaneously minimize the confidence of areas without a box,
//!   maximize those with a box, maximize the probability of the correct
//!   class for areas with a box, minimize the scale and location offset of
//!   the predicted box" — plus the autoencoder reconstruction error,
//!   provided here as [`mse_loss`].

use crate::activation::{sigmoid, sigmoid_grad_from_output};
use scidl_tensor::ops::softmax_inplace;
use scidl_tensor::{Shape4, Tensor};

/// Mean softmax cross-entropy over a batch of logits `(n, classes, 1, 1)`.
///
/// Returns the scalar loss and the gradient w.r.t. the logits (already
/// divided by the batch size, so solvers apply it directly).
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Computes loss and logit gradient for integer labels.
    pub fn forward(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let s = logits.shape();
        let classes = s.item_len();
        assert_eq!(s.n, labels.len(), "label count must match batch size");
        assert!(classes >= 2, "need at least two classes");

        let mut grad = logits.clone();
        let mut loss = 0.0f64;
        let inv_n = 1.0 / s.n as f32;
        for (i, &label) in labels.iter().enumerate() {
            assert!(label < classes, "label {label} out of range {classes}");
            let row = grad.item_mut(i);
            softmax_inplace(row);
            // Clamp to avoid log(0) for confidently wrong predictions.
            loss -= (row[label].max(1e-12) as f64).ln();
            row[label] -= 1.0;
            for v in row.iter_mut() {
                *v *= inv_n;
            }
        }
        ((loss / s.n as f64) as f32, grad)
    }

    /// Class probabilities (softmax of logits), for evaluation.
    pub fn probabilities(logits: &Tensor) -> Tensor {
        let mut p = logits.clone();
        for i in 0..p.shape().n {
            softmax_inplace(p.item_mut(i));
        }
        p
    }
}

/// Mean-squared-error loss `mean((pred - target)^2)` with gradient.
/// Used for the autoencoder reconstruction path of the climate network.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len().max(1) as f32;
    let mut grad = Tensor::zeros(pred.shape());
    let mut loss = 0.0f64;
    for ((g, &p), &t) in grad
        .data_mut()
        .iter_mut()
        .zip(pred.data())
        .zip(target.data())
    {
        let d = p - t;
        loss += (d as f64) * (d as f64);
        *g = 2.0 * d / n;
    }
    ((loss / n as f64) as f32, grad)
}

/// Ground-truth grid targets for the detection head.
///
/// The coarse grid is `grid_h x grid_w` (24x24 for the paper's 768-pixel
/// inputs after five stride-2 encodings). For each batch item and cell:
/// `conf` is 1 when an object's box centre falls in the cell; `class` is
/// the object class at positive cells; `bbox` holds `(x, y, w, h)` —
/// centre offsets within the cell in `[0,1]` and box size normalised by
/// the image size.
#[derive(Clone, Debug)]
pub struct DetectionTargets {
    /// Batch size.
    pub n: usize,
    /// Grid height.
    pub grid_h: usize,
    /// Grid width.
    pub grid_w: usize,
    /// Number of object classes.
    pub classes: usize,
    /// Objectness target per cell, `n * grid_h * grid_w`, values 0/1.
    pub conf: Vec<f32>,
    /// Class index per cell (only meaningful where `conf == 1`).
    pub class: Vec<usize>,
    /// Box regression targets, layout `n * 4 * grid_h * grid_w` (planar,
    /// matching the head's NCHW output).
    pub bbox: Vec<f32>,
}

impl DetectionTargets {
    /// An empty (all-negative) target grid.
    pub fn empty(n: usize, grid_h: usize, grid_w: usize, classes: usize) -> Self {
        let cells = n * grid_h * grid_w;
        Self {
            n,
            grid_h,
            grid_w,
            classes,
            conf: vec![0.0; cells],
            class: vec![0; cells],
            bbox: vec![0.0; n * 4 * grid_h * grid_w],
        }
    }

    /// Marks a ground-truth object for batch item `i` at cell `(gy, gx)`.
    ///
    /// `(ox, oy)` are the centre offsets within the cell in `[0,1]`;
    /// `(w, h)` the box size normalised to the image.
    #[allow(clippy::too_many_arguments)]
    pub fn add_object(
        &mut self,
        i: usize,
        gy: usize,
        gx: usize,
        class: usize,
        ox: f32,
        oy: f32,
        w: f32,
        h: f32,
    ) {
        assert!(
            i < self.n && gy < self.grid_h && gx < self.grid_w,
            "cell out of range"
        );
        assert!(class < self.classes, "class out of range");
        let cells = self.grid_h * self.grid_w;
        let cell = gy * self.grid_w + gx;
        self.conf[i * cells + cell] = 1.0;
        self.class[i * cells + cell] = class;
        let base = i * 4 * cells;
        self.bbox[base + cell] = ox;
        self.bbox[base + cells + cell] = oy;
        self.bbox[base + 2 * cells + cell] = w;
        self.bbox[base + 3 * cells + cell] = h;
    }

    /// Number of positive (object-bearing) cells.
    pub fn positives(&self) -> usize {
        self.conf.iter().filter(|&&c| c > 0.5).count()
    }
}

/// Scalar components of the detection objective.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectionLossParts {
    /// Binary cross-entropy of the confidence map.
    pub conf: f32,
    /// Softmax cross-entropy of the class map at positive cells.
    pub class: f32,
    /// Squared-error of the box regression at positive cells.
    pub bbox: f32,
}

impl DetectionLossParts {
    /// Sum of the supervised components.
    pub fn total(&self) -> f32 {
        self.conf + self.class + self.bbox
    }
}

/// The supervised half of the climate objective, YOLO-style
/// (Sec. III-B / [36]-[39]).
#[derive(Clone)]
pub struct DetectionLoss {
    /// Weight of the object-bearing confidence term (up-weighted because
    /// positive cells are rare on the coarse grid).
    pub lambda_obj: f32,
    /// Weight of the no-object confidence term (down-weighted because the
    /// vast majority of cells are negative).
    pub lambda_noobj: f32,
    /// Weight of the box-regression term.
    pub lambda_bbox: f32,
}

impl Default for DetectionLoss {
    fn default() -> Self {
        Self {
            lambda_obj: 1.0,
            lambda_noobj: 0.5,
            lambda_bbox: 5.0,
        }
    }
}

impl DetectionLoss {
    /// Computes the loss and head gradients.
    ///
    /// `conf_map` is `(n, 1, gh, gw)` logits; `class_map` is
    /// `(n, classes, gh, gw)` logits; `bbox_map` is `(n, 4, gh, gw)` raw
    /// regressions (x, y squashed through sigmoid internally; w, h linear).
    /// Returns the loss parts and the three gradients.
    pub fn forward(
        &self,
        conf_map: &Tensor,
        class_map: &Tensor,
        bbox_map: &Tensor,
        targets: &DetectionTargets,
    ) -> (DetectionLossParts, Tensor, Tensor, Tensor) {
        let (n, gh, gw, k) = (targets.n, targets.grid_h, targets.grid_w, targets.classes);
        assert_eq!(
            conf_map.shape(),
            Shape4::new(n, 1, gh, gw),
            "conf map shape"
        );
        assert_eq!(
            class_map.shape(),
            Shape4::new(n, k, gh, gw),
            "class map shape"
        );
        assert_eq!(
            bbox_map.shape(),
            Shape4::new(n, 4, gh, gw),
            "bbox map shape"
        );

        let cells = gh * gw;
        let total_cells = (n * cells) as f32;
        let positives = targets.positives().max(1) as f32;

        let mut parts = DetectionLossParts::default();
        let mut dconf = Tensor::zeros(conf_map.shape());
        let mut dclass = Tensor::zeros(class_map.shape());
        let mut dbbox = Tensor::zeros(bbox_map.shape());

        // Confidence: BCE with logits over every cell, normalised by the
        // total cell count; negatives are down-weighted by lambda_noobj.
        let mut conf_loss = 0.0f64;
        for idx in 0..n * cells {
            let t = targets.conf[idx];
            let logit = conf_map.data()[idx];
            let p = sigmoid(logit).clamp(1e-7, 1.0 - 1e-7);
            let w = if t > 0.5 {
                self.lambda_obj
            } else {
                self.lambda_noobj
            };
            conf_loss -=
                w as f64 * (t as f64 * (p as f64).ln() + (1.0 - t as f64) * (1.0 - p as f64).ln());
            dconf.data_mut()[idx] = w * (p - t) / total_cells;
        }
        parts.conf = (conf_loss / total_cells as f64) as f32;

        // Class: softmax CE at positive cells only, normalised by the
        // number of positives. Class channels are planar in NCHW, so we
        // gather a logit column per cell.
        let mut class_loss = 0.0f64;
        let mut col = vec![0.0f32; k];
        for i in 0..n {
            for cell in 0..cells {
                let t_idx = i * cells + cell;
                if targets.conf[t_idx] <= 0.5 {
                    continue;
                }
                let label = targets.class[t_idx];
                for (c, v) in col.iter_mut().enumerate() {
                    *v = class_map.data()[(i * k + c) * cells + cell];
                }
                softmax_inplace(&mut col);
                class_loss -= (col[label].max(1e-12) as f64).ln();
                col[label] -= 1.0;
                for (c, &v) in col.iter().enumerate() {
                    dclass.data_mut()[(i * k + c) * cells + cell] = v / positives;
                }
            }
        }
        parts.class = (class_loss / positives as f64) as f32;

        // BBox: squared error at positive cells; x, y pass through a
        // sigmoid (cell-relative offsets), w, h are linear.
        let mut bbox_loss = 0.0f64;
        for i in 0..n {
            for cell in 0..cells {
                let t_idx = i * cells + cell;
                if targets.conf[t_idx] <= 0.5 {
                    continue;
                }
                let tbase = i * 4 * cells;
                for ch in 0..4 {
                    let pidx = (i * 4 + ch) * cells + cell;
                    let raw = bbox_map.data()[pidx];
                    let t = targets.bbox[tbase + ch * cells + cell];
                    let (pred, dpred_draw) = if ch < 2 {
                        let s = sigmoid(raw);
                        (s, sigmoid_grad_from_output(s))
                    } else {
                        (raw, 1.0)
                    };
                    let d = pred - t;
                    bbox_loss += (d as f64) * (d as f64);
                    dbbox.data_mut()[pidx] = self.lambda_bbox * 2.0 * d * dpred_draw / positives;
                }
            }
        }
        parts.bbox = self.lambda_bbox * (bbox_loss / positives as f64) as f32;

        (parts, dconf, dclass, dbbox)
    }
}

/// A decoded detection: grid cell, class, confidence and image-normalised
/// box, produced by [`decode_detections`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Batch item index.
    pub item: usize,
    /// Predicted class.
    pub class: usize,
    /// Confidence in `[0, 1]`.
    pub confidence: f32,
    /// Box centre x in `[0, 1]` image coordinates.
    pub cx: f32,
    /// Box centre y in `[0, 1]` image coordinates.
    pub cy: f32,
    /// Box width, image-normalised.
    pub w: f32,
    /// Box height, image-normalised.
    pub h: f32,
}

/// Decodes head outputs into detections above a confidence threshold (the
/// paper keeps boxes with confidence > 0.8 at inference, > 0.95 for the
/// Fig. 9 plot).
pub fn decode_detections(
    conf_map: &Tensor,
    class_map: &Tensor,
    bbox_map: &Tensor,
    threshold: f32,
) -> Vec<Detection> {
    let s = conf_map.shape();
    let (n, gh, gw) = (s.n, s.h, s.w);
    let k = class_map.shape().c;
    let cells = gh * gw;
    let mut out = Vec::new();
    let mut col = vec![0.0f32; k];
    for i in 0..n {
        for gy in 0..gh {
            for gx in 0..gw {
                let cell = gy * gw + gx;
                let conf = sigmoid(conf_map.data()[i * cells + cell]);
                if conf < threshold {
                    continue;
                }
                for (c, v) in col.iter_mut().enumerate() {
                    *v = class_map.data()[(i * k + c) * cells + cell];
                }
                let class = scidl_tensor::ops::argmax(&col);
                let bbase = i * 4 * cells;
                let ox = sigmoid(bbox_map.data()[bbase + cell]);
                let oy = sigmoid(bbox_map.data()[bbase + cells + cell]);
                let w = bbox_map.data()[bbase + 2 * cells + cell].max(0.0);
                let h = bbox_map.data()[bbase + 3 * cells + cell].max(0.0);
                out.push(Detection {
                    item: i,
                    class,
                    confidence: conf,
                    cx: (gx as f32 + ox) / gw as f32,
                    cy: (gy as f32 + oy) / gh as f32,
                    w,
                    h,
                });
            }
        }
    }
    out
}

/// Intersection-over-union of two centre-format boxes in the same
/// normalised coordinate system.
pub fn iou(a: &Detection, b: &Detection) -> f32 {
    let ax0 = a.cx - a.w / 2.0;
    let ax1 = a.cx + a.w / 2.0;
    let ay0 = a.cy - a.h / 2.0;
    let ay1 = a.cy + a.h / 2.0;
    let bx0 = b.cx - b.w / 2.0;
    let bx1 = b.cx + b.w / 2.0;
    let by0 = b.cy - b.h / 2.0;
    let by1 = b.cy + b.h / 2.0;
    let ix = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
    let iy = (ay1.min(by1) - ay0.max(by0)).max(0.0);
    let inter = ix * iy;
    let union = a.w * a.h + b.w * b.h - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidl_tensor::TensorRng;

    #[test]
    fn softmax_ce_perfect_prediction_near_zero_loss() {
        let logits = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![20.0, -20.0]);
        let (loss, grad) = SoftmaxCrossEntropy::forward(&logits, &[0]);
        assert!(loss < 1e-6);
        assert!(grad.data()[0].abs() < 1e-6);
    }

    #[test]
    fn softmax_ce_uniform_logits_is_log_k() {
        let logits = Tensor::from_vec(Shape4::new(1, 4, 1, 1), vec![1.0; 4]);
        let (loss, _) = SoftmaxCrossEntropy::forward(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn softmax_ce_gradient_matches_fd() {
        let mut rng = TensorRng::new(4);
        let logits = rng.uniform_tensor(Shape4::new(3, 4, 1, 1), -1.0, 1.0);
        let labels = [1usize, 3, 0];
        let (_, grad) = SoftmaxCrossEntropy::forward(&logits, &labels);
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (lossp, _) = SoftmaxCrossEntropy::forward(&lp, &labels);
            let (lossm, _) = SoftmaxCrossEntropy::forward(&lm, &labels);
            let num = (lossp - lossm) / (2.0 * eps);
            assert!((grad.data()[idx] - num).abs() < 1e-2, "logit grad {idx}");
        }
    }

    #[test]
    fn softmax_ce_grad_sums_to_zero_per_item() {
        let mut rng = TensorRng::new(6);
        let logits = rng.uniform_tensor(Shape4::new(2, 3, 1, 1), -2.0, 2.0);
        let (_, grad) = SoftmaxCrossEntropy::forward(&logits, &[0, 2]);
        for i in 0..2 {
            let s: f32 = grad.item(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn mse_zero_for_identical() {
        let t = Tensor::from_flat(vec![1.0, 2.0, 3.0]);
        let (loss, grad) = mse_loss(&t, &t);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_gradient_matches_fd() {
        let mut rng = TensorRng::new(11);
        let pred = rng.uniform_tensor(Shape4::flat(6), -1.0, 1.0);
        let target = rng.uniform_tensor(Shape4::flat(6), -1.0, 1.0);
        let (_, grad) = mse_loss(&pred, &target);
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut pp = pred.clone();
            pp.data_mut()[idx] += eps;
            let mut pm = pred.clone();
            pm.data_mut()[idx] -= eps;
            let num = (mse_loss(&pp, &target).0 - mse_loss(&pm, &target).0) / (2.0 * eps);
            assert!((grad.data()[idx] - num).abs() < 1e-3);
        }
    }

    fn tiny_targets() -> DetectionTargets {
        let mut t = DetectionTargets::empty(1, 3, 3, 2);
        t.add_object(0, 1, 2, 1, 0.5, 0.25, 0.3, 0.4);
        t
    }

    #[test]
    fn detection_targets_bookkeeping() {
        let t = tiny_targets();
        assert_eq!(t.positives(), 1);
        assert_eq!(t.conf[3 + 2], 1.0);
        assert_eq!(t.class[3 + 2], 1);
        // bbox planar layout: x plane then y plane then w then h.
        let cells = 9;
        assert_eq!(t.bbox[cells + 5], 0.25); // y plane, cell (1,2)=idx5
    }

    #[test]
    fn detection_loss_gradients_match_fd() {
        let mut rng = TensorRng::new(21);
        let targets = tiny_targets();
        let conf = rng.uniform_tensor(Shape4::new(1, 1, 3, 3), -1.0, 1.0);
        let class = rng.uniform_tensor(Shape4::new(1, 2, 3, 3), -1.0, 1.0);
        let bbox = rng.uniform_tensor(Shape4::new(1, 4, 3, 3), -1.0, 1.0);
        let loss = DetectionLoss::default();
        let (parts, dconf, dclass, dbbox) = loss.forward(&conf, &class, &bbox, &targets);
        assert!(parts.total().is_finite());

        let eps = 1e-3f32;
        let eval = |c: &Tensor, k: &Tensor, b: &Tensor| loss.forward(c, k, b, &targets).0.total();

        for idx in 0..conf.len() {
            let mut cp = conf.clone();
            cp.data_mut()[idx] += eps;
            let mut cm = conf.clone();
            cm.data_mut()[idx] -= eps;
            let num = (eval(&cp, &class, &bbox) - eval(&cm, &class, &bbox)) / (2.0 * eps);
            assert!((dconf.data()[idx] - num).abs() < 1e-2, "conf grad {idx}");
        }
        for idx in 0..class.len() {
            let mut kp = class.clone();
            kp.data_mut()[idx] += eps;
            let mut km = class.clone();
            km.data_mut()[idx] -= eps;
            let num = (eval(&conf, &kp, &bbox) - eval(&conf, &km, &bbox)) / (2.0 * eps);
            assert!((dclass.data()[idx] - num).abs() < 1e-2, "class grad {idx}");
        }
        for idx in 0..bbox.len() {
            let mut bp = bbox.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = bbox.clone();
            bm.data_mut()[idx] -= eps;
            let num = (eval(&conf, &class, &bp) - eval(&conf, &class, &bm)) / (2.0 * eps);
            assert!((dbbox.data()[idx] - num).abs() < 5e-2, "bbox grad {idx}");
        }
    }

    #[test]
    fn bbox_regression_gradient_matches_fd_in_isolation() {
        // The bbox term alone, FD-checked against `parts.bbox` (not the
        // total): multiple positives across batch items exercise the
        // 1/positives normalisation, a non-default lambda the weighting,
        // and channels 0/1 vs 2/3 the sigmoid-vs-linear split.
        let mut targets = DetectionTargets::empty(2, 3, 3, 2);
        targets.add_object(0, 0, 1, 0, 0.2, 0.7, 0.5, 0.1);
        targets.add_object(0, 2, 2, 1, 0.9, 0.4, 0.2, 0.6);
        targets.add_object(1, 1, 0, 1, 0.5, 0.5, 0.8, 0.3);
        assert_eq!(targets.positives(), 3);

        let mut rng = TensorRng::new(33);
        let conf = rng.uniform_tensor(Shape4::new(2, 1, 3, 3), -1.0, 1.0);
        let class = rng.uniform_tensor(Shape4::new(2, 2, 3, 3), -1.0, 1.0);
        let bbox = rng.uniform_tensor(Shape4::new(2, 4, 3, 3), -1.5, 1.5);
        let loss = DetectionLoss {
            lambda_bbox: 2.5,
            ..DetectionLoss::default()
        };
        let (_, _, _, dbbox) = loss.forward(&conf, &class, &bbox, &targets);

        let bbox_term = |b: &Tensor| loss.forward(&conf, &class, b, &targets).0.bbox;
        let eps = 1e-3f32;
        let cells = 9;
        let mut nonzero = 0usize;
        for idx in 0..bbox.len() {
            let mut bp = bbox.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = bbox.clone();
            bm.data_mut()[idx] -= eps;
            let num = (bbox_term(&bp) - bbox_term(&bm)) / (2.0 * eps);
            assert!(
                (dbbox.data()[idx] - num).abs() < 5e-3,
                "bbox grad {idx}: analytic {} vs FD {num}",
                dbbox.data()[idx]
            );
            // Perturbing the other heads must not move the bbox term.
            let i = idx / (4 * cells);
            let cell = idx % cells;
            if targets.conf[i * cells + cell] <= 0.5 {
                assert_eq!(
                    dbbox.data()[idx],
                    0.0,
                    "negative cell {idx} must not regress"
                );
            } else if dbbox.data()[idx] != 0.0 {
                nonzero += 1;
            }
        }
        // All 4 channels of all 3 positive cells carry gradient.
        assert_eq!(nonzero, 12);
    }

    #[test]
    fn detection_loss_zero_gradient_at_perfect_prediction() {
        let targets = tiny_targets();
        // Perfect: conf logit huge at the positive cell, hugely negative
        // elsewhere; correct class; exact bbox.
        let mut conf = Tensor::filled(Shape4::new(1, 1, 3, 3), -30.0);
        conf.data_mut()[5] = 30.0;
        let mut class = Tensor::zeros(Shape4::new(1, 2, 3, 3));
        class.data_mut()[9 + 5] = 30.0; // class 1 plane
        class.data_mut()[5] = -30.0;
        let mut bbox = Tensor::zeros(Shape4::new(1, 4, 3, 3));
        bbox.data_mut()[5] = 0.0; // sigmoid(0)=0.5 == target x
                                  // target y 0.25 → logit ln(0.25/0.75)
        bbox.data_mut()[9 + 5] = (0.25f32 / 0.75).ln();
        bbox.data_mut()[18 + 5] = 0.3;
        bbox.data_mut()[27 + 5] = 0.4;
        let loss = DetectionLoss::default();
        let (parts, dconf, dclass, dbbox) = loss.forward(&conf, &class, &bbox, &targets);
        assert!(parts.total() < 1e-4, "loss {}", parts.total());
        assert!(dconf.norm() < 1e-4);
        assert!(dclass.norm() < 1e-4);
        assert!(dbbox.norm() < 1e-4);
    }

    #[test]
    fn decode_recovers_planted_box() {
        let mut conf = Tensor::filled(Shape4::new(1, 1, 4, 4), -10.0);
        conf.data_mut()[2 * 4 + 1] = 10.0; // cell (2,1)
        let mut class = Tensor::zeros(Shape4::new(1, 3, 4, 4));
        class.data_mut()[16 + 2 * 4 + 1] = 5.0; // class 1
        let mut bbox = Tensor::zeros(Shape4::new(1, 4, 4, 4));
        bbox.data_mut()[32 + 2 * 4 + 1] = 0.25; // w plane
        bbox.data_mut()[48 + 2 * 4 + 1] = 0.5; // h plane
        let dets = decode_detections(&conf, &class, &bbox, 0.8);
        assert_eq!(dets.len(), 1);
        let d = dets[0];
        assert_eq!(d.class, 1);
        assert!((d.cx - (1.0 + 0.5) / 4.0).abs() < 1e-5);
        assert!((d.cy - (2.0 + 0.5) / 4.0).abs() < 1e-5);
        assert!((d.w - 0.25).abs() < 1e-6);
        assert!((d.h - 0.5).abs() < 1e-6);
    }

    #[test]
    fn iou_identity_and_disjoint() {
        let a = Detection {
            item: 0,
            class: 0,
            confidence: 1.0,
            cx: 0.5,
            cy: 0.5,
            w: 0.2,
            h: 0.2,
        };
        assert!((iou(&a, &a) - 1.0).abs() < 1e-6);
        let b = Detection {
            cx: 0.1,
            cy: 0.1,
            ..a
        };
        assert_eq!(iou(&a, &b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = Detection {
            item: 0,
            class: 0,
            confidence: 1.0,
            cx: 0.5,
            cy: 0.5,
            w: 0.2,
            h: 0.2,
        };
        let b = Detection { cx: 0.6, ..a };
        // Overlap is 0.1x0.2, union is 2*0.04 - 0.02 = 0.06 → IoU = 1/3.
        assert!((iou(&a, &b) - 1.0 / 3.0).abs() < 1e-5);
    }
}
