//! Synthetic spectrogram burst detection — the MSY3I's object-detection
//! task — with a YOLO-style grid head, loss and average-precision scoring.
//!
//! The paper motivates YOLO-class detectors for 5G signal detection on
//! time–frequency images (§IV-A). The laptop-scale substitute is a
//! generator of spectrogram-like images containing rectangular "bursts"
//! (narrowband transmissions of random extent) in noise, plus the
//! standard single-scale YOLO machinery: per-cell `[objectness, cx, cy,
//! w, h]` predictions, BCE+MSE loss, greedy-IoU matching and
//! all-point-interpolated average precision.

use crate::tensor::Tensor;
use crate::NnError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

/// Descending confidence order with an explicit NaN policy: NaN ranks
/// *below every real confidence* (a meaningless score must never outrank
/// a real detection), and NaN ties are equal — total, deterministic,
/// never panics. `total_cmp` alone would rank NaN above `+inf` and let a
/// corrupt score win, so the NaN arm is spelled out.
fn nan_last_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN sorts after b
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// An axis-aligned box in normalized image coordinates (`cx, cy, w, h`
/// all in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Box2d {
    /// Center x.
    pub cx: f64,
    /// Center y.
    pub cy: f64,
    /// Width.
    pub w: f64,
    /// Height.
    pub h: f64,
}

impl Box2d {
    /// Intersection-over-union with another box.
    pub fn iou(&self, o: &Box2d) -> f64 {
        let (ax0, ax1) = (self.cx - self.w / 2.0, self.cx + self.w / 2.0);
        let (ay0, ay1) = (self.cy - self.h / 2.0, self.cy + self.h / 2.0);
        let (bx0, bx1) = (o.cx - o.w / 2.0, o.cx + o.w / 2.0);
        let (by0, by1) = (o.cy - o.h / 2.0, o.cy + o.h / 2.0);
        let ix = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
        let iy = (ay1.min(by1) - ay0.max(by0)).max(0.0);
        let inter = ix * iy;
        let union = self.w * self.h + o.w * o.h - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// Configuration for the synthetic burst dataset.
#[derive(Debug, Clone)]
pub struct BurstConfig {
    /// Image height (frequency bins).
    pub height: usize,
    /// Image width (time frames).
    pub width: usize,
    /// Number of images.
    pub count: usize,
    /// Bursts per image range (inclusive).
    pub bursts: (usize, usize),
    /// Background noise standard deviation.
    pub noise: f64,
    /// Burst amplitude.
    pub amplitude: f64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            height: 16,
            width: 16,
            count: 64,
            bursts: (1, 2),
            noise: 0.15,
            amplitude: 1.0,
        }
    }
}

/// A generated dataset of burst images with ground-truth boxes.
#[derive(Debug, Clone)]
pub struct BurstDataset {
    height: usize,
    width: usize,
    images: Vec<Vec<f64>>,
    boxes: Vec<Vec<Box2d>>,
}

impl BurstDataset {
    /// Generates a dataset deterministically from `seed`.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidParameter`] for degenerate dimensions or
    /// a reversed burst-count range.
    pub fn generate(config: &BurstConfig, seed: u64) -> Result<Self, NnError> {
        if config.height < 4 || config.width < 4 || config.count == 0 {
            return Err(NnError::InvalidParameter("dataset too small".into()));
        }
        if config.bursts.0 > config.bursts.1 || config.bursts.0 == 0 {
            return Err(NnError::InvalidParameter("bad burst count range".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let (h, w) = (config.height, config.width);
        let mut images = Vec::with_capacity(config.count);
        let mut boxes = Vec::with_capacity(config.count);
        for _ in 0..config.count {
            let mut img: Vec<f64> = (0..h * w)
                .map(|_| {
                    let u1: f64 = rng.gen_range(1e-12..1.0);
                    let u2: f64 = rng.gen();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * config.noise
                })
                .collect();
            let n_bursts = rng.gen_range(config.bursts.0..=config.bursts.1);
            let mut img_boxes = Vec::with_capacity(n_bursts);
            for _ in 0..n_bursts {
                let bw = rng.gen_range(2..=(w / 2).max(2));
                let bh = rng.gen_range(2..=(h / 2).max(2));
                let x0 = rng.gen_range(0..=(w - bw));
                let y0 = rng.gen_range(0..=(h - bh));
                for y in y0..y0 + bh {
                    for x in x0..x0 + bw {
                        img[y * w + x] += config.amplitude * rng.gen_range(0.7..1.0);
                    }
                }
                img_boxes.push(Box2d {
                    cx: (x0 as f64 + bw as f64 / 2.0) / w as f64,
                    cy: (y0 as f64 + bh as f64 / 2.0) / h as f64,
                    w: bw as f64 / w as f64,
                    h: bh as f64 / h as f64,
                });
            }
            images.push(img);
            boxes.push(img_boxes);
        }
        Ok(BurstDataset {
            height: h,
            width: w,
            images,
            boxes,
        })
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when the dataset has no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Ground-truth boxes of image `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn boxes(&self, i: usize) -> &[Box2d] {
        &self.boxes[i]
    }

    /// Builds `[N, 1, H, W]` inputs and `[N, 5, G, G]` targets for the
    /// image indices in `idx`.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidParameter`] for an out-of-range index or
    /// a grid that does not divide the image.
    pub fn batch(&self, idx: &[usize], grid: usize) -> Result<(Tensor, Tensor), NnError> {
        if !self.height.is_multiple_of(grid) || !self.width.is_multiple_of(grid) {
            return Err(NnError::InvalidParameter(format!(
                "grid {grid} does not divide {}x{}",
                self.height, self.width
            )));
        }
        let n = idx.len();
        let mut x = Tensor::zeros(vec![n, 1, self.height, self.width]);
        let mut t = Tensor::zeros(vec![n, 5, grid, grid]);
        for (bi, &i) in idx.iter().enumerate() {
            let img = self
                .images
                .get(i)
                .ok_or_else(|| NnError::InvalidParameter(format!("index {i} out of range")))?;
            let base = bi * self.height * self.width;
            x.data_mut()[base..base + img.len()].copy_from_slice(img);
            let enc = encode_targets(&self.boxes[i], grid)?;
            let tbase = bi * 5 * grid * grid;
            t.data_mut()[tbase..tbase + enc.len()].copy_from_slice(enc.data());
        }
        Ok((x, t))
    }
}

/// Encodes boxes into a `[5, G, G]` YOLO target tensor: channel 0 is
/// objectness, channels 1–4 are `(cx-offset, cy-offset, w, h)` with the
/// center offsets measured within the owning cell.
///
/// # Errors
/// Returns [`NnError::InvalidParameter`] for `grid == 0`.
pub fn encode_targets(boxes: &[Box2d], grid: usize) -> Result<Tensor, NnError> {
    if grid == 0 {
        return Err(NnError::InvalidParameter("grid must be >= 1".into()));
    }
    let mut t = Tensor::zeros(vec![5, grid, grid]);
    let g = grid as f64;
    for b in boxes {
        let gx = ((b.cx * g) as usize).min(grid - 1);
        let gy = ((b.cy * g) as usize).min(grid - 1);
        let idx = |c: usize| (c * grid + gy) * grid + gx;
        t.data_mut()[idx(0)] = 1.0;
        t.data_mut()[idx(1)] = (b.cx * g - gx as f64).clamp(0.0, 1.0);
        t.data_mut()[idx(2)] = (b.cy * g - gy as f64).clamp(0.0, 1.0);
        t.data_mut()[idx(3)] = b.w;
        t.data_mut()[idx(4)] = b.h;
    }
    Ok(t)
}

fn sigmoid(v: f64) -> f64 {
    rcr_numerics::stable::sigmoid(v)
}

/// YOLO grid loss on raw predictions `[N, 5, G, G]` against targets of
/// the same shape: BCE-with-logits on objectness, sigmoid+MSE on the box
/// channels of object cells (weighted by `box_weight`). Returns
/// `(loss, grad)`.
///
/// # Errors
/// Returns [`NnError::ShapeMismatch`] on shape disagreement.
pub fn yolo_loss(pred: &Tensor, target: &Tensor) -> Result<(f64, Tensor), NnError> {
    if pred.shape() != target.shape() || pred.shape().len() != 4 || pred.shape()[1] != 5 {
        return Err(NnError::ShapeMismatch {
            op: "yolo loss",
            got: pred.shape().to_vec(),
        });
    }
    let (n, g) = (pred.shape()[0], pred.shape()[2]);
    let cells = (n * g * g) as f64;
    let box_weight = 5.0;
    let mut grad = Tensor::zeros(pred.shape().to_vec());
    let mut loss = 0.0;
    for ni in 0..n {
        for gy in 0..g {
            for gx in 0..g {
                let obj_t = target.at4(ni, 0, gy, gx);
                let z = pred.at4(ni, 0, gy, gx);
                // Objectness BCE.
                loss += rcr_numerics::stable::softplus(z) - obj_t * z;
                *grad.at4_mut(ni, 0, gy, gx) = (sigmoid(z) - obj_t) / cells;
                if obj_t > 0.5 {
                    for c in 1..5 {
                        let t = target.at4(ni, c, gy, gx);
                        let zc = pred.at4(ni, c, gy, gx);
                        let p = sigmoid(zc);
                        let d = p - t;
                        loss += box_weight * d * d;
                        *grad.at4_mut(ni, c, gy, gx) = box_weight * 2.0 * d * p * (1.0 - p) / cells;
                    }
                }
            }
        }
    }
    Ok((loss / cells, grad))
}

/// Decodes one image's raw prediction `[5, G, G]` (or a batch slice) into
/// `(box, confidence)` pairs above `conf_threshold`.
///
/// # Errors
/// Returns [`NnError::ShapeMismatch`] for a non-`[5, G, G]` tensor.
pub fn decode_predictions(
    pred: &Tensor,
    conf_threshold: f64,
) -> Result<Vec<(Box2d, f64)>, NnError> {
    if pred.shape().len() != 3 || pred.shape()[0] != 5 {
        return Err(NnError::ShapeMismatch {
            op: "decode",
            got: pred.shape().to_vec(),
        });
    }
    let g = pred.shape()[1];
    let gf = g as f64;
    let at = |c: usize, y: usize, x: usize| pred.data()[(c * g + y) * g + x];
    let mut out = Vec::new();
    for gy in 0..g {
        for gx in 0..g {
            let conf = sigmoid(at(0, gy, gx));
            if conf < conf_threshold {
                continue;
            }
            let b = Box2d {
                cx: (gx as f64 + sigmoid(at(1, gy, gx))) / gf,
                cy: (gy as f64 + sigmoid(at(2, gy, gx))) / gf,
                w: sigmoid(at(3, gy, gx)),
                h: sigmoid(at(4, gy, gx)),
            };
            out.push((b, conf));
        }
    }
    Ok(out)
}

/// All-point-interpolated average precision at the given IoU threshold.
///
/// `detections[i]` are the `(box, confidence)` predictions for image `i`;
/// `ground_truth[i]` the matching true boxes. Matching is greedy per
/// confidence rank, one detection per ground-truth box.
///
/// # Errors
/// Returns [`NnError::InvalidParameter`] when the outer lengths differ.
pub fn average_precision(
    detections: &[Vec<(Box2d, f64)>],
    ground_truth: &[Vec<Box2d>],
    iou_threshold: f64,
) -> Result<f64, NnError> {
    if detections.len() != ground_truth.len() {
        return Err(NnError::InvalidParameter(format!(
            "{} detection lists vs {} ground-truth lists",
            detections.len(),
            ground_truth.len()
        )));
    }
    let total_gt: usize = ground_truth.iter().map(Vec::len).sum();
    if total_gt == 0 {
        return Ok(0.0);
    }
    // Flatten detections with image ids, sort by confidence descending.
    let mut flat: Vec<(usize, Box2d, f64)> = detections
        .iter()
        .enumerate()
        .flat_map(|(i, v)| v.iter().map(move |&(b, c)| (i, b, c)))
        .collect();
    flat.sort_by(|a, b| nan_last_desc(a.2, b.2));

    let mut matched: Vec<Vec<bool>> = ground_truth.iter().map(|v| vec![false; v.len()]).collect();
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut precisions = Vec::with_capacity(flat.len());
    let mut recalls = Vec::with_capacity(flat.len());
    for (img, bx, _conf) in flat {
        // Best unmatched GT by IoU.
        let mut best = (0usize, 0.0f64);
        for (j, gt) in ground_truth[img].iter().enumerate() {
            if matched[img][j] {
                continue;
            }
            let iou = bx.iou(gt);
            if iou > best.1 {
                best = (j, iou);
            }
        }
        if best.1 >= iou_threshold {
            matched[img][best.0] = true;
            tp += 1;
        } else {
            fp += 1;
        }
        precisions.push(tp as f64 / (tp + fp) as f64);
        recalls.push(tp as f64 / total_gt as f64);
    }
    // All-point interpolation: AP = Σ (r_k − r_{k−1})·max_{k'≥k} p_{k'}.
    let mut ap = 0.0;
    let mut prev_r = 0.0;
    let mut max_p_suffix = vec![0.0; precisions.len()];
    let mut running = 0.0f64;
    for k in (0..precisions.len()).rev() {
        running = running.max(precisions[k]);
        max_p_suffix[k] = running;
    }
    for k in 0..precisions.len() {
        ap += (recalls[k] - prev_r) * max_p_suffix[k];
        prev_r = recalls[k];
    }
    Ok(ap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iou_identical_and_disjoint() {
        let a = Box2d {
            cx: 0.5,
            cy: 0.5,
            w: 0.2,
            h: 0.2,
        };
        assert!((a.iou(&a) - 1.0).abs() < 1e-12);
        let b = Box2d {
            cx: 0.1,
            cy: 0.1,
            w: 0.1,
            h: 0.1,
        };
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = Box2d {
            cx: 0.25,
            cy: 0.5,
            w: 0.5,
            h: 1.0,
        };
        let b = Box2d {
            cx: 0.5,
            cy: 0.5,
            w: 0.5,
            h: 1.0,
        };
        // Intersection 0.25, union 0.75.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dataset_generation_deterministic_and_bounded() {
        let cfg = BurstConfig::default();
        let a = BurstDataset::generate(&cfg, 1).unwrap();
        let b = BurstDataset::generate(&cfg, 1).unwrap();
        assert_eq!(a.len(), cfg.count);
        assert_eq!(a.images, b.images);
        for i in 0..a.len() {
            for bx in a.boxes(i) {
                assert!(bx.cx >= 0.0 && bx.cx <= 1.0);
                assert!(bx.w > 0.0 && bx.w <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn dataset_validation() {
        let bad = BurstConfig {
            height: 2,
            ..Default::default()
        };
        assert!(BurstDataset::generate(&bad, 0).is_err());
        let bad = BurstConfig {
            bursts: (3, 1),
            ..Default::default()
        };
        assert!(BurstDataset::generate(&bad, 0).is_err());
    }

    #[test]
    fn encode_marks_owning_cell() {
        let boxes = [Box2d {
            cx: 0.6,
            cy: 0.3,
            w: 0.2,
            h: 0.2,
        }];
        let t = encode_targets(&boxes, 4).unwrap();
        // cx 0.6 → cell 2, cy 0.3 → cell 1 (channel 0, spelled out).
        let g = 4;
        #[allow(clippy::erasing_op)]
        let idx = (0 * g + 1) * g + 2;
        assert_eq!(t.data()[idx], 1.0);
        let total: f64 = t.data()[..g * g].iter().sum();
        assert_eq!(total, 1.0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let boxes = [Box2d {
            cx: 0.6,
            cy: 0.3,
            w: 0.25,
            h: 0.4,
        }];
        let t = encode_targets(&boxes, 4).unwrap();
        // Build logits whose sigmoid reproduces the targets.
        let logit = |p: f64| {
            let p = p.clamp(1e-6, 1.0 - 1e-6);
            (p / (1.0 - p)).ln()
        };
        let mut pred = Tensor::zeros(vec![5, 4, 4]);
        for i in 0..pred.len() {
            let v = t.data()[i];
            pred.data_mut()[i] = if i < 16 {
                if v > 0.5 {
                    10.0
                } else {
                    -10.0
                }
            } else {
                logit(v)
            };
        }
        let dets = decode_predictions(&pred, 0.5).unwrap();
        assert_eq!(dets.len(), 1);
        let (b, conf) = dets[0];
        assert!(conf > 0.99);
        assert!((b.cx - 0.6).abs() < 1e-3, "{b:?}");
        assert!((b.cy - 0.3).abs() < 1e-3, "{b:?}");
        assert!((b.w - 0.25).abs() < 1e-3);
        assert!((b.h - 0.4).abs() < 1e-3);
    }

    #[test]
    fn perfect_predictions_score_ap_one() {
        let gt = vec![
            vec![Box2d {
                cx: 0.3,
                cy: 0.3,
                w: 0.2,
                h: 0.2,
            }],
            vec![Box2d {
                cx: 0.7,
                cy: 0.6,
                w: 0.3,
                h: 0.2,
            }],
        ];
        let dets: Vec<Vec<(Box2d, f64)>> = gt
            .iter()
            .map(|v| v.iter().map(|&b| (b, 0.9)).collect())
            .collect();
        let ap = average_precision(&dets, &gt, 0.5).unwrap();
        assert!((ap - 1.0).abs() < 1e-12);
    }

    #[test]
    fn false_positives_lower_ap() {
        let gt = vec![vec![Box2d {
            cx: 0.3,
            cy: 0.3,
            w: 0.2,
            h: 0.2,
        }]];
        // One junk detection at HIGHER confidence than the true one.
        let dets = vec![vec![
            (
                Box2d {
                    cx: 0.9,
                    cy: 0.9,
                    w: 0.1,
                    h: 0.1,
                },
                0.95,
            ),
            (
                Box2d {
                    cx: 0.3,
                    cy: 0.3,
                    w: 0.2,
                    h: 0.2,
                },
                0.9,
            ),
        ]];
        let ap = average_precision(&dets, &gt, 0.5).unwrap();
        assert!(ap < 1.0 && ap > 0.0);
        assert!((ap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_ground_truth_gives_zero_ap() {
        let ap = average_precision(&[vec![]], &[vec![]], 0.5).unwrap();
        assert_eq!(ap, 0.0);
        assert!(average_precision(&[vec![]], &[], 0.5).is_err());
    }

    #[test]
    fn yolo_loss_perfect_prediction_is_small() {
        let boxes = [Box2d {
            cx: 0.6,
            cy: 0.3,
            w: 0.25,
            h: 0.4,
        }];
        let t = encode_targets(&boxes, 4).unwrap();
        let n = t.len();
        let target = Tensor::from_vec(vec![1, 5, 4, 4], t.into_vec()).unwrap();
        // Perfect logits.
        let mut pred = Tensor::zeros(vec![1, 5, 4, 4]);
        for i in 0..n {
            let v = target.data()[i];
            pred.data_mut()[i] = if i < 16 {
                if v > 0.5 {
                    20.0
                } else {
                    -20.0
                }
            } else {
                let p = v.clamp(1e-9, 1.0 - 1e-9);
                (p / (1.0 - p)).ln()
            };
        }
        let (loss, grad) = yolo_loss(&pred, &target).unwrap();
        assert!(loss < 1e-6, "loss {loss}");
        assert!(grad.max_abs() < 1e-3);
    }

    #[test]
    fn yolo_loss_gradcheck() {
        // Finite-difference check on a random prediction.
        let mut rng = StdRng::seed_from_u64(3);
        let boxes = [Box2d {
            cx: 0.4,
            cy: 0.6,
            w: 0.3,
            h: 0.3,
        }];
        let enc = encode_targets(&boxes, 2).unwrap();
        let target = Tensor::from_vec(vec![1, 5, 2, 2], enc.into_vec()).unwrap();
        let pred = Tensor::from_vec(
            vec![1, 5, 2, 2],
            (0..20).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let (_, grad) = yolo_loss(&pred, &target).unwrap();
        let eps = 1e-6;
        for probe in [0usize, 5, 10, 19] {
            let mut p1 = pred.clone();
            p1.data_mut()[probe] += eps;
            let mut p2 = pred.clone();
            p2.data_mut()[probe] -= eps;
            let f1 = yolo_loss(&p1, &target).unwrap().0;
            let f2 = yolo_loss(&p2, &target).unwrap().0;
            let fd = (f1 - f2) / (2.0 * eps);
            assert!(
                (fd - grad.data()[probe]).abs() < 1e-6 * (1.0 + fd.abs()),
                "probe {probe}: {fd} vs {}",
                grad.data()[probe]
            );
        }
    }

    #[test]
    fn batch_shapes() {
        let ds = BurstDataset::generate(&BurstConfig::default(), 5).unwrap();
        let (x, t) = ds.batch(&[0, 1, 2], 4).unwrap();
        assert_eq!(x.shape(), &[3, 1, 16, 16]);
        assert_eq!(t.shape(), &[3, 5, 4, 4]);
        assert!(ds.batch(&[0], 5).is_err()); // 5 does not divide 16
        assert!(ds.batch(&[999], 4).is_err());
    }

    fn unit_box(cx: f64, cy: f64) -> Box2d {
        Box2d {
            cx,
            cy,
            w: 0.2,
            h: 0.2,
        }
    }

    #[test]
    fn average_precision_with_nan_confidence_does_not_panic() {
        let gt = vec![vec![unit_box(0.5, 0.5)]];
        // NaN-confidence detection on the true box, real-confidence miss:
        // the real detection is ranked first (NaN sorts last), so the
        // miss consumes a false positive before the NaN hit matches.
        let dets = vec![vec![
            (unit_box(0.5, 0.5), f64::NAN),
            (unit_box(0.1, 0.1), 0.9),
        ]];
        let ap = average_precision(&dets, &gt, 0.5).unwrap();
        // Deterministic documented outcome: fp at rank 1, tp at rank 2
        // => precision 1/2 at recall 1, all-point AP = 0.5.
        assert!((ap - 0.5).abs() < 1e-12);
    }
}
