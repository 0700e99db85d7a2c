//! Packed, register-tiled, cache-blocked parallel single-precision GEMM.
//!
//! Deep-learning workloads lower convolutions onto GEMM with tall-skinny
//! operands; the paper's ≈2 TFLOP/s-per-node numbers (Table 2) come from
//! MKL-2017-style packed, register-blocked kernels (Das et al.,
//! arXiv:1602.06709 describe the recipe). This module implements that
//! recipe in Rust:
//!
//! * **Packing absorbs transposition.** A panels (`mr x KC`) and B panels
//!   (`KC x nr`) are copied into contiguous, cache-resident scratch from
//!   the thread-local [`Workspace`] pool. All four transpose combinations
//!   differ *only* in the pack copy loops — `TN`/`TT` are no longer
//!   strided-read slow paths, because the microkernel always streams the
//!   same packed layout.
//! * **Packing absorbs lowering.** B has a second source besides a dense
//!   buffer, [`BSource::Im2col`]: a conv's geometry and an NCHW image,
//!   from which each B panel is packed straight out of the image, in
//!   the forward (`col`) and weight-gradient (`colᵀ`) layouts alike.
//!   Per block of a `KC` slab (`KC` deep, `KC` columns wide), the part
//!   of the image the block reads — the channels of its col rows over
//!   the output rows of its pixels — is split once into its
//!   stride-phase planes (`im2col::Planes`, in the B slab's own scratch
//!   buffer), where every col-row segment is one contiguous run: a forward panel copies runs, a weight-gradient panel writes
//!   each run straight down its column. The panels hold exactly what
//!   packing the written-out col matrix would put there, so the
//!   arithmetic — and every bit — is the same, without the `cin·k² x
//!   oh·ow` matrix. The adjoint, backward-data's `col2im(op(A) · B)`,
//!   is [`PackedA::gemm_col2im`]: one whole-channel group of col rows at
//!   a time into a slab of one `MC` row block, each group scattered into
//!   that group's planes (by [`col2im`], in its element order) before the
//!   next is computed.
//! * **Register-tiled microkernel, one tile shape per ISA.** `mr x nr` is
//!   not a crate constant: [`crate::microkernel`] hands out a per-ISA
//!   kernel descriptor (4×16 portable, 6×16 for AVX2, 8×32 for
//!   AVX-512) and the pack routines and the tile loop here read the
//!   shape from it. The kernel holds the accumulator tile in registers
//!   and updates it with `KC` fused multiply-adds per lane — one
//!   rounding each, on every arm; that module states the contract once.
//! * **Cache-blocked loop nest.** `op(A)` is packed once per product —
//!   or once per *layer call* through [`PackedA`], which the conv layers
//!   use to reuse one packed weight matrix across a batch — and each
//!   `KC`-deep slab of `op(B)` once per product; `C` is tiled into
//!   `MC x NC` blocks and the tile grid is partitioned 2-D (M × N) across
//!   the calling thread's helpers (`vendor/rayon`), so parallelism
//!   survives both short-`m` (backward-data) and short-`n`
//!   (weight-gradient) shapes.
//! * **Fused bias epilogue.** [`gemm_bias`] / [`gemm_bias_cols`] write the
//!   broadcast bias as the accumulator initialisation, so `C` is swept
//!   once instead of a second full pass after the product.
//!
//! No value-dependent skips anywhere: `0 · NaN` must stay `NaN` (PR 3's
//! no-laundering rule), so zeros in either operand are multiplied like any
//! other value. Pack padding (rows/cols beyond `m`/`n` rounded up to
//! `mr`/`nr`) only feeds accumulator lanes that are never written back.
//!
//! The pre-packing axpy kernel is retained as [`gemm_unpacked`]: it is
//! the differential-testing baseline and the "seed" column of
//! `scidl-bench kernels`.
//!
//! The microkernel itself lives in [`crate::microkernel`] and is selected
//! once per process by runtime CPU-feature detection ([`Isa::active`]);
//! every ISA variant is bit-identical by construction (see that module's
//! docs), so dispatch never changes results — only throughput.

use crate::im2col::{col2im, im2col, ConvGeometry, Planes};
use crate::microkernel::{dot_i8, CPtr, Isa, Kernel};
use crate::workspace::{Workspace, WsBuf};
use crate::{par, PAR_CHUNK, PAR_WORK};
use std::ops::Range;

/// Whether an operand is used as stored or transposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transpose {
    /// Use the matrix as stored (row-major `rows x cols`).
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// Where the right operand of a [`PackedA`] product comes from.
#[derive(Clone, Copy)]
pub enum BSource<'a> {
    /// A dense row-major buffer: `op(B)` is the buffer as stored (`k x n`)
    /// or, with [`Transpose::Yes`], its transpose (stored `n x k`).
    Dense(Transpose, &'a [f32]),
    /// `Dense` over the col matrix `im2col(geo, image)` (`col_rows x
    /// col_cols`) — a conv forward's operand with [`Transpose::No`], a
    /// weight gradient's with [`Transpose::Yes`] — with the matrix never
    /// written: each B panel is copied from the phase planes of the NCHW
    /// `image`, the same values in the same order, so the product keeps
    /// every bit.
    Im2col(Transpose, &'a ConvGeometry, &'a [f32]),
}

impl BSource<'_> {
    /// Panics unless `op(B)` can be read as `k x n`.
    fn check(&self, k: usize, n: usize) {
        match *self {
            BSource::Dense(_, b) => assert!(
                b.len() >= k * n,
                "B buffer too small: {} < {}",
                b.len(),
                k * n
            ),
            BSource::Im2col(tb, geo, image) => {
                assert_eq!(
                    image.len(),
                    geo.cin * geo.h * geo.w,
                    "image length mismatch"
                );
                let (rows, cols) = (geo.col_rows(), geo.col_cols());
                let (bk, bn) = if tb == Transpose::No {
                    (rows, cols)
                } else {
                    (cols, rows)
                };
                assert!(
                    (bk, bn) == (k, n),
                    "op(B) of {geo:?} is {bk}x{bn}, not {k}x{n}"
                );
            }
        }
    }
}

/// k-dimension cache block: one packed A panel is `mr x KC` (4–8 KiB),
/// resident in L1 across the whole B sweep. Part of the numerics: every
/// C element rounds once per `KC` block, so changing it changes results.
const KC: usize = 256;
/// m-dimension cache block, rounded down to a whole number of the
/// ISA's `mr`-row panels (64, or 60 for the 6-row tile): one packed A
/// block is at most `MC x KC` (64 KiB), resident in L2.
const MC: usize = 64;
/// n-dimension cache block (multiple of every ISA's `nr`): bounds the
/// per-tile sweep so a `KC x NC` B slab (512 KiB) stays cache-resident.
const NC: usize = 512;
/// Work below which packing overhead loses to plain nested loops; tiny
/// products (e.g. the 128→2 HEP head) stay on the unpacked path.
const SMALL_WORK: usize = 1 << 12;

/// Row block size the seed kernel used for parallel partitioning of C
/// (kept for [`gemm_unpacked`]).
const SEED_MC: usize = 64;

/// Accumulator initialisation applied in one sweep before the product is
/// accumulated — beta-scaling or a fused broadcast bias.
#[derive(Clone, Copy)]
enum Init<'a> {
    /// `C = beta * C` (the classic BLAS prologue).
    Beta(f32),
    /// `C[i, :] = bias[i]` — per-row bias, conv-style (`bias.len() == m`).
    RowBias(&'a [f32]),
    /// `C[i, j] = bias[j]` — per-column bias, dense-style
    /// (`bias.len() == n`).
    ColBias(&'a [f32]),
}

/// Computes `C = alpha * op(A) * op(B) + beta * C`.
///
/// `A`, `B`, `C` are dense row-major buffers. Logical dimensions:
/// `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`. When
/// `ta == Transpose::Yes`, `A` is stored `k x m`; when
/// `tb == Transpose::Yes`, `B` is stored `n x k`.
///
/// Panics if any buffer is too small for its logical dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    gemm_with_isa(Isa::active(), ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// [`gemm`] with an explicitly chosen microkernel ISA instead of the
/// process-wide [`Isa::active`] selection. All variants are bit-identical,
/// so this exists for the differential battery and the per-ISA benchmark
/// rows, not for steady-state use. Panics if `isa` is not available on
/// the running CPU (check [`Isa::is_available`] first).
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_isa(
    isa: Isa,
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    gemm_init(
        isa,
        ta,
        tb,
        m,
        n,
        k,
        alpha,
        a,
        b,
        Init::Beta(beta),
        &mut c[..m * n],
    );
}

/// `C = op(A) * op(B)` with a per-row bias fused into the epilogue:
/// `C[i, :] = bias[i] + sum_p ...` — `C` is written in one sweep instead
/// of a product pass plus a broadcast pass. Used by the conv family
/// (`m` = output channels).
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
) {
    assert_eq!(bias.len(), m, "bias length must equal m");
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    gemm_init(
        Isa::active(),
        ta,
        tb,
        m,
        n,
        k,
        1.0,
        a,
        b,
        Init::RowBias(bias),
        &mut c[..m * n],
    );
}

/// `C = op(A) * op(B)` with a per-column bias fused into the epilogue:
/// `C[i, j] = bias[j] + sum_p ...`. Used by dense layers, where
/// rows are batch items and columns are output features.
#[allow(clippy::too_many_arguments)]
pub fn gemm_bias_cols(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
) {
    assert_eq!(bias.len(), n, "bias length must equal n");
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    gemm_init(
        Isa::active(),
        ta,
        tb,
        m,
        n,
        k,
        1.0,
        a,
        b,
        Init::ColBias(bias),
        &mut c[..m * n],
    );
}

fn check_dims(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert!(
        a.len() >= m * k,
        "A buffer too small: {} < {}",
        a.len(),
        m * k
    );
    assert!(
        b.len() >= k * n,
        "B buffer too small: {} < {}",
        b.len(),
        k * n
    );
    assert!(
        c.len() >= m * n,
        "C buffer too small: {} < {}",
        c.len(),
        m * n
    );
}

/// Shared driver: applies the accumulator initialisation, then adds
/// `alpha * op(A) * op(B)`. `c` is exactly `m x n`.
#[allow(clippy::too_many_arguments)]
fn gemm_init(
    isa: Isa,
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    init: Init<'_>,
    c: &mut [f32],
) {
    apply_init(init, n, c);
    if m * n * k < SMALL_WORK {
        accumulate_unpacked(ta, tb, 0, m, m, n, k, alpha, a, b, c);
    } else {
        packed_accumulate(
            &PackedA::with_isa(isa, ta, m, k, a),
            BSource::Dense(tb, b),
            n,
            alpha,
            c,
        );
    }
}

/// `op(A)` packed once into the active ISA's register-tile panels, for
/// callers that multiply one left operand by many right operands — a conv
/// layer's weights against every image of a batch. Every product is
/// bit-identical to handing the same `a` to [`gemm`] / [`gemm_bias`].
pub struct PackedA<'a> {
    kernel: Kernel,
    ta: Transpose,
    /// The operand as given: products below `SMALL_WORK` take the
    /// unpacked path [`gemm`] takes for them, so they round the same.
    a: &'a [f32],
    m: usize,
    k: usize,
    /// All of `op(A)`, `KC` block by `KC` block; layout in [`pack_a`].
    panels: WsBuf,
}

impl<'a> PackedA<'a> {
    /// Packs `op(A)` (`m x k`; stored `k x m` when `ta` is
    /// [`Transpose::Yes`]). Panics if `a` is shorter than `m * k`.
    pub fn new(ta: Transpose, m: usize, k: usize, a: &'a [f32]) -> Self {
        Self::with_isa(Isa::active(), ta, m, k, a)
    }

    fn with_isa(isa: Isa, ta: Transpose, m: usize, k: usize, a: &'a [f32]) -> Self {
        assert!(
            a.len() >= m * k,
            "A buffer too small: {} < {}",
            a.len(),
            m * k
        );
        let kernel = isa.kernel();
        let mut panels = Workspace::take(m.div_ceil(kernel.mr) * kernel.mr * k);
        pack_a(ta, a, m, k, kernel.mr, &mut panels);
        Self {
            kernel,
            ta,
            a,
            m,
            k,
            panels,
        }
    }

    /// `C = alpha * op(A) * op(B) + beta * C` with `C` `m x n`; see [`gemm`].
    pub fn gemm(&self, b: BSource<'_>, n: usize, alpha: f32, beta: f32, c: &mut [f32]) {
        self.product(b, n, alpha, Init::Beta(beta), c);
    }

    /// `C[i, :] = bias[i] + op(A) * op(B)`; see [`gemm_bias`].
    pub fn gemm_bias(&self, b: BSource<'_>, n: usize, bias: &[f32], c: &mut [f32]) {
        assert_eq!(bias.len(), self.m, "bias length must equal m");
        self.product(b, n, 1.0, Init::RowBias(bias), c);
    }

    /// `image += col2im(geo, op(A) * b)`: backward-data of a conv with
    /// geometry `geo` (`op(A)` its transposed weights, `b` the output
    /// gradient) or the forward pass of the mirror deconvolution. `op(A)`
    /// is `col_rows x k`, `b` a dense `k x col_cols`.
    ///
    /// The col-space product is never whole: it is computed one group of
    /// whole input channels at a time into a slab of one `MC` row block
    /// (whole `mr`-row panels, so more only when `lcm(kh·kw, mr)`
    /// exceeds `MC`), and each group is scattered into its planes before
    /// the next is computed. With enough groups each thread takes whole
    /// groups, in a slab of its own; otherwise the threads share each
    /// group's tiles and scatter in turn. The packed-or-unpacked choice is
    /// made once, on the whole product, so every element takes the
    /// multiply-adds [`gemm`] would give it, and every image element the
    /// adds of [`col2im`] over the whole matrix, in the same order.
    pub fn gemm_col2im(&self, geo: &ConvGeometry, b: &[f32], image: &mut [f32]) {
        let (m, n, k) = (self.m, geo.col_cols(), self.k);
        assert_eq!(
            m,
            geo.col_rows(),
            "op(A) rows must equal the col rows of {geo:?}"
        );
        assert!(
            b.len() >= k * n,
            "B buffer too small: {} < {}",
            b.len(),
            k * n
        );
        assert_eq!(
            image.len(),
            geo.cin * geo.h * geo.w,
            "image length mismatch"
        );
        if m == 0 || n == 0 || image.is_empty() {
            return;
        }
        let Kernel { mr, nr, .. } = self.kernel;
        let (taps, plane) = (geo.kh * geo.kw, geo.h * geo.w);
        // The fewest channels whose rows fill whole panels, so every group
        // starts on a panel boundary; then as many of those as fit in MC.
        let unit = (1..=mr)
            .find(|u| (u * taps).is_multiple_of(mr))
            .expect("mr channels fill mr panels");
        let chans = unit * (MC / (unit * taps)).max(1);
        let split = m * n * k >= PAR_WORK;
        let per_thread = if split && geo.cin.div_ceil(chans) >= 2 * par::width() {
            chans
        } else {
            geo.cin
        };
        let b = BSource::Dense(Transpose::No, b);

        // B is packed once, all its KC blocks, and read by every group.
        let n_pad = n.div_ceil(nr) * nr;
        let bpack = (m * n * k >= SMALL_WORK).then(|| {
            let mut bpack = Workspace::take(n_pad * k);
            for (p0, slab) in (0..k).step_by(KC).zip(bpack.chunks_mut(n_pad * KC)) {
                pack_b(b, n, k, p0, KC.min(k - p0), nr, split, slab, &mut []);
            }
            bpack
        });
        par::for_each_chunk_mut(image, per_thread * plane, |u, planes| {
            let mut slab = Workspace::take(chans.min(geo.cin) * taps * n);
            for (g, planes) in planes.chunks_mut(chans * plane).enumerate() {
                let c0 = u * per_thread + g * chans;
                let rows = c0 * taps..(c0 + planes.len() / plane) * taps;
                let dcol = &mut slab[..rows.len() * n];
                apply_init(Init::Beta(0.0), n, dcol);
                match &bpack {
                    None => accumulate_small(self, b, rows, n, 1.0, dcol),
                    Some(bpack) => {
                        for p0 in (0..k).step_by(KC) {
                            let bslab = &bpack[n_pad * p0..][..n_pad * KC.min(k - p0)];
                            multiply_slab(self, rows.clone(), p0, bslab, n, 1.0, dcol);
                        }
                    }
                }
                col2im(
                    &ConvGeometry {
                        cin: planes.len() / plane,
                        ..*geo
                    },
                    dcol,
                    planes,
                );
            }
        });
    }

    fn product(&self, b: BSource<'_>, n: usize, alpha: f32, init: Init<'_>, c: &mut [f32]) {
        let (m, k) = (self.m, self.k);
        b.check(k, n);
        assert!(
            c.len() >= m * n,
            "C buffer too small: {} < {}",
            c.len(),
            m * n
        );
        if m == 0 || n == 0 {
            return;
        }
        let c = &mut c[..m * n];
        apply_init(init, n, c);
        if m * n * k < SMALL_WORK {
            accumulate_small(self, b, 0..m, n, alpha, c);
        } else {
            packed_accumulate(self, b, n, alpha, c);
        }
    }
}

/// [`accumulate_unpacked`] over rows `rows` of `op(A) * op(B)` (`c` holds
/// those rows). A col matrix source is written out for it: below
/// `SMALL_WORK` the whole matrix is under `SMALL_WORK` floats.
fn accumulate_small(
    pa: &PackedA<'_>,
    b: BSource<'_>,
    rows: Range<usize>,
    n: usize,
    alpha: f32,
    c: &mut [f32],
) {
    let (m, k) = (pa.m, pa.k);
    match b {
        BSource::Dense(tb, b) => accumulate_unpacked(
            pa.ta,
            tb,
            rows.start,
            rows.len(),
            m,
            n,
            k,
            alpha,
            pa.a,
            b,
            c,
        ),
        BSource::Im2col(tb, geo, image) => {
            let mut col = Workspace::take(k * n);
            im2col(geo, image, &mut col);
            accumulate_small(pa, BSource::Dense(tb, &col), rows, n, alpha, c);
        }
    }
}

/// One sweep over C writing the accumulator initial value, split by rows
/// (several at a time when rows are short).
fn apply_init(init: Init<'_>, n: usize, c: &mut [f32]) {
    if matches!(init, Init::Beta(beta) if beta == 1.0) {
        return;
    }
    let rows = PAR_CHUNK.div_ceil(n);
    par::for_each_chunk_mut(c, rows * n, |blk, c| match init {
        Init::Beta(beta) => {
            if beta == 0.0 {
                // Overwrite, not `0 * C`: a stale NaN in C must not survive.
                c.fill(0.0);
            } else {
                c.iter_mut().for_each(|x| *x *= beta);
            }
        }
        Init::RowBias(bias) => {
            for (row, &b) in c.chunks_mut(n).zip(&bias[blk * rows..]) {
                row.fill(b);
            }
        }
        Init::ColBias(bias) => {
            for row in c.chunks_mut(n) {
                row.copy_from_slice(bias);
            }
        }
    });
}

/// The packed path: `C += alpha * op(A) * op(B)` (initialisation already
/// applied). Deterministic regardless of worker count: every C element
/// accumulates its `KC` blocks in the same (sequential) order, and tiles
/// never share elements.
fn packed_accumulate(pa: &PackedA<'_>, b: BSource<'_>, n: usize, alpha: f32, c: &mut [f32]) {
    let (m, k, nr) = (pa.m, pa.k, pa.kernel.nr);
    let split = tiles_in_parallel(m, n, k, pa.kernel.mr);
    // One scratch buffer for the whole product: the full-width B slab
    // of one k block, packed once for every tile to read, and the planes
    // an im2col source's slab is packed from.
    let n_pad = n.div_ceil(nr) * nr;
    let planes_len = (0..k)
        .step_by(KC)
        .map(|p0| b.planes_len(n, nr, p0, KC.min(k - p0)))
        .max()
        .unwrap_or(0);
    let mut scratch = Workspace::take(n_pad * KC.min(k) + planes_len);
    let (bpack, planes) = scratch.split_at_mut(n_pad * KC.min(k));
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        let bpack = &mut bpack[..n_pad * kc];
        pack_b(b, n, k, p0, kc, nr, split, bpack, planes);
        multiply_slab(pa, 0..m, p0, bpack, n, alpha, c);
    }
}

/// Whether a product's `MC x NC` tile grid is split across threads.
fn tiles_in_parallel(m: usize, n: usize, k: usize, mr: usize) -> bool {
    m * n * k >= PAR_WORK && m.div_ceil(MC / mr * mr) * n.div_ceil(NC) > 1
}

/// `C += alpha * op(A)[rows, p0..p0 + kc] * op(B)[p0..p0 + kc, :]` from
/// the packed B slab of the `KC` block at depth `p0`. `c` holds rows
/// `rows` of the product; `rows.start` is on a panel boundary.
fn multiply_slab(
    pa: &PackedA<'_>,
    rows: Range<usize>,
    p0: usize,
    bpack: &[f32],
    n: usize,
    alpha: f32,
    c: &mut [f32],
) {
    let Kernel { mr, nr, run } = pa.kernel;
    assert!(
        rows.start.is_multiple_of(mr) && rows.end <= pa.m,
        "rows {rows:?} are not whole panels of op(A)"
    );
    let m = rows.len();
    // The microkernel writes through a raw pointer.
    assert!(
        c.len() >= m * n,
        "C buffer too small: {} < {}",
        c.len(),
        m * n
    );
    // Cache tiles start on panel boundaries.
    let mc_rows = MC / mr * mr;
    debug_assert!(NC.is_multiple_of(nr));
    let kc = KC.min(pa.k - p0);
    // Panel `pi` of the block holds rows `pi*mr..`; start at `rows.start`'s.
    let apack = &pa.panels[pa.m.div_ceil(mr) * mr * p0 + rows.start * kc..];
    let (mt, nt) = (m.div_ceil(mc_rows), n.div_ceil(NC));
    let cp = CPtr(c.as_mut_ptr());

    let tile = |t: usize| {
        let (ti, tj) = (t / nt, t % nt);
        let i0 = ti * mc_rows;
        let mc = mc_rows.min(m - i0);
        let j0 = tj * NC;
        let nc = NC.min(n - j0);
        for pj in (j0 / nr)..(j0 + nc).div_ceil(nr) {
            let col0 = pj * nr;
            let nr_eff = nr.min(n - col0);
            let bp = &bpack[pj * nr * kc..][..nr * kc];
            for pi in (i0 / mr)..(i0 + mc).div_ceil(mr) {
                let row0 = pi * mr;
                let mr_eff = mr.min(m - row0);
                let ap = &apack[pi * mr * kc..][..mr * kc];
                run(kc, ap, bp, alpha, cp, n, row0, col0, mr_eff, nr_eff);
            }
        }
    };

    if tiles_in_parallel(m, n, pa.k, mr) {
        par::for_each_index(mt * nt, tile);
    } else {
        (0..mt * nt).for_each(tile);
    }
}

/// Packs all of `op(A)` into `mr`-row panels, `KC` block by `KC` block:
/// block `p0` (depth `kc`) starts at `m_pad * p0`, and inside it panel
/// `pi`, depth `p`, row `r` lands at `pi*mr*kc + p*mr + r`. Rows past
/// `m` are zero (their accumulator lanes are never written back).
/// Panels are independent copies: `KC` blocks are split across threads,
/// and a lone block (`k <= KC`) by groups of panels.
fn pack_a(ta: Transpose, a: &[f32], m: usize, k: usize, mr: usize, apack: &mut [f32]) {
    if apack.is_empty() {
        return;
    }
    let m_pad = m.div_ceil(mr) * mr;
    let blocks = PAR_CHUNK.div_ceil(m_pad * KC);
    par::for_each_chunk_mut(apack, blocks * m_pad * KC, |u, slab| {
        for (b, block) in slab.chunks_mut(m_pad * KC).enumerate() {
            let (p0, kc) = ((u * blocks + b) * KC, block.len() / m_pad);
            let group = PAR_CHUNK.div_ceil(mr * kc);
            par::for_each_chunk_mut(block, group * mr * kc, |g, panels| {
                for (pi, dst) in panels.chunks_exact_mut(mr * kc).enumerate() {
                    pack_a_panel(ta, a, m, k, mr, p0, kc, g * group + pi, dst);
                }
            });
        }
    });
}

/// Panel `pi` (rows `pi*mr..`) of the `KC` block at depth `p0`.
#[allow(clippy::too_many_arguments)]
fn pack_a_panel(
    ta: Transpose,
    a: &[f32],
    m: usize,
    k: usize,
    mr: usize,
    p0: usize,
    kc: usize,
    pi: usize,
    dst: &mut [f32],
) {
    let rbase = pi * mr;
    let rows = mr.min(m - rbase);
    match ta {
        Transpose::No => {
            // A row-major m x k: op(A)[i, p] = a[i*k + p]; each
            // source row is contiguous, scattered to stride mr.
            for r in 0..mr {
                if r < rows {
                    let src = &a[(rbase + r) * k + p0..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        dst[p * mr + r] = v;
                    }
                } else {
                    dst.iter_mut().skip(r).step_by(mr).for_each(|v| *v = 0.0);
                }
            }
        }
        Transpose::Yes => {
            // A stored k x m: op(A)[i, p] = a[p*m + i]; rows of a
            // panel slice are contiguous in the source — the former
            // TN slow path becomes a straight memcpy per depth.
            for (p, d) in dst.chunks_exact_mut(mr).enumerate() {
                let src = &a[(p0 + p) * m + rbase..][..rows];
                d[..rows].copy_from_slice(src);
                d[rows..].fill(0.0);
            }
        }
    }
}

/// Packs `op(B)[p0..p0+kc, :]` into `nr`-column panels: panel `pj`,
/// depth `p`, column `c` lands at `bpack[pj*nr*kc + p*nr + c]`. Columns
/// past `n` are zero. Packed by the threads that will read it: split
/// only when the tile grid is (`split`), else the lone multiplying thread
/// would fetch half of its B slab from another core's cache. An im2col
/// source is packed one block of `KC` columns at a time, each from the
/// planes of just the image part it reads, split into `planes`
/// ([`BSource::planes_len`] floats); a dense source in one block.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: BSource<'_>,
    n: usize,
    k: usize,
    p0: usize,
    kc: usize,
    nr: usize,
    split: bool,
    bpack: &mut [f32],
    planes: &mut [f32],
) {
    let block = b.block_panels(n, nr);
    for (bi, panels) in bpack.chunks_mut(block * nr * kc).enumerate() {
        let j0 = bi * block * nr;
        let slab = Slab::new(b, p0..p0 + kc, j0..n.min(j0 + block * nr), planes);
        let group = if split {
            PAR_CHUNK.div_ceil(nr * kc)
        } else {
            block
        };
        par::for_each_chunk_mut(panels, group * nr * kc, |g, panels| {
            for (pj, dst) in panels.chunks_exact_mut(nr * kc).enumerate() {
                pack_b_panel(&slab, n, k, p0, kc, nr, bi * block + g * group + pj, dst);
            }
        });
    }
}

impl BSource<'_> {
    /// Panels per block of [`pack_b`]: `KC` columns' worth for an
    /// im2col source, all of them for a dense one.
    fn block_panels(&self, n: usize, nr: usize) -> usize {
        match self {
            BSource::Dense(..) => n.div_ceil(nr),
            BSource::Im2col(..) => (KC / nr).max(1),
        }
    }

    /// Floats of scratch the planes of the `kc`-deep slab at depth `p0`
    /// take, block by block: none for a dense source.
    fn planes_len(&self, n: usize, nr: usize, p0: usize, kc: usize) -> usize {
        let BSource::Im2col(tb, geo, _) = *self else {
            return 0;
        };
        let block = self.block_panels(n, nr) * nr;
        (0..n)
            .step_by(block)
            .map(|j0| {
                let (chans, oys) = image_part(tb, geo, p0..p0 + kc, j0..n.min(j0 + block));
                Planes::scratch_len(geo, chans.len(), &oys)
            })
            .max()
            .unwrap_or(0)
    }
}

/// The image channels and output rows that the block of `op(B)` over
/// `depths` and `cols` reads, for an im2col source: col rows map to the
/// channels of their taps, col columns to the output rows of their
/// pixels. In the forward layout (`op(B) = col`) depths are col rows and
/// columns col columns; in the weight-gradient layout the other way
/// round.
fn image_part(
    tb: Transpose,
    geo: &ConvGeometry,
    depths: Range<usize>,
    cols: Range<usize>,
) -> (Range<usize>, Range<usize>) {
    let (rows, pixels) = if tb == Transpose::No {
        (depths, cols)
    } else {
        (cols, depths)
    };
    let (taps, ow) = (geo.kh * geo.kw, geo.out_w());
    (
        rows.start / taps..rows.end.div_ceil(taps),
        pixels.start / ow..pixels.end.div_ceil(ow),
    )
}

/// Where one block of a `KC` slab of `op(B)` is packed from: a dense
/// buffer, or the [`Planes`] of the part of the image the block reads,
/// split once for all of its panels.
enum Slab<'a> {
    Dense(Transpose, &'a [f32]),
    /// An im2col source's layout, the col row of the planes' first
    /// channel's first tap, and the planes.
    Col(Transpose, usize, Planes<'a>),
}

impl<'a> Slab<'a> {
    fn new(
        b: BSource<'a>,
        depths: Range<usize>,
        cols: Range<usize>,
        planes: &'a mut [f32],
    ) -> Self {
        match b {
            BSource::Dense(tb, b) => Slab::Dense(tb, b),
            BSource::Im2col(tb, geo, image) => {
                let (chans, oys) = image_part(tb, geo, depths, cols);
                let plane = geo.h * geo.w;
                let image = &image[chans.start * plane..chans.end * plane];
                let planes = &mut planes[..Planes::scratch_len(geo, chans.len(), &oys)];
                Slab::Col(
                    tb,
                    chans.start * geo.kh * geo.kw,
                    Planes::split(geo, image, chans.len(), oys, planes),
                )
            }
        }
    }
}

/// Panel `pj` (columns `pj*nr..`) of [`pack_b`].
#[allow(clippy::too_many_arguments)]
fn pack_b_panel(
    slab: &Slab<'_>,
    n: usize,
    k: usize,
    p0: usize,
    kc: usize,
    nr: usize,
    pj: usize,
    dst: &mut [f32],
) {
    let jbase = pj * nr;
    let cols = nr.min(n - jbase);
    match slab {
        Slab::Dense(Transpose::No, b) => {
            // B stored k x n: contiguous in j — memcpy per depth.
            for (p, d) in dst.chunks_exact_mut(nr).enumerate() {
                d[..cols].copy_from_slice(&b[(p0 + p) * n + jbase..][..cols]);
            }
        }
        Slab::Dense(Transpose::Yes, b) => {
            // B stored n x k: op(B)[p, j] = b[j*k + p]; each column
            // is contiguous in the source — the former NT/TT strided
            // inner loops collapse into this pack copy.
            transpose_into_panel(&b[jbase * k + p0..], k, cols, kc, nr, dst);
        }
        Slab::Col(Transpose::No, row0, planes) => {
            // op(B) = col: depth p is col row p0 + p; the panel's columns
            // are consecutive output pixels, one plane run per output row
            // they touch.
            let (pixel, values) = (planes.pixel(jbase), planes.values());
            for (d, row) in dst.chunks_exact_mut(nr).zip(planes.col_rows(p0 - row0)) {
                let mut at = 0;
                for (off, n) in planes.segments(pixel, cols) {
                    d[at..at + n].copy_from_slice(&values[row + off..][..n]);
                    at += n;
                }
            }
        }
        Slab::Col(Transpose::Yes, row0, planes) => {
            // op(B) = colᵀ: depth p is output pixel p0 + p, column c col
            // row jbase + c, so column c is that col row's runs over the
            // slab's pixels, written straight down the panel: `LANES`
            // columns in lockstep, so that each depth takes them as one
            // contiguous store, and the rest one at a time.
            const LANES: usize = 8;
            let (pixel, values) = (planes.pixel(p0), planes.values());
            let mut rows = planes.col_rows(jbase - row0);
            let full = cols / LANES * LANES;
            for c0 in (0..full).step_by(LANES) {
                let starts: [usize; LANES] =
                    std::array::from_fn(|_| rows.next().expect("col rows never end"));
                let mut depths = dst.chunks_exact_mut(nr);
                for (off, n) in planes.segments(pixel, kc) {
                    let runs: [&[f32]; LANES] =
                        std::array::from_fn(|t| &values[starts[t] + off..][..n]);
                    for (i, d) in depths.by_ref().take(n).enumerate() {
                        let d: &mut [f32; LANES] =
                            (&mut d[c0..c0 + LANES]).try_into().expect("LANES columns");
                        for (d, run) in d.iter_mut().zip(&runs) {
                            *d = run[i];
                        }
                    }
                }
            }
            for (c, row) in (full..cols).zip(rows) {
                let mut at = c;
                for (off, n) in planes.segments(pixel, kc) {
                    for &v in &values[row + off..][..n] {
                        dst[at] = v;
                        at += nr;
                    }
                }
            }
        }
    }
    if cols < nr {
        for d in dst.chunks_exact_mut(nr) {
            d[cols..].fill(0.0);
        }
    }
}

/// `dst[p*nr + c] = src[c*ld + p]` for columns `c < cols` and depths
/// `p < kc`: 16 depths at a time, so each source cache line is read once
/// while its 16 destination rows stay in L1.
fn transpose_into_panel(
    src: &[f32],
    ld: usize,
    cols: usize,
    kc: usize,
    nr: usize,
    dst: &mut [f32],
) {
    for pb in (0..kc).step_by(16) {
        let pl = 16.min(kc - pb);
        for cidx in 0..cols {
            for (p, &v) in src[cidx * ld + pb..][..pl].iter().enumerate() {
                dst[(pb + p) * nr + cidx] = v;
            }
        }
    }
}

/// `C = op(A) * op(B)` in int8 with exact i32 accumulation — the
/// VNNI-style low-precision product from Das et al. (arXiv:1602.06709)
/// backing [`crate::quantize_i8`]-encoded inference.
///
/// Layout is fixed to the quantized serving path's needs: `a` is the
/// `m x k` row-major activation block, `b_t` is the **transposed**
/// `n x k` weight block (the natural `(out, in)` storage of dense/conv
/// weights), and `c` receives the `m x n` i32 accumulator. Both operands
/// stream contiguously per dot product, so no packing stage is needed.
///
/// Integer arithmetic is exact: results are bit-identical across ISA
/// dispatch arms and thread counts by construction. Uses the
/// process-wide [`Isa::active`] selection; see [`gemm_i8_with_isa`] to
/// force an arm.
pub fn gemm_i8(m: usize, n: usize, k: usize, a: &[i8], b_t: &[i8], c: &mut [i32]) {
    gemm_i8_with_isa(Isa::active(), m, n, k, a, b_t, c);
}

/// [`gemm_i8`] with an explicitly chosen ISA (differential battery and
/// per-ISA benchmark rows). Panics if `isa` is unavailable on this CPU.
pub fn gemm_i8_with_isa(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    b_t: &[i8],
    c: &mut [i32],
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this CPU",
        isa.name()
    );
    assert!(
        a.len() >= m * k,
        "A buffer too small: {} < {}",
        a.len(),
        m * k
    );
    assert!(
        b_t.len() >= n * k,
        "B^T buffer too small: {} < {}",
        b_t.len(),
        n * k
    );
    assert!(
        c.len() >= m * n,
        "C buffer too small: {} < {}",
        c.len(),
        m * n
    );
    let c = &mut c[..m * n];
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0);
        return;
    }
    let row = |crow: &mut [i32], arow: &[i8]| {
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv = dot_i8(isa, arow, &b_t[j * k..(j + 1) * k]);
        }
    };
    if m * n * k >= PAR_WORK && m > 1 {
        par::for_each_chunk_mut(c, n, |i, crow| row(crow, &a[i * k..][..k]));
    } else {
        for (crow, arow) in c.chunks_mut(n).zip(a[..m * k].chunks(k)) {
            row(crow, arow);
        }
    }
}

/// The pre-packing kernel (axpy inner loops, strided `TN`/`TT` reads),
/// kept as the differential-testing baseline and the "seed" column of
/// `scidl-bench kernels`. Semantics identical to [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_unpacked(
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    check_dims(m, n, k, a, b, c);
    if m == 0 || n == 0 {
        return;
    }
    if m * n * k < PAR_WORK {
        apply_init(Init::Beta(beta), n, &mut c[..m * n]);
        accumulate_unpacked(ta, tb, 0, m, m, n, k, alpha, a, b, &mut c[..m * n]);
        return;
    }

    par::for_each_chunk_mut(&mut c[..m * n], SEED_MC * n, |blk, c_blk| {
        let i0 = blk * SEED_MC;
        let rows = c_blk.len() / n;
        apply_init(Init::Beta(beta), n, c_blk);
        accumulate_unpacked(ta, tb, i0, rows, m, n, k, alpha, a, b, c_blk);
    });
}

/// Accumulates `alpha * op(A)[i0..i0+rows, :] * op(B)` into the row block
/// `c_blk` (no prologue — callers scale/fill first). `m` is the full
/// logical row count, needed to index transposed A.
#[allow(clippy::too_many_arguments)]
fn accumulate_unpacked(
    ta: Transpose,
    tb: Transpose,
    i0: usize,
    rows: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c_blk: &mut [f32],
) {
    if k == 0 {
        return;
    }
    match (ta, tb) {
        (Transpose::No, Transpose::No) => {
            // C[i,j] += alpha * sum_p A[i,p] * B[p,j]; axpy over rows of B.
            for p0 in (0..k).step_by(KC) {
                let pend = (p0 + KC).min(k);
                for i in 0..rows {
                    let arow = &a[(i0 + i) * k..(i0 + i) * k + k];
                    let crow = &mut c_blk[i * n..(i + 1) * n];
                    for p in p0..pend {
                        // No zero-skip here: 0·NaN must stay NaN, matching
                        // gemm_ref. Skipping `av == 0.0` would silently mask
                        // non-finite values in B.
                        let av = alpha * arow[p];
                        let brow = &b[p * n..p * n + n];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            // B stored n x k; dot products of contiguous rows.
            for i in 0..rows {
                let arow = &a[(i0 + i) * k..(i0 + i) * k + k];
                let crow = &mut c_blk[i * n..(i + 1) * n];
                for (j, cv) in crow.iter_mut().enumerate() {
                    let brow = &b[j * k..j * k + k];
                    let mut acc = 0.0f32;
                    for (av, bv) in arow.iter().zip(brow) {
                        acc += av * bv;
                    }
                    *cv += alpha * acc;
                }
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // A stored k x m; op(A)[i,p] = A[p, i].
            for p in 0..k {
                let arow = &a[p * m..p * m + m];
                let brow = &b[p * n..p * n + n];
                for i in 0..rows {
                    // As in the NN kernel: no zero-skip, 0·NaN must be NaN.
                    let av = alpha * arow[i0 + i];
                    let crow = &mut c_blk[i * n..(i + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            for i in 0..rows {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a[p * m + i0 + i] * b[j * k + p];
                    }
                    c_blk[i * n + j] += alpha * acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::reference::{col2im_ref, im2col_ref};

    /// Naive reference implementation with f64 accumulation.
    #[allow(clippy::too_many_arguments)]
    fn gemm_ref(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    let av = match ta {
                        Transpose::No => a[i * k + p],
                        Transpose::Yes => a[p * m + i],
                    };
                    let bv = match tb {
                        Transpose::No => b[p * n + j],
                        Transpose::Yes => b[j * k + p],
                    };
                    acc += av as f64 * bv as f64;
                }
                c[i * n + j] = alpha * acc as f32 + beta * c[i * n + j];
            }
        }
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f32 - 1000.0) / 500.0
            })
            .collect()
    }

    fn check(ta: Transpose, tb: Transpose, m: usize, n: usize, k: usize, alpha: f32, beta: f32) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut c = fill(m * n, 3);
        let mut c_ref = c.clone();
        gemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c);
        gemm_ref(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c_ref);
        let max_err = c
            .iter()
            .zip(&c_ref)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        // f32 accumulation over k terms; tolerance scales with k.
        let tol = 1e-4 * (k as f32).sqrt() * 16.0;
        assert!(
            max_err < tol,
            "gemm {ta:?}{tb:?} m={m} n={n} k={k}: max err {max_err} > {tol}"
        );
    }

    #[test]
    fn small_all_transposes() {
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                check(ta, tb, 3, 4, 5, 1.0, 0.0);
                check(ta, tb, 1, 1, 1, 1.0, 0.0);
                check(ta, tb, 5, 1, 7, 1.0, 0.0);
            }
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        check(Transpose::No, Transpose::No, 7, 9, 11, 0.5, 2.0);
        check(Transpose::No, Transpose::Yes, 7, 9, 11, -1.0, 1.0);
        check(Transpose::Yes, Transpose::No, 7, 9, 11, 2.0, 0.5);
        check(Transpose::Yes, Transpose::Yes, 7, 9, 11, 1.5, -0.5);
    }

    #[test]
    fn large_parallel_paths() {
        // Cross the parallel threshold and the MC block boundary, with a
        // ragged final block (130 = 2*64 + 2).
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                check(ta, tb, 130, 70, 33, 1.0, 0.0);
            }
        }
    }

    #[test]
    fn ragged_register_tiles_all_transposes() {
        // m, n deliberately not multiples of any ISA's register tile, k not a
        // multiple of KC, exercising every pack-padding branch; alpha/beta mixed.
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                check(ta, tb, 9, 13, 17, 1.0, 0.0);
                check(ta, tb, 15, 23, 29, 0.5, 1.0);
                check(ta, tb, 65, 71, 37, 1.0, 0.0); // ragged MC block
            }
        }
    }

    #[test]
    fn kc_block_boundary_all_transposes() {
        // k crossing the KC=256 cache block forces multi-slab
        // accumulation through the packed path.
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                check(ta, tb, 17, 19, 260, 1.0, 0.5);
            }
        }
    }

    #[test]
    fn packed_matches_unpacked_baseline() {
        // The retained seed kernel and the packed kernel agree to f32
        // rounding on a shape crossing every blocking boundary.
        let (m, n, k) = (70, 530, 300);
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let a = fill(m * k, 11);
                let b = fill(k * n, 12);
                let mut c_packed = fill(m * n, 13);
                let mut c_seed = c_packed.clone();
                gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.5, &mut c_packed);
                gemm_unpacked(ta, tb, m, n, k, 1.0, &a, &b, 0.5, &mut c_seed);
                let max_err = c_packed
                    .iter()
                    .zip(&c_seed)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f32, f32::max);
                let tol = 1e-4 * (k as f32).sqrt() * 16.0;
                assert!(max_err < tol, "{ta:?}{tb:?}: packed vs seed err {max_err}");
            }
        }
    }

    #[test]
    fn tall_skinny_conv_shapes() {
        // Typical im2col shape: m = out_channels, k = cin*kh*kw, n = oh*ow.
        check(Transpose::No, Transpose::No, 128, 196, 1152, 1.0, 0.0);
        // Weight-gradient shape: m = cout, n = cin*kh*kw, k = oh*ow.
        check(Transpose::No, Transpose::Yes, 128, 1152, 196, 1.0, 1.0);
        // Backward-data shape: (cin*kh*kw) x (oh*ow) = W^T * dY.
        check(Transpose::Yes, Transpose::No, 1152, 196, 128, 1.0, 0.0);
    }

    #[test]
    fn k_zero_scales_c() {
        let mut c = vec![2.0f32; 6];
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            3,
            0,
            1.0,
            &[],
            &[],
            0.5,
            &mut c,
        );
        assert!(c.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn m_zero_is_noop() {
        let mut c: Vec<f32> = vec![];
        gemm(
            Transpose::No,
            Transpose::No,
            0,
            0,
            5,
            1.0,
            &[],
            &[],
            0.0,
            &mut c,
        );
        // An empty left operand packs to nothing and multiplies to nothing.
        PackedA::new(Transpose::No, 0, 5, &[]).gemm(
            BSource::Dense(Transpose::No, &[0.0; 15]),
            3,
            1.0,
            0.0,
            &mut c,
        );
        PackedA::new(Transpose::Yes, 4, 0, &[]).gemm(
            BSource::Dense(Transpose::No, &[]),
            0,
            1.0,
            0.0,
            &mut c,
        );
    }

    #[test]
    fn gemm_bias_adds_rowwise() {
        // 2x2 identity times [[1,2],[3,4]] plus bias [10, 20].
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let bias = vec![10.0, 20.0];
        let mut c = vec![0.0; 4];
        gemm_bias(Transpose::No, Transpose::No, 2, 2, 2, &a, &b, &bias, &mut c);
        assert_eq!(c, vec![11.0, 12.0, 23.0, 24.0]);
    }

    #[test]
    fn gemm_bias_cols_adds_columnwise() {
        // 2x2 identity times [[1,2],[3,4]] plus per-column bias [10, 20].
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let bias = vec![10.0, 20.0];
        let mut c = vec![0.0; 4];
        gemm_bias_cols(Transpose::No, Transpose::No, 2, 2, 2, &a, &b, &bias, &mut c);
        assert_eq!(c, vec![11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn fused_bias_matches_separate_sweep_on_large_shapes() {
        // Fused row-bias epilogue vs gemm + manual broadcast, on a shape
        // taking the packed parallel path. Identical accumulation order
        // (bias is the init value either way C starts at bias), so the
        // comparison is exact.
        let (m, n, k) = (64, 300, 288);
        let a = fill(m * k, 21);
        let b = fill(k * n, 22);
        let bias = fill(m, 23);
        let mut fused = vec![0.0f32; m * n];
        gemm_bias(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            &a,
            &b,
            &bias,
            &mut fused,
        );
        let mut two_pass = vec![0.0f32; m * n];
        for (row, &bv) in two_pass.chunks_mut(n).zip(&bias) {
            row.fill(bv);
        }
        gemm(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            1.0,
            &mut two_pass,
        );
        assert_eq!(fused, two_pass);
    }

    #[test]
    #[should_panic(expected = "A buffer too small")]
    fn rejects_short_a() {
        let mut c = vec![0.0; 4];
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            &[1.0; 3],
            &[1.0; 4],
            0.0,
            &mut c,
        );
    }

    /// NaN-aware comparison against the reference: got must be NaN iff
    /// the reference is NaN, match the sign of infinities, and be close
    /// otherwise.
    fn check_nonfinite(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) {
        let mut c = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        gemm(ta, tb, m, n, k, 1.0, a, b, 0.0, &mut c);
        gemm_ref(ta, tb, m, n, k, 1.0, a, b, 0.0, &mut c_ref);
        for (idx, (&x, &y)) in c.iter().zip(&c_ref).enumerate() {
            if y.is_nan() {
                assert!(x.is_nan(), "{ta:?}{tb:?} c[{idx}]: expected NaN, got {x}");
            } else if y.is_infinite() {
                assert_eq!(x, y, "{ta:?}{tb:?} c[{idx}]: expected {y}, got {x}");
            } else {
                assert!((x - y).abs() < 1e-3, "{ta:?}{tb:?} c[{idx}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_times_nan_propagates_all_transposes() {
        // op(A)[0, 1] = 0 and op(B)[1, 2] = NaN: the 0·NaN product must
        // poison C[0, 2]. The old zero-skip in the NN/TN kernels masked
        // exactly this.
        let (m, n, k) = (3, 4, 5);
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let mut a = fill(m * k, 4);
                let mut b = fill(k * n, 5);
                match ta {
                    Transpose::No => a[1] = 0.0,  // op(A)[0, 1]
                    Transpose::Yes => a[m] = 0.0, // A[1, 0] → op(A)[0, 1]
                }
                match tb {
                    Transpose::No => b[n + 2] = f32::NAN, // B[1, 2] → op(B)[1, 2]
                    Transpose::Yes => b[2 * k + 1] = f32::NAN, // B[2, 1] → op(B)[1, 2]
                }
                let mut c = vec![0.0f32; m * n];
                gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                assert!(
                    c[2].is_nan(),
                    "{ta:?}{tb:?}: 0·NaN was masked, c[0,2] = {}",
                    c[2]
                );
                check_nonfinite(ta, tb, m, n, k, &a, &b);
            }
        }
    }

    #[test]
    fn inf_and_nan_mixtures_match_reference() {
        // Scatter zeros, NaN and ±Inf through both operands (including
        // an Inf−Inf cancellation producing NaN) and compare NaN-aware
        // against the reference for every transpose pair.
        let (m, n, k) = (4, 5, 6);
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let mut a = fill(m * k, 6);
                let mut b = fill(k * n, 7);
                a[0] = 0.0;
                a[3] = f32::INFINITY;
                a[7] = f32::NEG_INFINITY;
                b[2] = f32::NAN;
                b[5] = f32::INFINITY;
                b[11] = 0.0;
                check_nonfinite(ta, tb, m, n, k, &a, &b);
            }
        }
    }

    #[test]
    fn nonfinite_survives_blocked_parallel_path() {
        // Large enough to cross the MC row-blocking and the parallel
        // work threshold; one zero-masked NaN deep in the k range.
        let (m, n, k) = (130, 70, 33);
        let mut a = fill(m * k, 8);
        let mut b = fill(k * n, 9);
        a[129 * k + 20] = 0.0; // op(A)[129, 20] (last ragged block)
        b[20 * n + 69] = f32::NAN; // op(B)[20, 69]
        let mut c = vec![0.0f32; m * n];
        gemm(
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
        );
        assert!(c[129 * n + 69].is_nan());
        check_nonfinite(Transpose::No, Transpose::No, m, n, k, &a, &b);
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        for (idx, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} c[{idx}]: {x} vs {y}");
        }
    }

    #[test]
    fn every_detected_isa_is_bit_identical() {
        // The dispatch contract: ISA selection must never change results,
        // not even in the last ulp. Compare every detected arm against
        // the baseline arm bit-for-bit on shapes covering the packed
        // path, ragged tiles and KC-block accumulation.
        for (m, n, k) in [(17, 33, 64), (70, 530, 300), (64, 196, 288)] {
            for ta in [Transpose::No, Transpose::Yes] {
                for tb in [Transpose::No, Transpose::Yes] {
                    let a = fill(m * k, 31);
                    let b = fill(k * n, 32);
                    let init = fill(m * n, 33);
                    let mut base = init.clone();
                    gemm_with_isa(Isa::Sse2, ta, tb, m, n, k, 1.0, &a, &b, 0.5, &mut base);
                    for &isa in Isa::detected() {
                        let mut c = init.clone();
                        gemm_with_isa(isa, ta, tb, m, n, k, 1.0, &a, &b, 0.5, &mut c);
                        let what = format!("{ta:?}{tb:?} m={m} n={n} k={k} isa={}", isa.name());
                        assert_same_bits(&c, &base, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn ragged_tile_and_block_edges_are_bit_identical_across_isas() {
        // One below, on and one above every register-tile edge (4, 8 rows;
        // 16, 32 columns) and cache-block edge (MC 64, NC 512, KC 256), for
        // every transpose pair and the three beta classes (overwrite,
        // accumulate, scale). PackedA must round like the free functions.
        let betas = [0.0f32, 1.0, 0.5];
        for m in [1usize, 7, 8, 9, 63, 65] {
            for n in [1usize, 31, 32, 33, 511, 513] {
                for k in [1usize, 255, 256, 257] {
                    let a = fill(m * k, 51);
                    let b = fill(k * n, 52);
                    let init = fill(m * n, 53);
                    for (t, (ta, tb)) in [
                        (Transpose::No, Transpose::No),
                        (Transpose::No, Transpose::Yes),
                        (Transpose::Yes, Transpose::No),
                        (Transpose::Yes, Transpose::Yes),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        for beta in betas {
                            let what = format!("{ta:?}{tb:?} m={m} n={n} k={k} beta={beta}");
                            let mut base = init.clone();
                            gemm_with_isa(
                                Isa::Sse2,
                                ta,
                                tb,
                                m,
                                n,
                                k,
                                -1.5,
                                &a,
                                &b,
                                beta,
                                &mut base,
                            );
                            for &isa in Isa::detected() {
                                let mut c = init.clone();
                                gemm_with_isa(isa, ta, tb, m, n, k, -1.5, &a, &b, beta, &mut c);
                                assert_same_bits(&c, &base, &format!("{what} isa={}", isa.name()));
                            }
                            let mut c = init.clone();
                            PackedA::new(ta, m, k, &a).gemm(
                                BSource::Dense(tb, &b),
                                n,
                                -1.5,
                                beta,
                                &mut c,
                            );
                            assert_same_bits(&c, &base, &format!("{what} PackedA"));
                        }
                        if t == 0 {
                            let bias = fill(m, 54);
                            let mut want = vec![0.0f32; m * n];
                            gemm_bias(ta, tb, m, n, k, &a, &b, &bias, &mut want);
                            let mut c = vec![0.0f32; m * n];
                            PackedA::new(ta, m, k, &a).gemm_bias(
                                BSource::Dense(tb, &b),
                                n,
                                &bias,
                                &mut c,
                            );
                            assert_same_bits(&c, &want, &format!("m={m} n={n} k={k} PackedA bias"));
                        }
                    }
                }
            }
        }
    }

    /// Parks NaN-filled buffers of `len`, `2·len`, `4·len` and `8·len`
    /// floats in this thread's scratch pool, so that pack padding which
    /// is not zeroed shows up as NaN in the product.
    fn poison_pool(len: usize) {
        let poison: Vec<_> = (0..4)
            .map(|i| {
                let mut buf = Workspace::take(len << i);
                buf.fill(f32::NAN);
                buf
            })
            .collect();
        drop(poison);
    }

    /// The packed path's numerics contract as scalar code: per `KC`
    /// block one `mul_add` chain from `+0.0`, `p` ascending — one
    /// rounding per multiply-add. Returns the chains' results block by
    /// block (`k.div_ceil(KC)` slabs of `m * n`).
    fn contract_blocks(
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let mut blocks = Vec::with_capacity(k.div_ceil(KC) * m * n);
        for p0 in (0..k).step_by(KC) {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in p0..(p0 + KC).min(k) {
                        let av = if ta == Transpose::No {
                            a[i * k + p]
                        } else {
                            a[p * m + i]
                        };
                        let bv = if tb == Transpose::No {
                            b[p * n + j]
                        } else {
                            b[j * k + p]
                        };
                        acc = av.mul_add(bv, acc);
                    }
                    blocks.push(acc);
                }
            }
        }
        blocks
    }

    /// The rest of the contract: the `beta` prologue, then `C += alpha *
    /// acc` once per `KC` block, multiply and add rounded separately.
    fn contract_apply(blocks: &[f32], alpha: f32, beta: f32, c: &mut [f32]) {
        if beta == 0.0 {
            c.fill(0.0);
        } else if beta != 1.0 {
            c.iter_mut().for_each(|x| *x *= beta);
        }
        for block in blocks.chunks(c.len()) {
            for (cv, &acc) in c.iter_mut().zip(block) {
                *cv += alpha * acc;
            }
        }
    }

    #[test]
    fn every_arm_and_packed_a_equal_the_scalar_fused_reference() {
        // The contract test: every detected arm and `PackedA` produce the
        // bits of the scalar reference above on the ragged battery, plus
        // the 6-row tile's own edges (5, 6 and its 60-row block). Below
        // `SMALL_WORK` the contract is the unpacked kernel's arithmetic.
        for m in [1usize, 5, 6, 7, 8, 9, 60, 63, 65] {
            for n in [1usize, 31, 32, 33, 511, 513] {
                for k in [1usize, 255, 256, 257] {
                    let a = fill(m * k, 71);
                    let b = fill(k * n, 72);
                    let init = fill(m * n, 73);
                    for ta in [Transpose::No, Transpose::Yes] {
                        for tb in [Transpose::No, Transpose::Yes] {
                            let blocks = contract_blocks(ta, tb, m, n, k, &a, &b);
                            for beta in [0.0f32, 1.0, 0.5] {
                                let what = format!("{ta:?}{tb:?} m={m} n={n} k={k} beta={beta}");
                                let mut want = init.clone();
                                if m * n * k < SMALL_WORK {
                                    gemm_unpacked(ta, tb, m, n, k, -1.5, &a, &b, beta, &mut want);
                                } else {
                                    contract_apply(&blocks, -1.5, beta, &mut want);
                                }
                                for &isa in Isa::detected() {
                                    let mut c = init.clone();
                                    gemm_with_isa(isa, ta, tb, m, n, k, -1.5, &a, &b, beta, &mut c);
                                    assert_same_bits(
                                        &c,
                                        &want,
                                        &format!("{what} isa={}", isa.name()),
                                    );
                                }
                                let mut c = init.clone();
                                PackedA::new(ta, m, k, &a).gemm(
                                    BSource::Dense(tb, &b),
                                    n,
                                    -1.5,
                                    beta,
                                    &mut c,
                                );
                                assert_same_bits(&c, &want, &format!("{what} PackedA"));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_nonfinite_cases_in_last_partial_panel() {
        // What a fused multiply-add does with the IEEE specials, in the
        // last partial panels (row 64 of 65 = 8·8 + 1 = 6·10 + 5, columns
        // 32..36 of 36 = 32 + 4) over NaN-poisoned pool memory. Row 64 of
        // op(A) is negative with a zero at depths 3, 100 and 256 (the
        // one-deep last `KC` block); columns 33..36 of op(B) put a NaN,
        // +inf and −inf there — `fma(0, NaN, acc)` and `fma(±0, ±inf,
        // acc)` are NaN — and column 32 is +0.0 throughout: `fma(−x, 0,
        // +0.0)` is `+0.0`, the −0 product must not flip the accumulator.
        let (m, n, k) = (65, 36, 257);
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let at = |i: usize, p: usize| {
                    if ta == Transpose::No {
                        i * k + p
                    } else {
                        p * m + i
                    }
                };
                let bt = |p: usize, j: usize| {
                    if tb == Transpose::No {
                        p * n + j
                    } else {
                        j * k + p
                    }
                };
                let mut a = fill(m * k, 81);
                let mut b = fill(k * n, 82);
                for p in 0..k {
                    a[at(m - 1, p)] = -1.0 - (p % 5) as f32;
                    b[bt(p, 32)] = 0.0;
                }
                a[at(m - 1, 3)] = 0.0;
                a[at(m - 1, 100)] = 0.0;
                a[at(m - 1, 256)] = -0.0;
                b[bt(3, 33)] = f32::NAN;
                b[bt(100, 34)] = f32::INFINITY;
                b[bt(256, 35)] = f32::NEG_INFINITY;
                let mut want = vec![0.0f32; m * n];
                contract_apply(
                    &contract_blocks(ta, tb, m, n, k, &a, &b),
                    1.0,
                    0.0,
                    &mut want,
                );
                for &isa in Isa::detected() {
                    poison_pool((m + 8) * k);
                    let mut c = vec![0.0f32; m * n];
                    gemm_with_isa(isa, ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                    let what = format!("{ta:?}{tb:?} isa={}", isa.name());
                    for (i, row) in c.chunks(n).enumerate() {
                        assert!(
                            row[..32].iter().all(|x| x.is_finite()),
                            "{what}: poison leaked into row {i}"
                        );
                        assert_eq!(
                            row[32].to_bits(),
                            0,
                            "{what}: fma(x, +0, +0.0) in row {i} is {}",
                            row[32]
                        );
                    }
                    let last = &c[(m - 1) * n..];
                    assert!(last[33].is_nan(), "{what}: fma(0, NaN, acc) = {}", last[33]);
                    assert!(
                        last[34].is_nan(),
                        "{what}: fma(0, +inf, acc) = {}",
                        last[34]
                    );
                    assert!(
                        last[35].is_nan(),
                        "{what}: fma(-0, -inf, acc) = {}",
                        last[35]
                    );
                    for (idx, (x, y)) in c.iter().zip(&want).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                            "{what} c[{idx}]: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nonfinite_in_last_partial_panel_is_neither_laundered_nor_leaked() {
        // Shapes whose last A panel holds one valid row and whose last B
        // panel one valid column for every tile shape, with the IEEE
        // palette exactly there. Launder: padding next to a NaN must not
        // turn it into a number. Leak: padding is stale pool memory until
        // the pack zeroes it, so park NaN-filled buffers in the pool first
        // and demand every reference-finite element stays finite.
        let palette = [
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -2.0,
        ];
        let (m, n, k) = (65, 33, 257);
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let mut a = fill(m * k, 61);
                let mut b = fill(k * n, 62);
                for p in 0..k {
                    let ai = if ta == Transpose::No {
                        (m - 1) * k + p
                    } else {
                        p * m + m - 1
                    };
                    let bi = if tb == Transpose::No {
                        p * n + n - 1
                    } else {
                        (n - 1) * k + p
                    };
                    a[ai] = palette[p % palette.len()];
                    b[bi] = palette[(p / 3) % palette.len()];
                }
                let mut want = vec![0.0f32; m * n];
                gemm_ref(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut want);
                let mut base = vec![0.0f32; m * n];
                gemm_with_isa(Isa::Sse2, ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut base);
                for &isa in Isa::detected() {
                    poison_pool((m + 8) * k);
                    let mut c = vec![0.0f32; m * n];
                    gemm_with_isa(isa, ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                    for (idx, (&x, &y)) in c.iter().zip(&want).enumerate() {
                        let what = format!("{ta:?}{tb:?} isa={} c[{idx}]", isa.name());
                        if y.is_nan() {
                            assert!(x.is_nan(), "{what}: NaN laundered to {x}");
                        } else if y.is_infinite() {
                            assert_eq!(x, y, "{what}");
                        } else {
                            assert!((x - y).abs() < 1e-2, "{what}: {x} vs {y}");
                        }
                    }
                    assert_same_bits(&c, &base, &format!("{ta:?}{tb:?} isa={}", isa.name()));
                }
            }
        }
    }

    /// All of `op(B)`, `KC` slab by `KC` slab, as `pack_b` lays it out
    /// for tile width `nr` — over NaN, so an element the pack leaves
    /// unwritten shows.
    fn pack_all(b: BSource<'_>, n: usize, k: usize, nr: usize, split: bool) -> Vec<f32> {
        let n_pad = n.div_ceil(nr) * nr;
        let mut bpack = vec![f32::NAN; n_pad * k];
        for (p0, slab) in (0..k).step_by(KC).zip(bpack.chunks_mut(n_pad * KC)) {
            let kc = KC.min(k - p0);
            let mut planes = vec![f32::NAN; b.planes_len(n, nr, p0, kc)];
            pack_b(b, n, k, p0, kc, nr, split, slab, &mut planes);
        }
        bpack
    }

    /// The im2col source against the col matrix the element loop writes,
    /// in both layouts and at every detected ISA's tile width: the packed panels
    /// bit for bit, then a product over each (the lazy one over a
    /// NaN-poisoned pool) bit for bit. Returns the lazy products.
    fn assert_im2col_source_matches_col(geo: &ConvGeometry, image: &[f32]) -> Vec<f32> {
        let (rows, cols) = (geo.col_rows(), geo.col_cols());
        let mut col = vec![f32::NAN; rows * cols];
        im2col_ref(geo, image, &mut col);
        let mut products = Vec::new();
        for tb in [Transpose::No, Transpose::Yes] {
            let (k, n) = if tb == Transpose::No {
                (rows, cols)
            } else {
                (cols, rows)
            };
            let (lazy, dense) = (BSource::Im2col(tb, geo, image), BSource::Dense(tb, &col));
            let a = fill(7 * k, 91);
            for &isa in Isa::detected() {
                let what = format!("{geo:?} {tb:?} isa={}", isa.name());
                let nr = isa.kernel().nr;
                for split in [false, true] {
                    let want = pack_all(dense, n, k, nr, split);
                    assert_same_bits(
                        &pack_all(lazy, n, k, nr, split),
                        &want,
                        &format!("{what} split={split} panels"),
                    );
                }
                let pa = PackedA::with_isa(isa, Transpose::No, 7, k, &a);
                let mut want = vec![0.0f32; 7 * n];
                pa.gemm(dense, n, 1.0, 0.0, &mut want);
                poison_pool(7 * rows * cols);
                let mut got = vec![0.0f32; 7 * n];
                pa.gemm(lazy, n, 1.0, 0.0, &mut got);
                assert_same_bits(&got, &want, &format!("{what} product"));
                products.extend(got);
            }
        }
        products
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn im2col_panels_match_packing_the_col_matrix(
            cin in 1usize..4,
            h in 1usize..12,
            w in 1usize..12,
            k in 1usize..6,
            stride in 1usize..4,
            pad_sel in 0usize..5,
            seed in 0u64..1 << 32,
        ) {
            // pad ranges over 0..k, so small images see pad >= w (rows
            // that are padding end to end) and 1x1 images are included;
            // h and w differ and run odd and even, strides 1 to 3 give
            // one, four and nine phase planes, and kernels 2 and 4 (the
            // deconvs' 4x4) phases of unequal depth.
            let pad = pad_sel % k;
            proptest::prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let geo = ConvGeometry::new(cin, 1, h, w, k, stride, pad);
            assert_im2col_source_matches_col(&geo, &fill(cin * h * w, seed));
        }
    }

    #[test]
    fn im2col_panels_straddle_every_tile_width_and_kc() {
        // Output rows one below, on and one above 16 and 32 columns (every
        // ISA's nr), at stride 1 and 2; col rows (cin·k²) one below, on
        // and one above KC = 256, and 5x5's 250 / 275.
        for ow in [15usize, 16, 17, 31, 32, 33] {
            for (cin, k, stride) in [
                (2, 3, 1),
                (3, 3, 2),
                (255, 1, 1),
                (256, 1, 2),
                (257, 1, 1),
                (10, 5, 1),
                (11, 5, 2),
            ] {
                let pad = k / 2;
                let w = (ow - 1) * stride + k - 2 * pad;
                let geo = ConvGeometry::new(cin, 1, 3, w, k, stride, pad);
                assert_eq!(geo.out_w(), ow);
                assert_im2col_source_matches_col(&geo, &fill(cin * 3 * w, (cin * ow) as u64));
            }
        }
    }

    #[test]
    fn nonfinite_pixels_beside_padding_propagate() {
        // NaN, ±inf and −0.0 in the image corners, where the same taps'
        // neighbours read padding: the gathered panels carry them, and the
        // padding next to them, as the col matrix does (+0.0, never −0.0
        // or a pool's stale NaN).
        for stride in [1, 2] {
            let (cin, h, w) = (3, 9, 10);
            let geo = ConvGeometry::new(cin, 1, h, w, 3, stride, 1);
            let mut image = fill(cin * h * w, 97);
            for c in 0..cin {
                let plane = &mut image[c * h * w..][..h * w];
                plane[0] = f32::NAN;
                plane[w - 1] = f32::INFINITY;
                plane[(h - 1) * w] = f32::NEG_INFINITY;
                plane[h * w - 1] = -0.0;
            }
            let products = assert_im2col_source_matches_col(&geo, &image);
            assert!(
                products.iter().any(|v| v.is_nan()),
                "stride {stride}: no NaN reached a product"
            );
            assert!(
                products.iter().any(|v| v.is_finite()),
                "stride {stride}: padding poisoned every product"
            );
        }
    }

    #[test]
    fn gemm_col2im_groups_match_the_whole_dcol_and_col2im() {
        // Backward-data by channel group against the whole dcol = Wᵀ·dY
        // and the element-loop col2im, into a non-zero image: below
        // SMALL_WORK, a ragged last group (29·9 = 261 rows), B deeper than
        // KC (cout 300), 5x5 stride 2, the deconv's 4x4 stride 2, 1x1 over
        // 300 channels, stride 3 with 2x2 and 4x4 kernels on odd h ≠ w,
        // pad k − 1, and two above PAR_WORK: eight groups (taken whole by
        // the threads from width 2) and one (its tiles shared). Widths 1
        // to 3.
        for (cin, cout, h, w, k, stride, pad) in [
            (2, 3, 5, 5, 3, 1, 1),
            (29, 16, 9, 9, 3, 1, 1),
            (40, 300, 6, 6, 3, 2, 1),
            (11, 8, 12, 12, 5, 2, 2),
            (17, 24, 7, 7, 4, 2, 1),
            (300, 4, 3, 3, 1, 1, 0),
            (9, 12, 11, 7, 2, 3, 1),
            (13, 20, 9, 14, 4, 3, 3),
            (6, 10, 13, 10, 4, 2, 3),
            (5, 7, 7, 9, 5, 3, 4),
            (64, 32, 24, 24, 3, 1, 1),
            (3, 64, 64, 64, 3, 1, 1),
        ] {
            let geo = ConvGeometry::new(cin, cout, h, w, k, stride, pad);
            let (rows, cols) = (geo.col_rows(), geo.col_cols());
            let weight = fill(cout * rows, 93);
            let dy = fill(cout * cols, 94);
            let image = fill(cin * h * w, 95);
            for &isa in Isa::detected() {
                let mut dcol = vec![f32::NAN; rows * cols];
                gemm_with_isa(
                    isa,
                    Transpose::Yes,
                    Transpose::No,
                    rows,
                    cols,
                    cout,
                    1.0,
                    &weight,
                    &dy,
                    0.0,
                    &mut dcol,
                );
                let mut want = image.clone();
                col2im_ref(&geo, &dcol, &mut want);
                for width in 1..=3 {
                    par::set_width(width);
                    poison_pool(rows * cols);
                    let mut got = image.clone();
                    PackedA::with_isa(isa, Transpose::Yes, rows, cout, &weight)
                        .gemm_col2im(&geo, &dy, &mut got);
                    assert_same_bits(
                        &got,
                        &want,
                        &format!("{geo:?} isa={} width {width}", isa.name()),
                    );
                }
            }
        }
    }

    /// i64-accumulate reference for the int8 kernel.
    fn gemm_i8_ref(m: usize, n: usize, k: usize, a: &[i8], b_t: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    acc += a[i * k + p] as i64 * b_t[j * k + p] as i64;
                }
                c[i * n + j] = i32::try_from(acc).expect("i8 reduction fits i32");
            }
        }
        c
    }

    fn fill_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 255) as i64 as i8
            })
            .collect()
    }

    #[test]
    fn gemm_i8_matches_reference_every_isa() {
        // Shapes cover the sequential path, the parallel row split, ragged
        // k (AVX2 tail lanes) and the deep hep_fwd reduction depth.
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (8, 10, 33),
            (16, 32, 1152),
            (128, 64, 100),
        ] {
            let a = fill_i8(m * k, 41);
            let b_t = fill_i8(n * k, 42);
            let want = gemm_i8_ref(m, n, k, &a, &b_t);
            for &isa in Isa::detected() {
                let mut c = vec![0i32; m * n];
                gemm_i8_with_isa(isa, m, n, k, &a, &b_t, &mut c);
                assert_eq!(c, want, "m={m} n={n} k={k} isa={}", isa.name());
            }
            let mut c = vec![0i32; m * n];
            gemm_i8(m, n, k, &a, &b_t, &mut c);
            assert_eq!(c, want, "m={m} n={n} k={k} active dispatch");
        }
    }

    #[test]
    fn gemm_i8_extreme_values_stay_exact() {
        // All-(-127) operands at hep depth: the largest magnitude the
        // quantizer can emit, summed 1152 deep — exact in i32 and equal
        // across every ISA arm.
        let (m, n, k) = (4, 16, 1152);
        let a = vec![-127i8; m * k];
        let b_t = vec![-127i8; n * k];
        let want = vec![1152 * 127 * 127; m * n];
        for &isa in Isa::detected() {
            let mut c = vec![0i32; m * n];
            gemm_i8_with_isa(isa, m, n, k, &a, &b_t, &mut c);
            assert_eq!(c, want, "isa={}", isa.name());
        }
    }

    #[test]
    fn gemm_i8_k_zero_writes_zeros() {
        let mut c = vec![7i32; 6];
        gemm_i8(2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, vec![0; 6]);
    }

    #[test]
    #[should_panic(expected = "B^T buffer too small")]
    fn gemm_i8_rejects_short_b() {
        let mut c = vec![0i32; 4];
        gemm_i8(2, 2, 3, &[1; 6], &[1; 5], &mut c);
    }

    #[test]
    fn nonfinite_survives_packed_kc_blocks() {
        // NaN in the second KC slab, zero partner in the first — the
        // multi-slab accumulation must not launder either.
        let (m, n, k) = (20, 30, 300);
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let mut a = fill(m * k, 14);
                let mut b = fill(k * n, 15);
                // op(A)[3, 270] = 0, op(B)[270, 7] = NaN.
                match ta {
                    Transpose::No => a[3 * k + 270] = 0.0,
                    Transpose::Yes => a[270 * m + 3] = 0.0,
                }
                match tb {
                    Transpose::No => b[270 * n + 7] = f32::NAN,
                    Transpose::Yes => b[7 * k + 270] = f32::NAN,
                }
                let mut c = vec![0.0f32; m * n];
                gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, &mut c);
                assert!(
                    c[3 * n + 7].is_nan(),
                    "{ta:?}{tb:?}: NaN laundered across KC blocks"
                );
                check_nonfinite(ta, tb, m, n, k, &a, &b);
            }
        }
    }
}
