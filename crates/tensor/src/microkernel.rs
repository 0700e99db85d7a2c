//! Runtime-dispatched SIMD microkernels for the packed GEMM family.
//!
//! The paper's per-node numbers come from kernels specialised to the
//! widest SIMD unit the chip offers (512-bit vectors on KNL, Sec. VIII-A);
//! Das et al. (arXiv:1602.06709) make the same point for lower-precision
//! multiply-accumulate. This module is the Rust analogue: one CPU-feature
//! probe per process ([`Isa::active`]) selects a [`Kernel`] descriptor —
//! the register-tile shape `mr × nr` the pack routines in
//! [`crate::gemm`] lay panels out for, plus the function that consumes
//! them:
//!
//! * [`Isa::Sse2`] — the portable 4×16 tile: fixed-size inner loops over
//!   `f32::mul_add` that the compiler vectorises. One body, compiled
//!   twice on x86-64: under `target_feature = "fma"` (picked when the CPU
//!   reports it — nearly every x86-64 since 2013) and for the build's
//!   baseline, where `mul_add` is a call to the software `fmaf`. Other
//!   architectures get their native instruction from the plain copy.
//! * [`Isa::Avx2`] — explicit `std::arch`, a 6×16 tile in twelve 256-bit
//!   registers, selected when the CPU reports `avx2` and `fma`.
//! * [`Isa::Avx512`] — explicit `std::arch`, an 8×32 tile shaped for the
//!   32 zmm registers (16 accumulators, 2 `b` loads and 8 broadcasts per
//!   depth step), selected when the CPU also reports `avx512f`.
//!
//! **Bit-identity contract.** Every arm performs *exactly* the same f32
//! operations in the same order per output element: per `KC` block the
//! accumulator starts at `+0.0` and takes one **fused multiply-add** per
//! depth step, `acc = fma(a, b, acc)` — one rounding, `p` ascending —
//! then the one shared scalar write-back `C += alpha * acc` (multiply
//! and add rounded separately). The tile shape, the cache blocks `MC` /
//! `NC` and the loop order only decide *which* elements share a call;
//! `KC` decides where an element's chain restarts and is part of the
//! numerics. The contract is executable: `gemm`'s tests hold every
//! detected arm and [`crate::PackedA`] to a scalar `mul_add` reference
//! bit for bit.
//!
//! Fused, because that is what the silicon's peak is quoted in: multiply
//! and add issue on the same two vector ports, so rounding them apart
//! caps a core at half its rate (EXPERIMENTS.md A9). All three arms moved
//! to it together, because an arm that still rounded twice would differ
//! from the others in the last bit — and serving replay, checkpoint
//! round-trip checks and the differential harness all pin bit-identical
//! logits across machines. So nothing depends on ISA or thread width, as
//! before; what did change, once, is every bit pattern computed before
//! the switch. The price is paid by an x86-64 CPU without FMA (pre-2013,
//! or a hypervisor masking the flag): the software `fmaf` is correctly
//! rounded, hence bit-identical, and about a hundred times slower (one
//! libm call per lane: ≈ 0.5 GF/s where the compiled-in instruction
//! reaches ≈ 60); the dispatch says so once on stderr.
//!
//! The int8 kernels ([`dot_i8`]) follow the same shape: the AVX2 arm
//! (which `Avx512` reuses — VNNI is not wired up) widens `i8 → i16`
//! (`_mm256_cvtepi8_epi16`) and uses `_mm256_madd_epi16` pairwise
//! multiply-add into i32 lanes. Integer accumulation is exact, so
//! cross-ISA bit-identity is trivial there; overflow cannot occur because
//! `|a·b| ≤ 127² = 16129` fits i16 and the deepest supported reduction
//! (k ≤ 2³¹/2¹⁵) is far beyond any layer in the stack.

/// Register tile of the portable arm, and the column count of the
/// 256-bit one.
const MR: usize = 4;
const NR: usize = 16;
/// Rows of the 256-bit arm's tile: 6 rows × 2 ymm.
#[cfg(target_arch = "x86_64")]
const MR256: usize = 6;
/// Register tile of the 512-bit arm: 8 rows × 2 zmm.
#[cfg(target_arch = "x86_64")]
const MR512: usize = 8;
#[cfg(target_arch = "x86_64")]
const NR512: usize = 32;

/// Raw pointer to `C` shared across tile tasks. Tiles partition `C` into
/// disjoint row/column blocks, so no element is written by two tasks.
#[derive(Clone, Copy)]
pub(crate) struct CPtr(pub(crate) *mut f32);
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

/// An instruction-set architecture the packed GEMM can dispatch to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Isa {
    /// The portable 4×16 register-tile kernel, auto-vectorised by the
    /// compiler; named for the x86-64 baseline, which is all it requires.
    /// Always available.
    Sse2,
    /// Explicit 256-bit `std::arch` kernel; requires the CPU to report
    /// `avx2` *and* `fma` (dispatched as one unit, matching how the
    /// 256-bit generation shipped).
    Avx2,
    /// Explicit 512-bit `std::arch` kernel on an 8×32 tile; requires
    /// `avx512f` on top of everything [`Isa::Avx2`] requires.
    Avx512,
}

/// What the pack routines and the tile loop need to know about one ISA's
/// f32 microkernel: its register-tile shape and its entry point.
#[derive(Clone, Copy)]
pub(crate) struct Kernel {
    /// Rows of the register tile (A panels are packed `mr` wide).
    pub(crate) mr: usize,
    /// Columns of the register tile (B panels are packed `nr` wide).
    pub(crate) nr: usize,
    /// The microkernel itself.
    pub(crate) run: MicrokernelFn,
}

impl Isa {
    /// Short stable name used in benchmark tables and env overrides.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Every ISA the running CPU supports, baseline first, widest last.
    /// Benchmarks and the differential battery iterate this; machines
    /// without a wide arm simply get a shorter list (skip, not fail).
    pub fn detected() -> &'static [Isa] {
        const ALL: [Isa; 3] = [Isa::Sse2, Isa::Avx2, Isa::Avx512];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("fma") {
                return &ALL[..if has!("avx512f") { 3 } else { 2 }];
            }
        }
        &ALL[..1]
    }

    /// The ISA the process-wide dispatch selected: the widest detected
    /// variant, overridable with `SCIDL_GEMM_ISA=sse2|avx2|avx512`. An
    /// override naming an unknown or undetected ISA falls back to the
    /// widest and says so once on stderr. Probed once per process.
    pub fn active() -> Isa {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<Isa> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            let detected = Isa::detected();
            let best = *detected.last().expect("baseline ISA always present");
            let Ok(name) = std::env::var("SCIDL_GEMM_ISA") else {
                return best;
            };
            detected
                .iter()
                .copied()
                .find(|isa| isa.name() == name)
                .unwrap_or_else(|| {
                    eprintln!(
                    "scidl-tensor: SCIDL_GEMM_ISA={name} is not an ISA this CPU reports; using {}",
                    best.name()
                );
                    best
                })
        })
    }

    /// Whether this ISA can run on the current CPU.
    pub fn is_available(self) -> bool {
        Isa::detected().contains(&self)
    }

    /// The f32 kernel descriptor for this ISA. Panics if the ISA is not
    /// available on the running CPU (the dispatch table never hands out
    /// an unavailable variant; only explicit test/bench forcing can).
    pub(crate) fn kernel(self) -> Kernel {
        assert!(
            self.is_available(),
            "ISA {} not available on this CPU",
            self.name()
        );
        match self {
            Isa::Sse2 => Kernel {
                mr: MR,
                nr: NR,
                run: portable_kernel(),
            },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => Kernel {
                mr: MR256,
                nr: NR,
                run: microkernel_avx2,
            },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => Kernel {
                mr: MR512,
                nr: NR512,
                run: microkernel_avx512,
            },
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => unreachable!("only detected on x86-64"),
        }
    }
}

/// Signature shared by every f32 microkernel variant: accumulate
/// `alpha * sum_p ap[p, :] ⊗ bp[p, :]` into the `mr_eff × nr_eff` block
/// of `C` whose top-left corner is `(row0, col0)`. `ap` and `bp` are
/// `kc`-deep panels packed to the variant's own [`Kernel`] tile.
pub(crate) type MicrokernelFn = fn(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
);

/// The portable `MR x NR` register-tile microkernel: an unrolled 4×16
/// accumulator block held in registers, updated with `kc` broadcast
/// fused multiply-adds per lane; fixed-size views let the compiler
/// vectorise the NR lane without bounds checks.
///
/// As a function pointer this is the copy compiled for the build's
/// baseline target: `mul_add` is the native instruction wherever the
/// baseline has one (every non-x86 target; x86-64 built with `+fma`)
/// and a call to the correctly-rounded software `fmaf` otherwise — same
/// bits, far slower, dispatched only on an x86-64 CPU without FMA.
/// `#[inline(always)]` so that [`microkernel_portable_fma`] compiles a
/// second copy under its own target feature: what `mul_add` lowers to is
/// the only difference between the two.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel_portable(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let av: &[f32; MR] = ap[p * MR..(p + 1) * MR].try_into().unwrap();
        let bv: &[f32; NR] = bp[p * NR..(p + 1) * NR].try_into().unwrap();
        for (accr, &ai) in acc.iter_mut().zip(av) {
            for (accv, &bj) in accr.iter_mut().zip(bv) {
                *accv = ai.mul_add(bj, *accv);
            }
        }
    }
    writeback(&acc, alpha, c, ldc, row0, col0, mr_eff, nr_eff);
}

/// [`microkernel_portable`] compiled with the hardware FMA: the `sse2`
/// arm of every x86-64 CPU that reports `fma` (the compiler may widen
/// the lane loop to 256-bit VEX; lane width never changes an element's
/// bits).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn microkernel_portable_fma(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    #[target_feature(enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn with_fma(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        alpha: f32,
        c: CPtr,
        ldc: usize,
        row0: usize,
        col0: usize,
        mr_eff: usize,
        nr_eff: usize,
    ) {
        microkernel_portable(kc, ap, bp, alpha, c, ldc, row0, col0, mr_eff, nr_eff);
    }
    // SAFETY: `portable_kernel` only returns this variant after
    // `is_x86_feature_detected!("fma")` reported support.
    unsafe { with_fma(kc, ap, bp, alpha, c, ldc, row0, col0, mr_eff, nr_eff) }
}

/// The portable arm's instantiation for the running CPU, chosen once per
/// process; says so once on stderr when it is the software one.
fn portable_kernel() -> MicrokernelFn {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static RUN: OnceLock<MicrokernelFn> = OnceLock::new();
        *RUN.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("fma") {
                return microkernel_portable_fma;
            }
            eprintln!(
                "scidl-tensor: this CPU reports no FMA; GEMM uses software fused multiply-add (same results, much slower)"
            );
            microkernel_portable
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    microkernel_portable
}

/// Adds `alpha * acc` into the valid `mr_eff × nr_eff` region of `C`.
/// Shared by all ISA variants so the epilogue arithmetic (and therefore
/// rounding) is identical regardless of dispatch; lanes past the valid
/// region (pack padding) are never read back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn writeback<const R: usize, const N: usize>(
    acc: &[[f32; N]; R],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for (i, accr) in acc.iter().enumerate().take(mr_eff) {
        // SAFETY: tiles partition C into disjoint (row, col) blocks and
        // panels partition tiles, so exactly one microkernel call writes
        // each element; `row0 + i < m` and `col0 + nr_eff <= n` by
        // construction, keeping the slice in bounds.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(c.0.add((row0 + i) * ldc + col0), nr_eff) };
        for (d, &v) in dst.iter_mut().zip(accr.iter()) {
            *d += alpha * v;
        }
    }
}

/// AVX2 front-end with the safe [`MicrokernelFn`] signature; only ever
/// reachable through [`Isa::kernel`], which checks availability.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn microkernel_avx2(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    // SAFETY: `Isa::kernel` only returns this variant after
    // `is_x86_feature_detected!("avx2") && ...("fma")` reported support.
    unsafe { microkernel_avx2_impl(kc, ap, bp, alpha, c, ldc, row0, col0, mr_eff, nr_eff) }
}

/// The 256-bit microkernel: the 6×16 accumulator tile lives in twelve
/// `__m256` registers (6 rows × 2 vectors) of the sixteen, fed by two
/// loads of the packed `b` panel and six broadcasts of `a` per depth
/// step. Twelve independent FMA chains cover the instruction's latency
/// on both ports; the eight of a 4×16 tile measured ≈ 70 GF/s against
/// ≈ 85 in registers, where the ymm ceiling is ≈ 89.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx2_impl(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    assert!(ap.len() >= kc * MR256 && bp.len() >= kc * NR);
    // SAFETY: the assert above bounds every `apf`/`bpf` offset below
    // (`p < kc`, `r < MR256`, lanes `< NR`); the stores write a local
    // tile of exactly `MR256 × NR`.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR256];
        let apf = ap.as_ptr();
        let bpf = bp.as_ptr();
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(bpf.add(p * NR));
            let b1 = _mm256_loadu_ps(bpf.add(p * NR + 8));
            for (r, accr) in acc.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*apf.add(p * MR256 + r));
                accr[0] = _mm256_fmadd_ps(a, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(a, b1, accr[1]);
            }
        }
        // Spill the vector tile to a scalar tile and reuse the shared
        // write-back, so ragged edges and the alpha epilogue round
        // exactly like the portable kernel.
        let mut tile = [[0.0f32; NR]; MR256];
        for (r, accr) in acc.iter().enumerate() {
            _mm256_storeu_ps(tile[r].as_mut_ptr(), accr[0]);
            _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), accr[1]);
        }
        writeback(&tile, alpha, c, ldc, row0, col0, mr_eff, nr_eff);
    }
}

/// AVX-512 front-end with the safe [`MicrokernelFn`] signature; only
/// ever reachable through [`Isa::kernel`], which checks availability.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn microkernel_avx512(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    // SAFETY: `Isa::kernel` only returns this variant after
    // `is_x86_feature_detected!("avx512f")` reported support.
    unsafe { microkernel_avx512_impl(kc, ap, bp, alpha, c, ldc, row0, col0, mr_eff, nr_eff) }
}

/// The 512-bit microkernel: the 8×32 accumulator tile lives in sixteen
/// `__m512` registers (8 rows × 2 vectors), fed by eight broadcasts of
/// `a` and two loads of the packed `b` panel per depth step — 16
/// FMAs per 10 loads, which leaves the two vector ports, not the load
/// ports, as the limit: on cache-resident panels the loop runs at the
/// register-only FMA rate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx512_impl(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    c: CPtr,
    ldc: usize,
    row0: usize,
    col0: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    assert!(ap.len() >= kc * MR512 && bp.len() >= kc * NR512);
    // SAFETY: the assert above bounds every `apf`/`bpf` offset below
    // (`p < kc`, `r < MR512`, lanes `< NR512`); the stores write a local
    // tile of exactly `MR512 × NR512`.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); 2]; MR512];
        let apf = ap.as_ptr();
        let bpf = bp.as_ptr();
        for p in 0..kc {
            let b0 = _mm512_loadu_ps(bpf.add(p * NR512));
            let b1 = _mm512_loadu_ps(bpf.add(p * NR512 + 16));
            for (r, accr) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*apf.add(p * MR512 + r));
                accr[0] = _mm512_fmadd_ps(a, b0, accr[0]);
                accr[1] = _mm512_fmadd_ps(a, b1, accr[1]);
            }
        }
        let mut tile = [[0.0f32; NR512]; MR512];
        for (r, accr) in acc.iter().enumerate() {
            _mm512_storeu_ps(tile[r].as_mut_ptr(), accr[0]);
            _mm512_storeu_ps(tile[r].as_mut_ptr().add(16), accr[1]);
        }
        writeback(&tile, alpha, c, ldc, row0, col0, mr_eff, nr_eff);
    }
}

// ---------------------------------------------------------------------------
// int8 dot kernels (the VNNI-style low-precision path)
// ---------------------------------------------------------------------------

/// `sum_p a[p] as i32 * b[p] as i32` — the exact i32-accumulate dot
/// product at the heart of [`crate::gemm_i8`], dispatched per ISA.
/// Integer arithmetic is exact, so every ISA returns the same i32.
#[inline]
pub(crate) fn dot_i8(isa: Isa, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match isa {
        Isa::Sse2 => dot_i8_scalar(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both are only detected when the CPU reported avx2+fma
        // (`Isa::detected` lists Avx512 only on top of Avx2).
        Isa::Avx2 | Isa::Avx512 => unsafe { dot_i8_avx2(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx2 | Isa::Avx512 => dot_i8_scalar(a, b),
    }
}

#[inline]
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// 16-lane i8 dot step: widen both operands to i16
/// (`_mm256_cvtepi8_epi16`) and pairwise multiply-add into 8 i32 lanes
/// (`_mm256_madd_epi16`); the i16 products are exact (≤ 127²) so the
/// whole reduction is exact i32 arithmetic.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 16;
    unsafe {
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            let av = _mm_loadu_si128(a.as_ptr().add(c * 16) as *const __m128i);
            let bv = _mm_loadu_si128(b.as_ptr().add(c * 16) as *const __m128i);
            let aw = _mm256_cvtepi8_epi16(av);
            let bw = _mm256_cvtepi8_epi16(bv);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(aw, bw));
        }
        // Horizontal i32 sum of the 8 accumulator lanes.
        let hi = _mm256_extracti128_si256(acc, 1);
        let lo = _mm256_castsi256_si128(acc);
        let s = _mm_add_epi32(hi, lo);
        let s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
        let s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
        let mut sum = _mm_cvtsi128_si32(s);
        for p in chunks * 16..n {
            sum += *a.get_unchecked(p) as i32 * *b.get_unchecked(p) as i32;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_always_detected() {
        let d = Isa::detected();
        assert_eq!(d.first(), Some(&Isa::Sse2));
        assert!(Isa::Sse2.is_available());
        assert!(d.contains(&Isa::active()));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_tile_rounds_the_same_with_hardware_and_software_fma() {
        // The portable arm dispatches one of two compilations of one
        // body; a host with FMA never runs the other through `gemm`, so
        // call both directly. Full and ragged tiles, a one-deep and a
        // full-depth panel, C accumulated into (not overwritten).
        if !std::arch::is_x86_feature_detected!("fma") {
            return;
        }
        let mut s = 0x9E37_79B9u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 500.0
        };
        for kc in [1usize, 7, 256] {
            let ap: Vec<f32> = (0..kc * MR).map(|_| next()).collect();
            let bp: Vec<f32> = (0..kc * NR).map(|_| next()).collect();
            let init: Vec<f32> = (0..MR * NR).map(|_| next()).collect();
            for (mr_eff, nr_eff) in [(MR, NR), (1, NR), (MR, 1), (3, 9)] {
                let (mut soft, mut hard) = (init.clone(), init.clone());
                microkernel_portable(
                    kc,
                    &ap,
                    &bp,
                    -1.5,
                    CPtr(soft.as_mut_ptr()),
                    NR,
                    0,
                    0,
                    mr_eff,
                    nr_eff,
                );
                microkernel_portable_fma(
                    kc,
                    &ap,
                    &bp,
                    -1.5,
                    CPtr(hard.as_mut_ptr()),
                    NR,
                    0,
                    0,
                    mr_eff,
                    nr_eff,
                );
                for (idx, (x, y)) in soft.iter().zip(&hard).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "kc={kc} {mr_eff}x{nr_eff} c[{idx}]: {x} vs {y}"
                    );
                }
                assert!(soft != init, "kc={kc} {mr_eff}x{nr_eff}: nothing written");
            }
        }
    }

    #[test]
    fn dot_i8_matches_reference_for_every_isa() {
        let mut s = 0x1234_5678u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 255) as i64 as i8
        };
        for len in [0usize, 1, 7, 15, 16, 17, 31, 33, 100, 1152] {
            let a: Vec<i8> = (0..len).map(|_| next()).collect();
            let b: Vec<i8> = (0..len).map(|_| next()).collect();
            let want: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            for &isa in Isa::detected() {
                assert_eq!(dot_i8(isa, &a, &b), want, "isa {} len {len}", isa.name());
            }
        }
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow_lanes() {
        // Worst case per lane pair: (-127)·(-127)·2 = 32258 fits i32 out
        // of madd; a long all-extreme reduction stays exact.
        let a = vec![-127i8; 4096];
        let b = vec![-127i8; 4096];
        let want = 4096 * 127 * 127;
        for &isa in Isa::detected() {
            assert_eq!(dot_i8(isa, &a, &b), want, "isa {}", isa.name());
        }
    }
}
