//! Radix-2^k stage compiler: the transform hot path.
//!
//! The conventional radix-2 transform ([`crate::Radix2Plan`]) makes one
//! full pass over the operand per butterfly layer — 16 passes at 64K
//! points. This module compiles the same butterfly network into
//! **groups** of up to [`MAX_DEG`] layers: a [`radix_stage`] kernel loads
//! `1 << deg` points into a register working set, applies all `deg`
//! layers there, and writes each point back exactly once. A 64K transform
//! becomes one bit-reversal pass plus three data passes (`deg` schedule
//! `[6, 5, 5]`) instead of 16. On a CPU both transforms are
//! **arithmetic-bound**, not memory-traffic-bound: measured at 64K the
//! 17-pass radix-2 plan and this 4-pass plan tie (3,091 vs 3,109 µs,
//! ≈ 5.9 ns per butterfly). What a transform does besides butterflies —
//! the permutation, the inverse's `1/n` — is therefore kept off the
//! operand: see [`bit_reverse_permute`] and
//! [`Radix2kPlan::inverse_in_place`].
//!
//! The shape follows the GPU `radix_fft` kernels the serving fleet's
//! design notes reference: a single kernel parameterized by `deg`, with
//! per-plan twiddle tables precomputed once at construction. Two twiddle
//! families are involved:
//!
//! * **stage tables** — the inter-group twiddles `ω_B^{l·σ(mid)}`
//!   (`B = M·2^deg` the group span, `σ` the `deg`-bit reversal), laid out
//!   `table[mid·M + l]` so the kernel streams them in the same contiguous
//!   runs as the data rows;
//! * **micro twiddles** — the intra-group layer constants
//!   `ω_{2^{s+1}}^{j}`, which are **always** powers of two (any root of
//!   order dividing `ord(2) = 192` lies in the subgroup generated by 2),
//!   so the whole in-register network runs on the shift-only multiplier
//!   [`Fp::mul_by_pow2`] — the same observation behind the paper's
//!   shift-only FFT-64 unit ([`crate::kernels`]).
//!
//! [`Radix2kPlan`] owns both families (computed once, shared by every
//! transform — never per scratch), picks a balanced `deg` schedule for
//! the plan size, and exposes the same in-place, allocation-free API as
//! [`crate::Radix2Plan`], the oracle it is checked against bit for bit.

use he_field::{roots, Fp};

use crate::error::NttError;
use crate::kernels::Direction;
use crate::par;

/// Largest group size compiled into one [`radix_stage`] call: radix-2^6,
/// a 64-point register working set (512 bytes of `Fp`).
pub const MAX_DEG: u32 = 6;

/// One butterfly layer's intra-group twiddles `ω_{2^{s+1}}^j`, `j < 2^s`,
/// stored as shift amounts for [`Fp::mul_by_pow2`].
///
/// The shift representation is always possible, for **any** plan root:
/// the layer root has order `2^{s+1} ≤ 2^MAX_DEG = 64`, every order
/// dividing `ord(2) = 192` names the unique subgroup of `⟨2⟩` of that
/// size, and so every such root is a power of two. The in-register
/// network therefore runs entirely on the shift-only multiplier — the
/// software twin of the paper's shift-only FFT-64 unit (Eq. 3).
#[derive(Debug, Clone)]
struct MicroLayer {
    /// `twiddle(j) = 2^{shifts[j]}`.
    shifts: Vec<u32>,
}

impl MicroLayer {
    /// Builds layer `s` (in-group layer index) for root `base = ω_{2^{s+1}}`.
    fn build(base: Fp, s: u32) -> MicroLayer {
        let e = base
            .log2_of_pow2()
            .expect("roots of order dividing 192 are powers of two");
        MicroLayer {
            shifts: (0..1u64 << s)
                .map(|j| ((u64::from(e) * j) % 192) as u32)
                .collect(),
        }
    }

    fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.shifts.as_slice())
    }
}

/// One compiled pass: `deg` butterfly layers starting at cumulative
/// sub-transform size `M = 2^{log_m}`.
#[derive(Debug, Clone)]
struct Pass {
    log_m: u32,
    deg: u32,
    /// Forward stage table `ω_B^{l·σ(mid)}` at `[l << deg | mid]`;
    /// empty for the first pass (`M = 1`, all twiddles are 1).
    fwd: Vec<Fp>,
    /// Inverse counterpart (`ω^{-1}` powers); the last pass's carries
    /// the transform's `1/n` in every entry.
    inv: Vec<Fp>,
}

/// Balanced `deg` schedule for a `2^log_n`-point transform: as few passes
/// as [`MAX_DEG`] allows, with the layer count spread evenly (larger
/// groups first, so the table-free first pass does the most work).
fn schedule_degs(log_n: u32) -> Vec<u32> {
    let passes = log_n.div_ceil(MAX_DEG).max(1);
    let base = log_n / passes;
    let extra = log_n % passes;
    (0..passes).map(|i| base + u32::from(i < extra)).collect()
}

// The stage kernels below run once per data pass of every warm product —
// they must stay heap-free (scratch and twiddle tables are owned by the
// plan, built at construction).
// lint: no-alloc
/// `deg`-bit bit-reversal of `mid`.
#[inline]
fn sigma(mid: usize, deg: u32) -> usize {
    ((mid as u32).reverse_bits() >> (32 - deg)) as usize
}

/// Index bits on each side of the tiled bit reversal: 32 × 32 tiles of
/// `Fp`, 8 KiB per stack buffer.
const REV_BITS: u32 = 5;
const REV_TILE: usize = 1 << REV_BITS;

/// One tile of the blocked bit reversal, indexed `[row][column]`.
type RevTile = [[Fp; REV_TILE]; REV_TILE];

/// In-place bit-reversal permutation of a power-of-two-length buffer —
/// the reordering pass every decimation-in-time schedule starts with.
///
/// From `2^10` points up the index is split `hi | mid | lo` with 5-bit
/// `hi` and `lo`; its reversal is `rev(lo) | rev(mid) | rev(hi)`, so the
/// 32 × 32 tile at `mid` (rows `hi`, columns `lo`) lands — transposed,
/// rows and columns reversed — on the tile at `rev(mid)`. Pairs of tiles
/// trade places through two stack buffers and every access to `data` is a
/// contiguous 32-element run; below `2^10` the buffer is L1-resident and
/// the plain swap loop serves.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two `≥ 2`.
pub fn bit_reverse_permute(data: &mut [Fp]) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "bit reversal needs a power-of-two length >= 2"
    );
    let log_n = n.trailing_zeros();
    if log_n < 2 * REV_BITS {
        let shift = usize::BITS - log_n;
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if i < j {
                data.swap(i, j);
            }
        }
        return;
    }
    let stride = n >> REV_BITS;
    let mut a = [[Fp::ZERO; REV_TILE]; REV_TILE];
    let mut b = [[Fp::ZERO; REV_TILE]; REV_TILE];
    for at in (0..stride).step_by(REV_TILE) {
        // `at = 0 | mid | 0` reverses, as a `log n`-bit index, to
        // `0 | rev(mid) | 0` (no zero-width shift, even with no `mid`).
        let rat = at.reverse_bits() >> (usize::BITS - log_n);
        if at > rat {
            continue;
        }
        load_tile(data, at, stride, &mut a);
        if at != rat {
            load_tile(data, rat, stride, &mut b);
            store_reversed(data, at, stride, &b);
        }
        store_reversed(data, rat, stride, &a);
    }
}

/// Copies the tile whose rows start at `at + hi·stride` into `tile`.
#[inline]
fn load_tile(data: &[Fp], at: usize, stride: usize, tile: &mut RevTile) {
    for (row, dst) in data[at..].chunks(stride).zip(tile) {
        dst.copy_from_slice(&row[..REV_TILE]);
    }
}

/// Stores `tile` over the tile at `at`, transposed with both indices
/// bit-reversed: the gather runs inside the L1-resident buffer, the
/// stores are whole rows.
#[inline]
fn store_reversed(data: &mut [Fp], at: usize, stride: usize, tile: &RevTile) {
    let rev: [usize; REV_TILE] = std::array::from_fn(|i| sigma(i, REV_BITS));
    for (row, col) in data[at..].chunks_mut(stride).zip(rev) {
        for (dst, src) in row[..REV_TILE].iter_mut().zip(rev) {
            *dst = tile[src][col];
        }
    }
}

/// Columns processed together by the tiled kernel: each group is pushed
/// through the butterfly network 16 orbits at a time, so every load,
/// twiddle row and store is a contiguous 16-element run and the lane loop
/// is a fixed-size unrollable inner loop.
const LANES: usize = 16;

/// The in-register butterfly network over one orbit: `deg` radix-2
/// layers on a `2^deg`-point working set, twiddled by the micro layers.
#[inline]
fn micro_network(buf: &mut [Fp], deg: u32, micro: &[MicroLayer]) {
    for (s, layer) in micro.iter().enumerate().take(deg as usize) {
        let half = 1usize << s;
        for group in buf.chunks_exact_mut(half << 1) {
            let (top, bot) = group.split_at_mut(half);
            for ((a, b), &sh) in top.iter_mut().zip(bot).zip(&layer.shifts) {
                // sh == 0 is the ω^0 butterfly — every pair of layer 0 and
                // the leading pair of every later group; skip the multiply.
                let t = if sh == 0 { *b } else { b.mul_by_pow2(sh) };
                let u = *a;
                *a = u + t;
                *b = u - t;
            }
        }
    }
}

/// The lane-tiled butterfly network: like [`micro_network`] but over
/// [`LANES`] orbits at once, one fixed-size row per working-set point.
#[inline]
fn micro_network_tiled(tile: &mut [[Fp; LANES]], deg: u32, micro: &[MicroLayer]) {
    for (s, layer) in micro.iter().enumerate().take(deg as usize) {
        let half = 1usize << s;
        for group in tile.chunks_exact_mut(half << 1) {
            let (top, bot) = group.split_at_mut(half);
            for ((a, b), &sh) in top.iter_mut().zip(bot).zip(&layer.shifts) {
                if sh == 0 {
                    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                        let t = *y;
                        let u = *x;
                        *x = u + t;
                        *y = u - t;
                    }
                } else {
                    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                        let t = y.mul_by_pow2(sh);
                        let u = *x;
                        *x = u + t;
                        *y = u - t;
                    }
                }
            }
        }
    }
}

/// Runs one compiled pass over `data`: every group of `M·2^deg` points
/// splits into `M` independent orbits (offset `l`, members at stride
/// `M`), and each orbit is loaded once, pre-twiddled from the stage
/// table, pushed through the in-register network, and stored once.
///
/// Groups are laid out as `2^deg` contiguous rows of `M` points, so for
/// `M ≥ LANES` the orbits are processed [`LANES`] columns at a time with
/// every memory access a contiguous run (the cache-blocked interleave);
/// smaller `M` — in practice only the first pass, `M = 1`, whose orbit
/// is itself contiguous — takes the scalar path.
fn stage_pass(data: &mut [Fp], log_m: u32, deg: u32, table: Option<&[Fp]>, micro: &[MicroLayer]) {
    let m = 1usize << log_m;
    let r = 1usize << deg;
    let block = m * r;
    if m == 1 && data.len() >= block * LANES {
        // First pass: orbits are the (contiguous, twiddle-free) blocks
        // themselves. Tile LANES *blocks* through the working set via a
        // transposed load so each butterfly's shift dispatch is amortized
        // over LANES lanes, like the later passes.
        par::for_each_chunk(data, block * LANES, |_h, chunk| {
            stage_block0_tiled(chunk, r, deg, micro);
        });
        return;
    }
    par::for_each_chunk(data, block, |_h, chunk| {
        if m == 1 {
            // Tiny transform (fewer than LANES blocks): run the network
            // directly where the data lives.
            micro_network(chunk, deg, micro);
        } else if m >= LANES {
            stage_block_tiled(chunk, m, r, deg, table, micro);
        } else {
            stage_block_scalar(chunk, m, r, deg, table, micro);
        }
    });
}

/// The first pass over [`LANES`] blocks at once: block `lane`'s 2^`deg`
/// contiguous points become tile column `lane` (a transposed load through
/// the L1-resident tile), the lane-tiled network runs, and the columns
/// are stored back contiguously.
fn stage_block0_tiled(chunk: &mut [Fp], r: usize, deg: u32, micro: &[MicroLayer]) {
    let mut tile = [[Fp::ZERO; LANES]; 1 << MAX_DEG as usize];
    let tile = &mut tile[..r];
    for (lane, block) in chunk.chunks_exact(r).enumerate() {
        for (row, &v) in tile.iter_mut().zip(block) {
            row[lane] = v;
        }
    }
    micro_network_tiled(tile, deg, micro);
    for (lane, block) in chunk.chunks_exact_mut(r).enumerate() {
        for (row, dst) in tile.iter().zip(block) {
            *dst = row[lane];
        }
    }
}

/// One group of a compiled pass, orbit by orbit (`M < LANES`).
fn stage_block_scalar(
    chunk: &mut [Fp],
    m: usize,
    r: usize,
    deg: u32,
    table: Option<&[Fp]>,
    micro: &[MicroLayer],
) {
    let mut buf = [Fp::ZERO; 1 << MAX_DEG as usize];
    for l in 0..m {
        let buf = &mut buf[..r];
        match table {
            Some(t) => {
                for ((slot, row), trow) in buf
                    .iter_mut()
                    .zip(chunk.chunks_exact(m))
                    .zip(t.chunks_exact(m))
                {
                    *slot = row[l] * trow[l];
                }
            }
            None => {
                for (slot, row) in buf.iter_mut().zip(chunk.chunks_exact(m)) {
                    *slot = row[l];
                }
            }
        }
        micro_network(buf, deg, micro);
        for (&v, row) in buf.iter().zip(chunk.chunks_exact_mut(m)) {
            row[l] = v;
        }
    }
}

/// One group of a compiled pass, [`LANES`] orbits at a time (`M ≥ LANES`,
/// so the lane strips tile the rows exactly).
fn stage_block_tiled(
    chunk: &mut [Fp],
    m: usize,
    r: usize,
    deg: u32,
    table: Option<&[Fp]>,
    micro: &[MicroLayer],
) {
    let mut tile = [[Fp::ZERO; LANES]; 1 << MAX_DEG as usize];
    for strip in 0..m / LANES {
        let l0 = strip * LANES;
        let tile = &mut tile[..r];
        // Load LANES columns, pre-twiddling from the stage table's
        // matching contiguous run.
        match table {
            Some(t) => {
                for ((lanes, row), trow) in tile
                    .iter_mut()
                    .zip(chunk.chunks_exact(m))
                    .zip(t.chunks_exact(m))
                {
                    for ((x, &v), &w) in lanes.iter_mut().zip(&row[l0..]).zip(&trow[l0..]) {
                        *x = v * w;
                    }
                }
            }
            None => {
                for (lanes, row) in tile.iter_mut().zip(chunk.chunks_exact(m)) {
                    lanes.copy_from_slice(&row[l0..l0 + LANES]);
                }
            }
        }
        micro_network_tiled(tile, deg, micro);
        for (lanes, row) in tile.iter().zip(chunk.chunks_exact_mut(m)) {
            row[l0..l0 + LANES].copy_from_slice(lanes);
        }
    }
}
// lint: end no-alloc

/// Applies one radix-2^`deg` stage group to bit-reversed-order `data`:
/// the `deg` butterfly layers `log_m .. log_m + deg` of the standard
/// decimation-in-time schedule, computed with one load and one store per
/// point — the public reference form of the kernel [`Radix2kPlan`]
/// compiles its passes into (the plan precomputes the tables this
/// function derives from `omega` on each call).
///
/// `omega` must be a primitive `data.len()`-th root of unity; chaining
/// calls whose `deg`s sum to `log₂ n` over a bit-reversed buffer computes
/// the full forward NTT:
///
/// ```
/// use he_field::{roots, Fp};
/// use he_ntt::radix2k::{bit_reverse_permute, radix_stage};
/// use he_ntt::Radix2Plan;
///
/// let n = 32;
/// let omega = roots::root_of_unity(n as u64).unwrap();
/// let data: Vec<Fp> = (0..n as u64).map(|i| Fp::new(i * 31 + 7)).collect();
/// let expected = Radix2Plan::new(n)?.forward(&data);
///
/// let mut x = data.clone();
/// bit_reverse_permute(&mut x);
/// radix_stage(&mut x, omega, 0, 3)?; // layers 0..3 — one data pass
/// radix_stage(&mut x, omega, 3, 2)?; // layers 3..5 — one data pass
/// assert_eq!(x, expected);
/// # Ok::<(), he_ntt::NttError>(())
/// ```
///
/// # Errors
///
/// Returns [`NttError::UnsupportedSize`] if `data.len()` is not a power
/// of two `≥ 2`, `deg` is 0 or exceeds [`MAX_DEG`], the layer range
/// `log_m + deg` overruns `log₂ n`, or `omega` is not a primitive root.
pub fn radix_stage(data: &mut [Fp], omega: Fp, log_m: u32, deg: u32) -> Result<(), NttError> {
    let n = data.len();
    if !n.is_power_of_two() || n < 2 {
        return Err(NttError::UnsupportedSize {
            n,
            reason: "radix stages require a power-of-two length >= 2",
        });
    }
    let log_n = n.trailing_zeros();
    if deg == 0 || deg > MAX_DEG || log_m + deg > log_n {
        return Err(NttError::UnsupportedSize {
            n,
            reason: "stage layers must fit 0 < deg <= MAX_DEG and log_m + deg <= log2 n",
        });
    }
    if !roots::is_primitive_root(omega, n as u64) {
        return Err(NttError::UnsupportedSize {
            n,
            reason: "omega is not a primitive n-th root of unity",
        });
    }
    let micro: Vec<MicroLayer> = (0..deg)
        .map(|s| MicroLayer::build(omega.pow((n >> (s + 1)) as u64), s))
        .collect();
    let table = build_stage_table(omega, n, log_m, deg);
    stage_pass(data, log_m, deg, table.as_deref(), &micro);
    Ok(())
}

/// Stage table for the pass at `(log_m, deg)`, laid out mid-major so the
/// kernel reads it in the same contiguous runs as the data:
/// `table[mid·M + l] = ω_B^{l·σ(mid)}` with `B = 2^{log_m + deg}`.
/// `None` for the first pass, whose twiddles are all 1.
fn build_stage_table(omega: Fp, n: usize, log_m: u32, deg: u32) -> Option<Vec<Fp>> {
    if log_m == 0 {
        return None;
    }
    let m = 1usize << log_m;
    let r = 1usize << deg;
    let omega_b = omega.pow((n >> (log_m + deg)) as u64);
    let mut table = Vec::with_capacity(m * r);
    for mid in 0..r {
        let base = omega_b.pow(sigma(mid, deg) as u64);
        table.extend(roots::power_table(base, m));
    }
    Some(table)
}

/// A planned radix-2^k NTT of power-of-two length — the one production
/// transform: `he-ssa` plans it for every length, and [`crate::Ntt64k`]
/// is it at the paper's length.
///
/// Input and output are in natural order. The transform is fully
/// in-place (one internal bit-reversal pass plus one data pass per
/// compiled stage group) and needs no scratch buffer; the twiddle tables
/// are computed once here and shared by every call.
///
/// ```
/// use he_field::Fp;
/// use he_ntt::Radix2kPlan;
///
/// let plan = Radix2kPlan::new(1024)?;
/// assert_eq!(plan.pass_degs(), [5, 5]); // 10 layers in 2 data passes
/// let data: Vec<Fp> = (0..1024).map(Fp::new).collect();
/// let freq = plan.forward(&data);
/// assert_eq!(plan.inverse(&freq), data);
/// # Ok::<(), he_ntt::NttError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Radix2kPlan {
    n: usize,
    log_n: u32,
    omega: Fp,
    passes: Vec<Pass>,
    micro_fwd: Vec<MicroLayer>,
    micro_inv: Vec<MicroLayer>,
}

impl Radix2kPlan {
    /// Plans an `n`-point transform using the canonical root
    /// [`roots::root_of_unity`]`(n)`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::UnsupportedSize`] if `n` is not a power of two
    /// between 2 and `2^32`.
    pub fn new(n: usize) -> Result<Radix2kPlan, NttError> {
        let omega = roots::root_of_unity(n as u64).ok_or(NttError::UnsupportedSize {
            n,
            reason: "length must divide p-1",
        })?;
        Radix2kPlan::with_omega(n, omega)
    }

    /// Plans an `n`-point transform with an explicit primitive `n`-th
    /// root (used by the ψ-twisted plan, whose cyclic core runs on the
    /// non-canonical root `ψ²`).
    ///
    /// # Errors
    ///
    /// Returns [`NttError::UnsupportedSize`] if `n` is not a power of two
    /// `≥ 2` or `omega` is not a primitive `n`-th root of unity.
    pub fn with_omega(n: usize, omega: Fp) -> Result<Radix2kPlan, NttError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(NttError::UnsupportedSize {
                n,
                reason: "radix-2^k plans require a power-of-two length >= 2",
            });
        }
        if !roots::is_primitive_root(omega, n as u64) {
            return Err(NttError::UnsupportedSize {
                n,
                reason: "omega is not a primitive n-th root of unity",
            });
        }
        let log_n = n.trailing_zeros();
        let omega_inv = omega.inverse().expect("root of unity is nonzero");
        let max_deg = *schedule_degs(log_n).iter().max().expect("nonempty");
        let micro_fwd: Vec<MicroLayer> = (0..max_deg)
            .map(|s| MicroLayer::build(omega.pow((n >> (s + 1)) as u64), s))
            .collect();
        let micro_inv: Vec<MicroLayer> = (0..max_deg)
            .map(|s| MicroLayer::build(omega_inv.pow((n >> (s + 1)) as u64), s))
            .collect();
        let mut passes = Vec::new();
        let mut log_m = 0;
        for deg in schedule_degs(log_n) {
            let fwd = build_stage_table(omega, n, log_m, deg).unwrap_or_default();
            let inv = build_stage_table(omega_inv, n, log_m, deg).unwrap_or_default();
            passes.push(Pass {
                log_m,
                deg,
                fwd,
                inv,
            });
            log_m += deg;
        }
        // Every point of a tabled pass is multiplied by a table entry on
        // load (the ω⁰ row included) and the network after it is linear,
        // so 1/n rides in the last inverse table for free. Single-pass
        // plans have no table and scale in `inverse_in_place`.
        let n_inv = Fp::ONE.mul_by_pow2(192 - log_n);
        for w in &mut passes.last_mut().expect("nonempty").inv {
            *w *= n_inv;
        }
        Ok(Radix2kPlan {
            n,
            log_n,
            omega,
            passes,
            micro_fwd,
            micro_inv,
        })
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is empty (never: lengths are ≥ 2; provided for
    /// the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The primitive root the plan was built with.
    pub fn omega(&self) -> Fp {
        self.omega
    }

    /// The compiled `deg` schedule, first pass first: each entry is one
    /// data pass applying that many butterfly layers (entries sum to
    /// `log₂ n`).
    pub fn pass_degs(&self) -> Vec<u32> {
        self.passes.iter().map(|p| p.deg).collect()
    }

    /// Total passes over the operand per transform: the bit-reversal
    /// permutation plus one per compiled stage group (versus
    /// `1 + log₂ n` for the radix-2 baseline).
    pub fn memory_passes(&self) -> usize {
        1 + self.passes.len()
    }

    /// Bytes held by the precomputed twiddle tables (stage tables plus
    /// micro layers, forward and inverse). Computed once at construction
    /// and shared by every transform — never duplicated per scratch.
    pub fn table_bytes(&self) -> usize {
        let stage: usize = self
            .passes
            .iter()
            .map(|p| {
                std::mem::size_of_val(p.fwd.as_slice()) + std::mem::size_of_val(p.inv.as_slice())
            })
            .sum();
        let micro: usize = self
            .micro_fwd
            .iter()
            .chain(&self.micro_inv)
            .map(MicroLayer::table_bytes)
            .sum();
        stage + micro
    }

    /// Forward transform (natural order in and out).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn forward(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.forward_in_place(&mut data)
            .expect("length checked by caller");
        data
    }

    /// Inverse transform including the `1/n` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn inverse(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.inverse_in_place(&mut data)
            .expect("length checked by caller");
        data
    }

    /// In-place forward transform (no scratch needed).
    ///
    /// # Errors
    ///
    /// Returns [`NttError::LengthMismatch`] on a length mismatch.
    pub fn forward_in_place(&self, data: &mut [Fp]) -> Result<(), NttError> {
        self.check_len(data.len())?;
        bit_reverse_permute(data);
        for pass in &self.passes {
            let table = (!pass.fwd.is_empty()).then_some(pass.fwd.as_slice());
            stage_pass(data, pass.log_m, pass.deg, table, &self.micro_fwd);
        }
        Ok(())
    }

    /// In-place inverse transform including the `1/n` scaling, which
    /// costs nothing: the last pass's stage table holds `ω⁻ᵏ/n`, so an
    /// inverse is a forward on other tables. Only the table-free
    /// single-pass plans (`n ≤ 64`) scale in a loop of their own, by the
    /// shift `1/2^k = 2^{192−k}`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::LengthMismatch`] on a length mismatch.
    pub fn inverse_in_place(&self, data: &mut [Fp]) -> Result<(), NttError> {
        self.check_len(data.len())?;
        bit_reverse_permute(data);
        for pass in &self.passes {
            let table = (!pass.inv.is_empty()).then_some(pass.inv.as_slice());
            stage_pass(data, pass.log_m, pass.deg, table, &self.micro_inv);
        }
        if self.passes.len() == 1 {
            for x in data.iter_mut() {
                *x = x.mul_by_pow2(192 - self.log_n);
            }
        }
        Ok(())
    }

    /// Direction-dispatching in-place transform, for callers holding a
    /// [`Direction`] value.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::LengthMismatch`] on a length mismatch.
    pub fn transform_in_place(&self, data: &mut [Fp], dir: Direction) -> Result<(), NttError> {
        match dir {
            Direction::Forward => self.forward_in_place(data),
            Direction::Inverse => self.inverse_in_place(data),
        }
    }

    fn check_len(&self, len: usize) -> Result<(), NttError> {
        if len == self.n {
            Ok(())
        } else {
            Err(NttError::LengthMismatch {
                expected: self.n,
                actual: len,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::radix2::Radix2Plan;

    fn ramp(n: usize) -> Vec<Fp> {
        (0..n as u64)
            .map(|i| Fp::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i)))
            .collect()
    }

    #[test]
    fn schedule_is_balanced_and_complete() {
        assert_eq!(schedule_degs(1), [1]);
        assert_eq!(schedule_degs(6), [6]);
        assert_eq!(schedule_degs(7), [4, 3]);
        assert_eq!(schedule_degs(10), [5, 5]);
        assert_eq!(schedule_degs(11), [6, 5]);
        assert_eq!(schedule_degs(16), [6, 5, 5]);
        for log_n in 1..=26 {
            let degs = schedule_degs(log_n);
            assert_eq!(degs.iter().sum::<u32>(), log_n, "log_n = {log_n}");
            assert!(degs.iter().all(|&d| (1..=MAX_DEG).contains(&d)));
        }
    }

    #[test]
    fn rejects_bad_sizes() {
        for n in [0usize, 1, 3, 48] {
            assert!(matches!(
                Radix2kPlan::new(n),
                Err(NttError::UnsupportedSize { .. })
            ));
        }
        // 4 has order 96, not 8: not a primitive 8th root.
        assert!(Radix2kPlan::with_omega(8, Fp::new(4)).is_err());
    }

    #[test]
    fn length_mismatch_error() {
        let plan = Radix2kPlan::new(8).unwrap();
        let mut data = vec![Fp::ZERO; 4];
        assert_eq!(
            plan.forward_in_place(&mut data).unwrap_err(),
            NttError::LengthMismatch {
                expected: 8,
                actual: 4
            }
        );
    }

    #[test]
    fn matches_radix2_baseline_bit_for_bit() {
        // Includes sizes whose layer counts need mixed deg schedules
        // (128 → [4, 3], 2048 → [6, 5]), the table-free single-pass sizes
        // (n ≤ 64) whose inverse scales in a loop of its own, and the
        // paper's size, whose last inverse table carries the 1/n.
        for log_n in (1..=13).chain([16]) {
            let n = 1usize << log_n;
            let baseline = Radix2Plan::new(n).unwrap();
            let plan = Radix2kPlan::new(n).unwrap();
            let input = ramp(n);
            assert_eq!(plan.forward(&input), baseline.forward(&input), "n = {n}");
            assert_eq!(plan.inverse(&input), baseline.inverse(&input), "n = {n}");
        }
    }

    #[test]
    fn inverse_matches_the_definition_bit_for_bit() {
        // The O(n²) definition, so 2^16 (4·10⁹ products) is left to the
        // radix-2 oracle above.
        for log_n in 1..=13 {
            let n = 1usize << log_n;
            let plan = Radix2kPlan::new(n).unwrap();
            let input = ramp(n);
            assert_eq!(
                plan.inverse(&input),
                naive::idft(&input, plan.omega()),
                "n = {n}"
            );
        }
    }

    #[test]
    fn last_inverse_table_holds_the_scaled_twiddles() {
        // Tabled plans carry 1/n in the last inverse stage table and
        // nowhere else (ω^k · ω^-k/n = 1/n, entry by entry).
        let plan = Radix2kPlan::new(65_536).unwrap();
        let n_inv = Fp::new(65_536).inverse().unwrap();
        let [_, mid, last] = plan.passes.as_slice() else {
            panic!("64K compiles to three passes");
        };
        for (pass, scale) in [(mid, Fp::ONE), (last, n_inv)] {
            for (&f, &i) in pass.fwd.iter().zip(&pass.inv) {
                assert_eq!(f * i, scale);
            }
        }
    }

    #[test]
    fn bit_reversal_equals_the_swap_loop_at_every_size() {
        // The oracle is `Radix2Plan`'s own swap loop, coded independently.
        // 2^1 … 2^9 take the swap-loop fallback, 2^10 (one tile, no `mid`
        // bits) … 2^20 the tiled path; under overflow checks this also
        // proves the hi | mid | lo index arithmetic never wraps.
        for log_n in 1..=20 {
            let mut tiled = ramp(1 << log_n);
            let mut oracle = tiled.clone();
            bit_reverse_permute(&mut tiled);
            crate::radix2::bit_reverse_permute(&mut oracle);
            assert!(tiled == oracle, "log_n = {log_n}");
        }
    }

    #[test]
    fn roundtrip() {
        for log_n in (1..=13).chain([16]) {
            let n = 1usize << log_n;
            let plan = Radix2kPlan::new(n).unwrap();
            let input = ramp(n);
            assert_eq!(plan.inverse(&plan.forward(&input)), input, "n = {n}");
        }
    }

    #[test]
    fn non_canonical_root_matches_naive_dft() {
        // ω³ (odd power) is primitive but not the canonical root; the
        // micro layers are still shift-only (their roots have order ≤ 64,
        // which divides ord(2) = 192) and results match the naive DFT on
        // exactly that root.
        let n = 64usize;
        let omega = roots::root_of_unity(n as u64).unwrap().pow(3);
        let plan = Radix2kPlan::with_omega(n, omega).unwrap();
        let input = ramp(n);
        assert_eq!(plan.forward(&input), naive::dft(&input, omega));
        assert_eq!(plan.inverse(&input), naive::idft(&input, omega));
        assert_eq!(plan.inverse(&plan.forward(&input)), input);
    }

    #[test]
    fn micro_layer_shifts_name_the_layer_root_powers() {
        // shifts[j] must satisfy 2^{shifts[j]} = ω_{2^{s+1}}^j for the
        // plan's own root chain.
        let plan = Radix2kPlan::new(65_536).unwrap();
        for (s, layer) in plan.micro_fwd.iter().enumerate() {
            let base = plan.omega().pow((plan.len() >> (s + 1)) as u64);
            for (j, &sh) in layer.shifts.iter().enumerate() {
                assert_eq!(Fp::ONE.mul_by_pow2(sh), base.pow(j as u64), "s={s} j={j}");
            }
        }
    }

    #[test]
    fn paper_size_schedule_and_passes() {
        let plan = Radix2kPlan::new(65_536).unwrap();
        assert_eq!(plan.pass_degs(), [6, 5, 5]);
        assert_eq!(plan.memory_passes(), 4); // bit-reversal + 3 stage groups
    }

    #[test]
    fn table_bytes_counts_both_directions() {
        let plan = Radix2kPlan::new(65_536).unwrap();
        // Stage tables: pass 0 none, pass 1 (M=64, deg=5) 2048 entries,
        // pass 2 (M=2048, deg=5) 65536 entries — per direction.
        let stage_entries = 2 * (2048 + 65_536);
        assert!(plan.table_bytes() >= stage_entries * std::mem::size_of::<Fp>());
        assert!(plan.table_bytes() < 2 * 1024 * 1024, "under the 2 MiB cap");
    }

    #[test]
    fn radix_stage_chain_reproduces_the_full_transform() {
        let n = 128usize;
        let omega = roots::root_of_unity(n as u64).unwrap();
        let baseline = Radix2Plan::new(n).unwrap();
        let input = ramp(n);
        let mut x = input.clone();
        bit_reverse_permute(&mut x);
        radix_stage(&mut x, omega, 0, 3).unwrap();
        radix_stage(&mut x, omega, 3, 4).unwrap();
        assert_eq!(x, baseline.forward(&input));
    }

    #[test]
    fn radix_stage_rejects_bad_arguments() {
        let omega = roots::root_of_unity(64).unwrap();
        let mut data = vec![Fp::ZERO; 64];
        assert!(radix_stage(&mut data, omega, 0, 0).is_err());
        assert!(radix_stage(&mut data, omega, 0, MAX_DEG + 1).is_err());
        assert!(radix_stage(&mut data, omega, 4, 3).is_err()); // 4 + 3 > 6
        assert!(radix_stage(&mut data, Fp::new(4), 0, 2).is_err());
        let mut odd = vec![Fp::ZERO; 12];
        assert!(radix_stage(&mut odd, omega, 0, 2).is_err());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let plan = Radix2kPlan::new(4096).unwrap();
        let input = ramp(4096);
        let expected = plan.forward(&input);
        crate::par::set_threads(1);
        let sequential = plan.forward(&input);
        crate::par::set_threads(0);
        assert_eq!(sequential, expected);
    }
}
