//! The eight value patterns of §3 and their recognizers.
//!
//! Coarse-grained patterns (*redundant values*, *duplicate values*) are
//! detected from value snapshots by the coarse analyzer
//! ([`crate::coarse`]); the six fine-grained patterns are recognized here
//! from per-object access statistics accumulated by the fine analyzer
//! ([`crate::fine`]):
//!
//! * **frequent values** — some value accounts for ≥ threshold of accesses,
//! * **single value** — every accessed value is identical,
//! * **single zero** — every accessed value is zero,
//! * **heavy type** — the declared type is more expressive than the
//!   values stored need,
//! * **structured values** — values are linearly correlated with the
//!   addresses holding them,
//! * **approximate values** — after truncating the float mantissa to `K`
//!   bits, one of the exact fine-grained patterns appears.

use crate::access_type::DecodedValue;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vex_gpu::ir::{Pc, ScalarType};

/// The eight value patterns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValuePattern {
    /// A write leaves some/all of an object's elements unchanged (§3.1).
    RedundantValues,
    /// Two objects hold identical values at some GPU API (§3.1).
    DuplicateValues,
    /// One or a few values dominate the accesses (§3.2).
    FrequentValues,
    /// All accessed values are the same (§3.2).
    SingleValue,
    /// All accessed values are zero (§3.2).
    SingleZero,
    /// The data type is wider than the values require (§3.2).
    HeavyType,
    /// Values are linearly correlated with their addresses (§3.2).
    StructuredValues,
    /// A fine-grained pattern appears after mantissa truncation (§3.2).
    ApproximateValues,
}

impl ValuePattern {
    /// All patterns in Table 1 column order.
    pub const ALL: [ValuePattern; 8] = [
        ValuePattern::RedundantValues,
        ValuePattern::DuplicateValues,
        ValuePattern::FrequentValues,
        ValuePattern::SingleValue,
        ValuePattern::SingleZero,
        ValuePattern::HeavyType,
        ValuePattern::StructuredValues,
        ValuePattern::ApproximateValues,
    ];

    /// Whether this is a coarse-grained pattern (detected per GPU API from
    /// snapshots) rather than a fine-grained one (from access streams).
    pub fn is_coarse(self) -> bool {
        matches!(self, ValuePattern::RedundantValues | ValuePattern::DuplicateValues)
    }

    /// The optimization guidance of §3, one line per pattern.
    pub fn guidance(self) -> &'static str {
        match self {
            ValuePattern::RedundantValues => {
                "remove the redundant write (e.g. double initialization) or skip unchanged elements"
            }
            ValuePattern::DuplicateValues => {
                "initialize on the device (cudaMemset) or share one copy instead of transferring duplicates"
            }
            ValuePattern::FrequentValues => {
                "bypass computation conditionally when the frequent value is seen"
            }
            ValuePattern::SingleValue => {
                "contract the vector to a scalar, or use a sparse structure"
            }
            ValuePattern::SingleZero => {
                "skip the computation/initialization entirely; zeros are identity for +/-"
            }
            ValuePattern::HeavyType => "demote the element type to the narrowest sufficient width",
            ValuePattern::StructuredValues => {
                "compute values from indices instead of loading them from memory"
            }
            ValuePattern::ApproximateValues => {
                "if accuracy permits, exploit the pattern that appears after truncation"
            }
        }
    }
}

impl std::fmt::Display for ValuePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ValuePattern::RedundantValues => "redundant values",
            ValuePattern::DuplicateValues => "duplicate values",
            ValuePattern::FrequentValues => "frequent values",
            ValuePattern::SingleValue => "single value",
            ValuePattern::SingleZero => "single zero",
            ValuePattern::HeavyType => "heavy type",
            ValuePattern::StructuredValues => "structured values",
            ValuePattern::ApproximateValues => "approximate values",
        })
    }
}

/// Thresholds of the recognizers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternConfig {
    /// Fraction of accesses one value must reach for *frequent values*
    /// (the paper uses "a predefined percentage threshold 𝒯").
    pub frequent_threshold: f64,
    /// Unchanged-byte fraction for *redundant values* (the paper uses
    /// 33%).
    pub redundancy_threshold: f64,
    /// Mantissa bits kept for *approximate values* (𝒦).
    pub approx_mantissa_bits: u32,
    /// Minimum |Pearson r| for *structured values*.
    pub structured_min_corr: f64,
    /// Minimum distinct addresses before structured detection fires.
    pub structured_min_samples: u64,
    /// Cap on distinct values tracked per object (memory guard).
    pub max_distinct_values: usize,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            frequent_threshold: 0.5,
            redundancy_threshold: 0.33,
            approx_mantissa_bits: 8,
            structured_min_corr: 0.999,
            structured_min_samples: 16,
            max_distinct_values: 1 << 16,
        }
    }
}

/// Truncates a float's mantissa to `k` bits (the approximate-values view).
pub fn truncate_mantissa(value: f64, k: u32) -> f64 {
    let keep = 52u32.saturating_sub(k.min(52));
    let bits = value.to_bits();
    let mask = !((1u64 << keep) - 1);
    f64::from_bits(bits & mask)
}

/// Inverse of `ty as u8` over the ten scalar types (declaration order).
fn scalar_type_from_tag(tag: u8) -> ScalarType {
    use ScalarType::*;
    [F32, F64, S8, S16, S32, S64, U8, U16, U32, U64][tag as usize]
}

/// Open-addressing `(type tag, value bits) → count` table.
///
/// Replaces `HashMap` on the hot path: one multiply-shift hash, linear
/// probing over a power-of-two slot array, no per-entry allocation. A
/// slot with `count == 0` is empty (occupied slots always count ≥ 1).
#[derive(Debug, Clone, Default)]
struct ValueTable {
    tags: Vec<u8>,
    bits: Vec<u64>,
    counts: Vec<u64>,
    len: usize,
}

impl ValueTable {
    const INITIAL_CAPACITY: usize = 16;

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn hash(tag: u8, bits: u64) -> u64 {
        let mut h = bits ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tag as u64 + 1);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    /// Counts `n` observations of `(tag, bits)` under the distinct-key
    /// cap: an existing key always counts, a new key only while
    /// `len < cap`. Returns `false` when the observations were dropped,
    /// so the caller can tally them in an overflow counter.
    fn add_n(&mut self, tag: u8, bits: u64, n: u64, cap: usize) -> bool {
        if self.counts.is_empty() {
            if cap == 0 {
                return false;
            }
            self.grow(Self::INITIAL_CAPACITY);
        } else if self.len * 8 >= self.counts.len() * 7 {
            // Keep the load factor under 7/8 so probe chains stay short.
            self.grow(self.counts.len() * 2);
        }
        let mask = self.counts.len() - 1;
        let mut i = (Self::hash(tag, bits) as usize) & mask;
        loop {
            if self.counts[i] == 0 {
                if self.len >= cap {
                    return false;
                }
                self.tags[i] = tag;
                self.bits[i] = bits;
                self.counts[i] = n;
                self.len += 1;
                return true;
            }
            if self.tags[i] == tag && self.bits[i] == bits {
                self.counts[i] += n;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self, new_cap: usize) {
        let old_tags = std::mem::replace(&mut self.tags, vec![0; new_cap]);
        let old_bits = std::mem::replace(&mut self.bits, vec![0; new_cap]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; new_cap]);
        let mask = new_cap - 1;
        for ((tag, bits), count) in old_tags.into_iter().zip(old_bits).zip(old_counts) {
            if count == 0 {
                continue;
            }
            let mut i = (Self::hash(tag, bits) as usize) & mask;
            while self.counts[i] != 0 {
                i = (i + 1) & mask;
            }
            self.tags[i] = tag;
            self.bits[i] = bits;
            self.counts[i] = count;
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u8, u64, u64)> + '_ {
        (0..self.counts.len())
            .filter(|&i| self.counts[i] != 0)
            .map(|i| (self.tags[i], self.bits[i], self.counts[i]))
    }

    fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// One access as fed to [`ValueStats::record_batch`]: address, decoded
/// value, and the PC that issued it.
pub type GroupedAccess = (u64, DecodedValue, Pc);

/// Batch-local regression sums, merged into a [`ValueStats`] once per
/// batch ([`ValueStats::merge_regression`]).
#[derive(Debug, Default)]
pub(crate) struct RegressionAcc {
    n: u64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_yy: f64,
    sum_xy: f64,
}

/// Decodes `bits` exactly like [`DecodedValue::as_f64`] would for the
/// scalar type whose tag is `TAG`, but with the type dispatch resolved at
/// compile time.
#[inline(always)]
fn decode_tagged<const TAG: u8>(bits: u64) -> f64 {
    match TAG {
        0 => f32::from_bits(bits as u32) as f64,
        1 => f64::from_bits(bits),
        2 => bits as u8 as i8 as f64,
        3 => bits as u16 as i16 as f64,
        4 => bits as u32 as i32 as f64,
        5 => bits as i64 as f64,
        6 => (bits & 0xFF) as f64,
        7 => (bits & 0xFFFF) as f64,
        8 => (bits & 0xFFFF_FFFF) as f64,
        _ => bits as f64,
    }
}

/// Zero test matching [`DecodedValue::is_zero`], monomorphized like
/// [`decode_tagged`].
#[inline(always)]
fn is_zero_tagged<const TAG: u8>(bits: u64) -> bool {
    match TAG {
        0 => f32::from_bits(bits as u32) == 0.0,
        1 => f64::from_bits(bits) == 0.0,
        2 | 6 => bits & 0xFF == 0,
        3 | 7 => bits & 0xFFFF == 0,
        4 | 8 => bits & 0xFFFF_FFFF == 0,
        _ => bits == 0,
    }
}

/// Streaming per-object, per-direction value statistics.
///
/// One `ValueStats` accumulates all loads *or* all stores of one data
/// object during one GPU API invocation; [`ValueStats::patterns`]
/// evaluates the fine-grained recognizers at kernel end.
///
/// ```rust
/// use vex_core::access_type::DecodedValue;
/// use vex_core::patterns::{PatternConfig, ValuePattern, ValueStats};
/// use vex_gpu::ir::ScalarType;
///
/// let mut stats = ValueStats::new(PatternConfig::default());
/// for i in 0..64u64 {
///     stats.record(i * 4, DecodedValue::from_bits(ScalarType::F32, 0));
/// }
/// let hits = stats.patterns();
/// assert!(hits.iter().any(|h| h.pattern == ValuePattern::SingleZero));
/// ```
#[derive(Debug, Clone)]
pub struct ValueStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses whose decoded value was zero.
    pub zeros: u64,
    /// Exact-value histogram (bits + type as key) with an overflow guard.
    histogram: ValueTable,
    /// Accesses not individually tracked after the histogram cap hit.
    pub histogram_overflow: u64,
    /// Mantissa-truncated histogram for the approximate view (floats only).
    approx_histogram: ValueTable,
    /// Float accesses the approximate histogram stopped tracking after its
    /// cap hit.
    pub approx_histogram_overflow: u64,
    /// Observed value range (for heavy-type detection).
    pub min_value: f64,
    /// Maximum observed value.
    pub max_value: f64,
    /// Whether every float value seen was exactly representable in f32.
    pub f32_representable: bool,
    /// Whether every value seen was integral (fractional part zero).
    pub integral_only: bool,
    /// The widest scalar type observed at the accesses.
    pub observed_type: Option<ScalarType>,
    /// Static instructions that contributed accesses.
    pub pcs: BTreeSet<Pc>,
    // Linear-regression accumulators for structured detection
    // (x = address, y = value).
    n_xy: u64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_yy: f64,
    sum_xy: f64,
    config: PatternConfig,
}

impl ValueStats {
    /// Creates empty statistics under `config`.
    pub fn new(config: PatternConfig) -> Self {
        ValueStats {
            accesses: 0,
            zeros: 0,
            histogram: ValueTable::default(),
            histogram_overflow: 0,
            approx_histogram: ValueTable::default(),
            approx_histogram_overflow: 0,
            min_value: f64::INFINITY,
            max_value: f64::NEG_INFINITY,
            f32_representable: true,
            integral_only: true,
            observed_type: None,
            pcs: BTreeSet::new(),
            n_xy: 0,
            sum_x: 0.0,
            sum_y: 0.0,
            sum_xx: 0.0,
            sum_yy: 0.0,
            sum_xy: 0.0,
            config,
        }
    }

    /// Feeds one access: decoded value at `addr`, tagged with the
    /// instruction that performed it.
    pub fn record_at(&mut self, addr: u64, value: DecodedValue, pc: Pc) {
        self.record_batch(&[(addr, value, pc)]);
    }

    /// Feeds one access: decoded value at `addr`.
    pub fn record(&mut self, addr: u64, value: DecodedValue) {
        let mut acc = RegressionAcc::default();
        self.record_part(&[(addr, value, Pc(0))], &mut acc, false);
        self.merge_regression(acc);
    }

    /// Feeds a batch of accesses through the data-oriented kernel: the
    /// batch is split into runs of one [`ScalarType`], and each run goes
    /// through a monomorphized inner loop with the type dispatch, the
    /// float-only branches, and the regression sums hoisted out of the
    /// per-access path.
    ///
    /// Within a run, a stretch of consecutive accesses with equal bits
    /// is counted once: the value tables, zero count, range and
    /// representability tests are idempotent for equal bits. The
    /// regression sums and the PC set still take every access, in
    /// order, because float sums depend on their order.
    ///
    /// [`ValueStats::record_at`] is this kernel on a one-element batch.
    /// Feeding a batch whole is state-equivalent to feeding its elements
    /// one by one, except that regression sums accumulate batch-locally
    /// and merge once, so their floating-point totals can differ in the
    /// last bits when several batches of non-exactly-representable sums
    /// are fed to one `ValueStats`.
    pub fn record_batch(&mut self, batch: &[GroupedAccess]) {
        let mut acc = RegressionAcc::default();
        self.record_part(batch, &mut acc, true);
        self.merge_regression(acc);
    }

    /// Feeds one part of a batch: [`ValueStats::record_batch`] with the
    /// regression sums left in `acc` until [`Self::merge_regression`], so
    /// a batch fed in several parts leaves the state one call would. The
    /// accesses' PCs are tallied only when `track_pcs` holds.
    pub(crate) fn record_part(
        &mut self,
        batch: &[GroupedAccess],
        acc: &mut RegressionAcc,
        track_pcs: bool,
    ) {
        let mut i = 0;
        while i < batch.len() {
            let ty = batch[i].1.ty;
            let mut j = i + 1;
            while j < batch.len() && batch[j].1.ty == ty {
                j += 1;
            }
            let run = &batch[i..j];
            match ty {
                ScalarType::F32 => self.record_run::<0>(run, acc, track_pcs),
                ScalarType::F64 => self.record_run::<1>(run, acc, track_pcs),
                ScalarType::S8 => self.record_run::<2>(run, acc, track_pcs),
                ScalarType::S16 => self.record_run::<3>(run, acc, track_pcs),
                ScalarType::S32 => self.record_run::<4>(run, acc, track_pcs),
                ScalarType::S64 => self.record_run::<5>(run, acc, track_pcs),
                ScalarType::U8 => self.record_run::<6>(run, acc, track_pcs),
                ScalarType::U16 => self.record_run::<7>(run, acc, track_pcs),
                ScalarType::U32 => self.record_run::<8>(run, acc, track_pcs),
                ScalarType::U64 => self.record_run::<9>(run, acc, track_pcs),
            }
            i = j;
        }
    }

    /// Adds one batch's regression sums to the totals.
    pub(crate) fn merge_regression(&mut self, acc: RegressionAcc) {
        self.n_xy += acc.n;
        self.sum_x += acc.sum_x;
        self.sum_y += acc.sum_y;
        self.sum_xx += acc.sum_xx;
        self.sum_yy += acc.sum_yy;
        self.sum_xy += acc.sum_xy;
    }

    /// The monomorphized inner loop of [`ValueStats::record_batch`]:
    /// every element of `run` has the scalar type whose `ty as u8` tag is
    /// `TAG`, so decode and zero tests compile to straight-line per-type
    /// code. Integer decodes are always integral, so the `fract` check
    /// only runs for the two float tags.
    fn record_run<const TAG: u8>(
        &mut self,
        run: &[GroupedAccess],
        acc: &mut RegressionAcc,
        track_pcs: bool,
    ) {
        let is_float = TAG <= 1;
        let cap = self.config.max_distinct_values;
        let k = self.config.approx_mantissa_bits;
        let ty = scalar_type_from_tag(TAG);
        self.observed_type = Some(match self.observed_type {
            None => ty,
            Some(t) if t.size_bytes() >= ty.size_bytes() => t,
            Some(_) => ty,
        });
        let mut last_pc = None;
        let mut i = 0;
        while i < run.len() {
            // One stretch of equal bits: per-access work first, in order.
            let bits = run[i].1.bits;
            let v = decode_tagged::<TAG>(bits);
            let start = i;
            while i < run.len() && run[i].1.bits == bits {
                let (addr, value, pc) = run[i];
                debug_assert_eq!(value.ty as u8, TAG);
                if track_pcs && last_pc != Some(pc) {
                    self.pcs.insert(pc);
                    last_pc = Some(pc);
                }
                let x = addr as f64;
                acc.n += 1;
                acc.sum_x += x;
                acc.sum_y += v;
                acc.sum_xx += x * x;
                acc.sum_yy += v * v;
                acc.sum_xy += x * v;
                i += 1;
            }
            // Then the value's own tests, once for the whole stretch.
            let n = (i - start) as u64;
            self.accesses += n;
            if is_zero_tagged::<TAG>(bits) {
                self.zeros += n;
            }
            if !self.histogram.add_n(TAG, bits, n, cap) {
                self.histogram_overflow += n;
            }
            if is_float {
                let t = truncate_mantissa(v, k);
                if !self.approx_histogram.add_n(0, t.to_bits(), n, cap) {
                    self.approx_histogram_overflow += n;
                }
                if (v as f32) as f64 != v {
                    self.f32_representable = false;
                }
                if v.fract() != 0.0 {
                    self.integral_only = false;
                }
            }
            if v < self.min_value {
                self.min_value = v;
            }
            if v > self.max_value {
                self.max_value = v;
            }
        }
    }

    /// Every field of the state, floats by their bits and the value
    /// tables as sorted entries, for bit-for-bit comparisons in tests.
    #[cfg(test)]
    pub(crate) fn state_bits(&self) -> String {
        let mut histogram: Vec<_> = self.histogram.iter().collect();
        histogram.sort_unstable();
        let mut approx: Vec<_> = self.approx_histogram.iter().collect();
        approx.sort_unstable();
        let counters = [
            self.accesses,
            self.zeros,
            self.histogram_overflow,
            self.approx_histogram_overflow,
            self.n_xy,
        ];
        let floats = [
            self.min_value,
            self.max_value,
            self.sum_x,
            self.sum_y,
            self.sum_xx,
            self.sum_yy,
            self.sum_xy,
        ]
        .map(f64::to_bits);
        let flags = (self.f32_representable, self.integral_only, self.observed_type);
        format!("{:?}", (counters, floats, flags, &self.pcs, histogram, approx))
    }

    /// Number of distinct exact values observed (capped).
    pub fn distinct_values(&self) -> usize {
        self.histogram.len()
    }

    /// The most frequent exact value and its count. Ties break fully
    /// deterministically: highest count, then lowest bits, then lowest
    /// type tag.
    pub fn top_value(&self) -> Option<(ScalarType, u64, u64)> {
        let mut best: Option<(u8, u64, u64)> = None;
        for (tag, bits, count) in self.histogram.iter() {
            let better = match best {
                None => true,
                Some((btag, bbits, bcount)) => {
                    count > bcount
                        || (count == bcount && (bits < bbits || (bits == bbits && tag < btag)))
                }
            };
            if better {
                best = Some((tag, bits, count));
            }
        }
        best.map(|(tag, bits, count)| (scalar_type_from_tag(tag), bits, count))
    }

    /// Fraction of accesses hitting the most frequent value.
    pub fn top_fraction(&self) -> f64 {
        match self.top_value() {
            Some((_, _, c)) if self.accesses > 0 => c as f64 / self.accesses as f64,
            _ => 0.0,
        }
    }

    /// Pearson correlation between addresses and values.
    ///
    /// `None` when fewer than two accesses were seen, when addresses or
    /// values are constant, or when the regression accumulators are
    /// non-finite (values overflowed the sums or contained NaNs) — a
    /// correlation computed from such sums is meaningless, and NaN
    /// payloads are codegen-dependent, so surfacing them would break the
    /// scalar/batch bit-equivalence the recognizers rely on.
    pub fn address_value_correlation(&self) -> Option<f64> {
        if self.n_xy < 2 {
            return None;
        }
        let n = self.n_xy as f64;
        let cov = self.sum_xy - self.sum_x * self.sum_y / n;
        let var_x = self.sum_xx - self.sum_x * self.sum_x / n;
        let var_y = self.sum_yy - self.sum_y * self.sum_y / n;
        if !cov.is_finite() || !var_x.is_finite() || !var_y.is_finite() {
            return None; // accumulators overflowed or saw NaN values
        }
        if var_x <= 0.0 || var_y <= 0.0 {
            return None; // constant addresses or constant values
        }
        Some(cov / (var_x.sqrt() * var_y.sqrt()))
    }

    /// The narrowest type that can represent every observed value, given
    /// the declared/observed type — `None` when the current type is
    /// already minimal.
    pub fn demotable_type(&self) -> Option<ScalarType> {
        let ty = self.observed_type?;
        if self.accesses == 0 {
            return None;
        }
        let (lo, hi) = (self.min_value, self.max_value);
        if ty.is_float() {
            if ty == ScalarType::F64 && self.f32_representable {
                return Some(ScalarType::F32);
            }
            return None;
        }
        // Integer demotion: pick the narrowest type holding [lo, hi].
        let candidates: &[(ScalarType, f64, f64)] = &[
            (ScalarType::U8, 0.0, u8::MAX as f64),
            (ScalarType::S8, i8::MIN as f64, i8::MAX as f64),
            (ScalarType::U16, 0.0, u16::MAX as f64),
            (ScalarType::S16, i16::MIN as f64, i16::MAX as f64),
            (ScalarType::U32, 0.0, u32::MAX as f64),
            (ScalarType::S32, i32::MIN as f64, i32::MAX as f64),
        ];
        for &(cand, cl, ch) in candidates {
            if cand.size_bytes() < ty.size_bytes() && lo >= cl && hi <= ch {
                return Some(cand);
            }
        }
        None
    }

    /// Evaluates the fine-grained recognizers.
    pub fn patterns(&self) -> Vec<PatternHit> {
        let mut hits = Vec::new();
        if self.accesses == 0 {
            return hits;
        }
        let exact_distinct = self.distinct_values() + usize::from(self.histogram_overflow > 0);
        let top_frac = self.top_fraction();

        if exact_distinct == 1 {
            if self.zeros == self.accesses {
                hits.push(PatternHit {
                    pattern: ValuePattern::SingleZero,
                    strength: 1.0,
                    detail: format!("{} accesses, all zero", self.accesses),
                });
            } else {
                let (ty, bits, _) = self.top_value().expect("distinct == 1");
                hits.push(PatternHit {
                    pattern: ValuePattern::SingleValue,
                    strength: 1.0,
                    detail: format!(
                        "{} accesses, all {}",
                        self.accesses,
                        DecodedValue::from_bits(ty, bits).as_f64()
                    ),
                });
            }
        } else if top_frac >= self.config.frequent_threshold {
            let (ty, bits, count) = self.top_value().expect("nonempty");
            hits.push(PatternHit {
                pattern: ValuePattern::FrequentValues,
                strength: top_frac,
                detail: format!(
                    "value {} covers {:.1}% of {} accesses",
                    DecodedValue::from_bits(ty, bits).as_f64(),
                    top_frac * 100.0,
                    count.max(self.accesses) // count <= accesses; show total
                ),
            });
        }

        if let Some(demoted) = self.demotable_type() {
            let ty = self.observed_type.expect("demotable implies observed");
            hits.push(PatternHit {
                pattern: ValuePattern::HeavyType,
                strength: 1.0 - demoted.size_bytes() as f64 / ty.size_bytes() as f64,
                detail: format!(
                    "values in [{}, {}] fit {} (declared {})",
                    self.min_value, self.max_value, demoted, ty
                ),
            });
        }

        if self.n_xy >= self.config.structured_min_samples && exact_distinct > 1 {
            if let Some(r) = self.address_value_correlation() {
                if r.abs() >= self.config.structured_min_corr {
                    hits.push(PatternHit {
                        pattern: ValuePattern::StructuredValues,
                        strength: r.abs(),
                        detail: format!("address-value correlation r = {r:.4}"),
                    });
                }
            }
        }

        // Approximate: the truncated view is single/frequent while the
        // exact view is not.
        if self.observed_type.is_some_and(ScalarType::is_float)
            && !self.approx_histogram.is_empty()
        {
            let approx_distinct =
                self.approx_histogram.len() + usize::from(self.approx_histogram_overflow > 0);
            let approx_top = self.approx_histogram.max_count() as f64 / self.accesses as f64;
            let exact_hits_already =
                exact_distinct == 1 || top_frac >= self.config.frequent_threshold;
            if !exact_hits_already
                && (approx_distinct == 1 || approx_top >= self.config.frequent_threshold)
            {
                hits.push(PatternHit {
                    pattern: ValuePattern::ApproximateValues,
                    strength: approx_top,
                    detail: format!(
                        "with {}-bit mantissa: {} distinct values, top covers {:.1}%",
                        self.config.approx_mantissa_bits,
                        approx_distinct,
                        approx_top * 100.0
                    ),
                });
            }
        }

        hits
    }
}

/// One recognized pattern instance with its evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternHit {
    /// The recognized pattern.
    pub pattern: ValuePattern,
    /// Normalized strength in `(0, 1]` (fraction, correlation, or savings
    /// ratio depending on the pattern).
    pub strength: f64,
    /// Human-readable evidence.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(stats: &mut ValueStats, addr: u64, ty: ScalarType, v: f64) {
        let bits = match ty {
            ScalarType::F32 => (v as f32).to_bits() as u64,
            ScalarType::F64 => v.to_bits(),
            _ => v as i64 as u64,
        };
        stats.record(addr, DecodedValue::from_bits(ty, bits));
    }

    fn has(hits: &[PatternHit], p: ValuePattern) -> bool {
        hits.iter().any(|h| h.pattern == p)
    }

    #[test]
    fn single_zero_detected() {
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..100 {
            rec(&mut s, i * 4, ScalarType::F32, 0.0);
        }
        let hits = s.patterns();
        assert!(has(&hits, ValuePattern::SingleZero));
        assert!(!has(&hits, ValuePattern::SingleValue));
        assert!(!has(&hits, ValuePattern::FrequentValues));
    }

    #[test]
    fn single_value_detected() {
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..100 {
            rec(&mut s, i * 8, ScalarType::F64, 3.25);
        }
        let hits = s.patterns();
        assert!(has(&hits, ValuePattern::SingleValue));
        assert!(!has(&hits, ValuePattern::SingleZero));
    }

    #[test]
    fn frequent_values_detected() {
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..100u64 {
            let v = if i % 10 == 0 { i as f64 } else { 7.0 };
            rec(&mut s, i * 4, ScalarType::F32, v);
        }
        let hits = s.patterns();
        assert!(has(&hits, ValuePattern::FrequentValues));
        let hit = hits.iter().find(|h| h.pattern == ValuePattern::FrequentValues).unwrap();
        assert!((hit.strength - 0.9).abs() < 1e-9);
    }

    #[test]
    fn heavy_type_int_demotion() {
        // Values 0..=9 stored as s32 (the Rodinia/bfs g_cost case).
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..200u64 {
            rec(&mut s, i * 4, ScalarType::S32, (i % 10) as f64);
        }
        let hits = s.patterns();
        assert!(has(&hits, ValuePattern::HeavyType));
        assert_eq!(s.demotable_type(), Some(ScalarType::U8));
    }

    #[test]
    fn heavy_type_f64_to_f32() {
        // lavaMD's rA: ten values 0.1..1.0 stored as f64. They are not
        // exactly f32-representable... use f32-representable doubles.
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..100u64 {
            rec(&mut s, i * 8, ScalarType::F64, (i % 10) as f64 * 0.5);
        }
        assert_eq!(s.demotable_type(), Some(ScalarType::F32));
    }

    #[test]
    fn no_heavy_type_when_range_needs_width() {
        let mut s = ValueStats::new(PatternConfig::default());
        rec(&mut s, 0, ScalarType::S32, -100000.0);
        rec(&mut s, 4, ScalarType::S32, 100000.0);
        assert_eq!(s.demotable_type(), None);
        assert!(!has(&s.patterns(), ValuePattern::HeavyType));
    }

    #[test]
    fn structured_values_detected() {
        // srad_v1's d_iN-style neighbor index arrays: value = f(index).
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..128u64 {
            rec(&mut s, 1000 + i * 4, ScalarType::S32, (i as f64) - 1.0);
        }
        let hits = s.patterns();
        assert!(has(&hits, ValuePattern::StructuredValues));
    }

    #[test]
    fn structured_not_detected_for_noise() {
        let mut s = ValueStats::new(PatternConfig::default());
        let mut x = 42u64;
        for i in 0..128u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rec(&mut s, 1000 + i * 4, ScalarType::S32, (x % 1000) as f64);
        }
        assert!(!has(&s.patterns(), ValuePattern::StructuredValues));
    }

    #[test]
    fn approximate_values_detected() {
        // hotspot3D-style: temperatures clustered around 330.0 with tiny
        // perturbations — exact values all distinct, truncated identical.
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..256u64 {
            rec(&mut s, i * 8, ScalarType::F64, 330.0 + 1e-9 * i as f64);
        }
        let hits = s.patterns();
        assert!(has(&hits, ValuePattern::ApproximateValues));
        assert!(!has(&hits, ValuePattern::SingleValue));
        assert!(!has(&hits, ValuePattern::FrequentValues));
    }

    #[test]
    fn approximate_suppressed_when_exact_pattern_exists() {
        let mut s = ValueStats::new(PatternConfig::default());
        for i in 0..64u64 {
            rec(&mut s, i * 4, ScalarType::F32, 1.0);
        }
        let hits = s.patterns();
        assert!(has(&hits, ValuePattern::SingleValue));
        assert!(!has(&hits, ValuePattern::ApproximateValues));
    }

    #[test]
    fn truncate_mantissa_behaviour() {
        assert_eq!(truncate_mantissa(1.0, 8), 1.0);
        let a = truncate_mantissa(330.000001, 8);
        let b = truncate_mantissa(330.000002, 8);
        assert_eq!(a, b);
        assert_ne!(truncate_mantissa(330.0, 8), truncate_mantissa(331.0, 8));
        // k >= 52 keeps everything.
        assert_eq!(truncate_mantissa(std::f64::consts::PI, 60), std::f64::consts::PI);
    }

    #[test]
    fn histogram_cap_is_respected() {
        let cfg = PatternConfig { max_distinct_values: 10, ..PatternConfig::default() };
        let mut s = ValueStats::new(cfg);
        for i in 0..100u64 {
            rec(&mut s, i * 4, ScalarType::U32, i as f64);
        }
        assert_eq!(s.distinct_values(), 10);
        assert_eq!(s.histogram_overflow, 90);
        // Overflow means we can no longer claim single-value.
        assert!(!has(&s.patterns(), ValuePattern::SingleValue));
    }

    #[test]
    fn approx_histogram_cap_counts_overflow() {
        let cfg = PatternConfig { max_distinct_values: 4, ..PatternConfig::default() };
        let mut s = ValueStats::new(cfg);
        // Distinct exponents: every truncated value is distinct too.
        for i in 0..32u64 {
            rec(&mut s, i * 8, ScalarType::F64, (1u64 << i) as f64);
        }
        assert_eq!(s.approx_histogram_overflow, 28);
        assert_eq!(s.histogram_overflow, 28);
    }

    #[test]
    fn approx_histogram_overflow_blocks_false_single() {
        // Cap 1: the approximate histogram keeps only the first truncated
        // value, so without overflow accounting the 20 dropped distinct
        // values would masquerade as an approximate single value.
        let cfg = PatternConfig { max_distinct_values: 1, ..PatternConfig::default() };
        let mut s = ValueStats::new(cfg);
        for i in 0..10u64 {
            rec(&mut s, i * 8, ScalarType::F64, 330.0 + 1e-9 * i as f64);
        }
        for i in 0..20u64 {
            rec(&mut s, 80 + i * 8, ScalarType::F64, (1u64 << i) as f64 * 1.5);
        }
        assert_eq!(s.approx_histogram_overflow, 20);
        assert!(!has(&s.patterns(), ValuePattern::ApproximateValues));
    }

    #[test]
    fn top_value_ties_break_deterministically() {
        // Two types sharing one bit pattern with equal counts: the winner
        // is the same whatever the insertion order.
        let a = DecodedValue::from_bits(ScalarType::U32, 7);
        let b = DecodedValue::from_bits(ScalarType::S32, 7);
        let mut s1 = ValueStats::new(PatternConfig::default());
        s1.record(0, a);
        s1.record(4, b);
        let mut s2 = ValueStats::new(PatternConfig::default());
        s2.record(0, b);
        s2.record(4, a);
        assert_eq!(s1.top_value(), s2.top_value());
        // S32 precedes U32 in declaration order, so it wins the tie.
        assert_eq!(s1.top_value(), Some((ScalarType::S32, 7, 1)));
        // Bits still outrank type: the lower bit pattern wins first.
        let mut s3 = ValueStats::new(PatternConfig::default());
        s3.record(0, DecodedValue::from_bits(ScalarType::U32, 3));
        s3.record(4, DecodedValue::from_bits(ScalarType::S32, 9));
        assert_eq!(s3.top_value(), Some((ScalarType::U32, 3, 1)));
    }

    #[test]
    fn scalar_type_tags_match_declaration_order() {
        use ScalarType::*;
        for (i, ty) in [F32, F64, S8, S16, S32, S64, U8, U16, U32, U64].into_iter().enumerate()
        {
            assert_eq!(ty as usize, i);
            assert_eq!(scalar_type_from_tag(ty as u8), ty);
        }
    }

    fn assert_stats_equal(a: &ValueStats, b: &ValueStats) {
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.zeros, b.zeros);
        assert_eq!(a.distinct_values(), b.distinct_values());
        assert_eq!(a.histogram_overflow, b.histogram_overflow);
        assert_eq!(a.approx_histogram_overflow, b.approx_histogram_overflow);
        assert_eq!(a.min_value.to_bits(), b.min_value.to_bits());
        assert_eq!(a.max_value.to_bits(), b.max_value.to_bits());
        assert_eq!(a.f32_representable, b.f32_representable);
        assert_eq!(a.integral_only, b.integral_only);
        assert_eq!(a.observed_type, b.observed_type);
        assert_eq!(a.pcs, b.pcs);
        assert_eq!(a.top_value(), b.top_value());
        assert_eq!(a.top_fraction(), b.top_fraction());
        // Bit compare is safe: non-finite accumulators (NaN inputs or
        // overflowed sums) yield `None` on both sides, and finite sums
        // fold in the same order, so the bits match exactly.
        assert_eq!(
            a.address_value_correlation().map(f64::to_bits),
            b.address_value_correlation().map(f64::to_bits)
        );
        assert_eq!(a.patterns(), b.patterns());
    }

    #[test]
    fn multi_batch_matches_scalar_on_integral_data() {
        let batch: Vec<(u64, DecodedValue, Pc)> = (0..300u64)
            .map(|i| {
                let ty = scalar_type_from_tag((i % 10) as u8);
                let v = i % 7;
                let bits = match ty {
                    ScalarType::F32 => (v as f32).to_bits() as u64,
                    ScalarType::F64 => (v as f64).to_bits(),
                    _ => v,
                };
                (i * 4, DecodedValue::from_bits(ty, bits), Pc((i % 5) as u32))
            })
            .collect();
        let mut scalar = ValueStats::new(PatternConfig::default());
        for &(addr, value, pc) in &batch {
            scalar.record_at(addr, value, pc);
        }
        let mut batched = ValueStats::new(PatternConfig::default());
        for chunk in batch.chunks(70) {
            batched.record_batch(chunk);
        }
        // Small integral inputs: every regression sum is exact, so even
        // across several batches the states match bit-for-bit.
        assert_stats_equal(&scalar, &batched);
    }

    #[test]
    fn empty_stats_no_patterns() {
        let s = ValueStats::new(PatternConfig::default());
        assert!(s.patterns().is_empty());
        assert_eq!(s.top_fraction(), 0.0);
        assert!(s.address_value_correlation().is_none());
    }

    #[test]
    fn pattern_metadata() {
        assert!(ValuePattern::RedundantValues.is_coarse());
        assert!(!ValuePattern::SingleZero.is_coarse());
        assert_eq!(ValuePattern::ALL.len(), 8);
        for p in ValuePattern::ALL {
            assert!(!p.guidance().is_empty());
            assert!(!p.to_string().is_empty());
        }
    }

    proptest! {
        #[test]
        fn prop_single_value_iff_one_distinct(values in prop::collection::vec(0u32..5, 1..200)) {
            let mut s = ValueStats::new(PatternConfig::default());
            for (i, v) in values.iter().enumerate() {
                rec(&mut s, (i * 4) as u64, ScalarType::U32, *v as f64);
            }
            let distinct: std::collections::HashSet<_> = values.iter().collect();
            let hits = s.patterns();
            let single = has(&hits, ValuePattern::SingleValue) || has(&hits, ValuePattern::SingleZero);
            prop_assert_eq!(single, distinct.len() == 1);
        }

        #[test]
        fn prop_zeros_counted(values in prop::collection::vec(0u32..3, 1..100)) {
            let mut s = ValueStats::new(PatternConfig::default());
            for (i, v) in values.iter().enumerate() {
                rec(&mut s, (i * 4) as u64, ScalarType::U32, *v as f64);
            }
            prop_assert_eq!(s.zeros, values.iter().filter(|&&v| v == 0).count() as u64);
            prop_assert_eq!(s.accesses, values.len() as u64);
        }

        #[test]
        fn prop_correlation_bounded(
            pairs in prop::collection::vec((0u64..10_000, -1000i64..1000), 2..100)
        ) {
            let mut s = ValueStats::new(PatternConfig::default());
            for (a, v) in &pairs {
                rec(&mut s, *a, ScalarType::S32, *v as f64);
            }
            if let Some(r) = s.address_value_correlation() {
                prop_assert!((-1.0001..=1.0001).contains(&r));
            }
        }

        #[test]
        fn prop_tagged_kernels_match_decoded_value(tag in 0u8..10, bits in any::<u64>()) {
            let ty = scalar_type_from_tag(tag);
            let value = DecodedValue::from_bits(ty, bits);
            let decoded = match tag {
                0 => decode_tagged::<0>(bits),
                1 => decode_tagged::<1>(bits),
                2 => decode_tagged::<2>(bits),
                3 => decode_tagged::<3>(bits),
                4 => decode_tagged::<4>(bits),
                5 => decode_tagged::<5>(bits),
                6 => decode_tagged::<6>(bits),
                7 => decode_tagged::<7>(bits),
                8 => decode_tagged::<8>(bits),
                _ => decode_tagged::<9>(bits),
            };
            prop_assert_eq!(decoded.to_bits(), value.as_f64().to_bits());
            let zero = match tag {
                0 => is_zero_tagged::<0>(bits),
                1 => is_zero_tagged::<1>(bits),
                2 => is_zero_tagged::<2>(bits),
                3 => is_zero_tagged::<3>(bits),
                4 => is_zero_tagged::<4>(bits),
                5 => is_zero_tagged::<5>(bits),
                6 => is_zero_tagged::<6>(bits),
                7 => is_zero_tagged::<7>(bits),
                8 => is_zero_tagged::<8>(bits),
                _ => is_zero_tagged::<9>(bits),
            };
            prop_assert_eq!(zero, value.is_zero());
        }

        /// Stretches of equal values, which the batch kernel counts once
        /// per stretch, leave the state that feeding each access alone
        /// leaves, also where a stretch meets the distinct-value cap.
        #[test]
        fn prop_equal_value_stretches_match_scalar(
            stretches in prop::collection::vec((0u8..10, 0usize..6, 1u64..40, 0u32..3), 0..40),
            cap_index in 0usize..3,
        ) {
            const BITS: [u64; 6] =
                [0, 0x8000_0000, 0x7FC0_0001, 0x3F80_0000, 0x4049_0FDB_0000_0001, u64::MAX];
            let cap = [1usize, 3, 1 << 16][cap_index];
            let mut batch = Vec::new();
            for (tag, value, len, pc) in stretches {
                let value = DecodedValue::from_bits(scalar_type_from_tag(tag), BITS[value]);
                for _ in 0..len {
                    batch.push((batch.len() as u64 * 4, value, Pc(pc)));
                }
            }
            let cfg = PatternConfig { max_distinct_values: cap, ..PatternConfig::default() };
            let mut scalar = ValueStats::new(cfg);
            for &(addr, value, pc) in &batch {
                scalar.record_at(addr, value, pc);
            }
            let mut batched = ValueStats::new(cfg);
            batched.record_batch(&batch);
            assert_stats_equal(&scalar, &batched);
            prop_assert_eq!(scalar.state_bits(), batched.state_bits());
        }

        /// One batch into a fresh `ValueStats` is bit-identical to the
        /// scalar path for ANY inputs (including NaNs and denormals):
        /// the batch accumulator folds in the same order and merges into
        /// zeroed sums.
        #[test]
        fn prop_single_batch_matches_scalar(
            accesses in prop::collection::vec(
                (any::<u64>(), 0u8..10, any::<u64>(), 0u32..8), 0..200,
            ),
            cap_index in 0usize..3,
        ) {
            let cap = [1usize, 3, 1 << 16][cap_index];
            let batch: Vec<(u64, DecodedValue, Pc)> = accesses
                .into_iter()
                .map(|(addr, tag, bits, pc)| {
                    (addr, DecodedValue::from_bits(scalar_type_from_tag(tag), bits), Pc(pc))
                })
                .collect();
            let cfg = PatternConfig { max_distinct_values: cap, ..PatternConfig::default() };
            let mut scalar = ValueStats::new(cfg);
            for &(addr, value, pc) in &batch {
                scalar.record_at(addr, value, pc);
            }
            let mut batched = ValueStats::new(cfg);
            batched.record_batch(&batch);
            assert_stats_equal(&scalar, &batched);
        }
    }
}
