//! Open-loop workload plans: millions of logical clients as arithmetic
//! event streams, compiled per case into a validated, seeded arrival
//! schedule before any traffic runs.
//!
//! The paper's tester drives simple closed-loop stress batches; the study's
//! failures, though, surface under *live* traffic — storms, hot keys,
//! requests in flight across the version boundary. Making the workload an
//! explicit plan (mirroring [`RolloutPlan`](crate::RolloutPlan)) buys the
//! same three things rollout plans did:
//!
//! - **scale** — logical clients are never materialized: a client id is a
//!   hash of the arrival index, so a 10⁶-client case carries exactly as
//!   much state as a 10³-client one (O(active requests), zero steady-state
//!   allocation in the arrival iterator);
//! - **mutability** — the coverage-guided search's `ShiftBursts`,
//!   `ReRankHotKeys`, and `MoveArrivalChurn` operators perturb burst
//!   timing, hot-key identity, and client churn through the widened
//!   [`PlanNudge`], the way it already perturbs fault and rollout plans;
//! - **repro** — the spec is the `workload=` field of a
//!   [`CaseSpec`](crate::CaseSpec) line and [`WorkloadSpec::parse`]
//!   round-trips it, so an open-loop failure replays from its line.
//!
//! The plan is a pure function of `(spec, seed, phase window)` — compiled
//! per case into a pooled buffer ([`WorkloadPlan::compile`] reuses its
//! segment vector, so the warm path never allocates) — and iterating it
//! twice yields byte-identical arrival streams.
//!
//! # Arrival process
//!
//! Arrivals are open-loop: the schedule, not the responses, decides when
//! the next request fires. Interarrival gaps are deterministic
//! Poisson-style draws — an integer-only exponential sample (geometric
//! leading-zero count plus a uniform fractional refinement, scaled by ln 2
//! in Q16 fixed point) of the segment's mean gap. The phase window splits
//! into alternating normal and *burst* segments; a burst runs at
//! `burst_factor ×` the base rate, with seeded jitter on its position.
//!
//! # Key popularity
//!
//! Keys are heavy-tailed: ranks draw from a per-octave Zipf approximation
//! (octave `l` carries mass ∝ 2^(l·(1−s)), uniform within the octave),
//! then a power-of-two Feistel permutation with cycle-walking maps rank to
//! key — a true bijection, so re-salting it (`ReRankHotKeys`) changes
//! *which* keys are hot but never the popularity profile itself.
//!
//! # Spec grammar
//!
//! A rendered open-loop spec is `open:` followed by comma-separated fields:
//!
//! | token | meaning |
//! |-------|---------|
//! | `c<n>` | logical client population |
//! | `r<n>` | base arrival rate, requests per simulated second |
//! | `b<n>` | burst segments in the phase window |
//! | `x<n>` | burst rate multiplier |
//! | `k<n>` | key-space size |
//! | `z<n>` | Zipf exponent `s`, in hundredths (`z120` ⇒ s = 1.20) |
//! | `m<n>` | read percentage of the operation mix |

use crate::faults::PlanNudge;
use std::fmt;
use std::sync::Arc;

/// Most burst segments a spec may request; keeps the pooled segment buffer
/// (`2 · bursts + 1` segments) statically bounded.
pub const MAX_BURSTS: u8 = 8;

/// Highest base rate a spec may request: one arrival per microsecond, the
/// plan's smallest mean gap.
const MAX_RATE_PER_SEC: u32 = 1_000_000;

/// ln 2 in Q16 fixed point, the scale factor of the integer exponential
/// sampler.
const LN2_Q16: u64 = 45_426;

/// Upper bound (in Q16) of one exponential draw: the geometric part tops
/// out at 31 leading zeros, so `-ln(U) ≤ (31 + 1) · ln 2 ≈ 22.18`.
const EXP_MAX_Q16: u64 = (((31 << 16) + 0xFFFF) * LN2_Q16) >> 16;

/// Octave count ceiling for the Zipf table: a `u32` key space spans at most
/// 32 octaves.
const MAX_OCTAVES: usize = 32;

/// Dynamic range of the per-octave Zipf masses, in hundredths of an octave
/// (≈ 2⁴¹): an octave lighter than `heaviest / 2⁴¹` floors at one mass
/// unit. Keeps the cumulative table inside `u64` while head ratios stay
/// exact — the truncation only touches a tail whose true share is below
/// 10⁻¹² of the distribution.
const ZIPF_RANGE_H: i64 = 4_100;

/// Where the testing workload comes from (§6.1.2): the paper's three
/// sources plus the open-loop plan axis. Every variant renders into a repro
/// line and [`WorkloadSpec::parse`] round-trips it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// The system's stress-testing operations with default configuration.
    Stress,
    /// A unit test translated into client commands by the translator
    /// (§6.1.3); the string is the unit-test name. The name is interned as
    /// an `Arc<str>` so the million-plus [`TestCase`]s a lazy campaign
    /// matrix materializes share one allocation per unit test instead of
    /// cloning the `String` per case.
    ///
    /// [`TestCase`]: crate::spec::TestCase
    TranslatedUnit(Arc<str>),
    /// A unit test executed in place against the old version's storage; the
    /// cluster then starts from the persistent state it left (§6.1.2,
    /// second scheme). Interned like [`WorkloadSpec::TranslatedUnit`].
    UnitStateHandoff(Arc<str>),
    /// Seeded open-loop arrivals over a Zipfian key-popularity model,
    /// compiled per case into a [`WorkloadPlan`].
    OpenLoop(OpenLoopSpec),
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Stress => write!(f, "stress"),
            WorkloadSpec::TranslatedUnit(name) => write!(f, "unit:{name}"),
            WorkloadSpec::UnitStateHandoff(name) => write!(f, "state:{name}"),
            WorkloadSpec::OpenLoop(spec) => write!(f, "open:{spec}"),
        }
    }
}

impl WorkloadSpec {
    /// Parses a rendered spec back; inverse of `Display`. A unit-test name
    /// is non-empty and holds no whitespace, so it fits in a repro line.
    pub fn parse(s: &str) -> Option<WorkloadSpec> {
        if s == "stress" {
            return Some(WorkloadSpec::Stress);
        }
        let unit_name = |name: &str| !name.is_empty() && !name.contains(char::is_whitespace);
        if let Some(name) = s.strip_prefix("unit:") {
            return unit_name(name).then(|| WorkloadSpec::TranslatedUnit(name.into()));
        }
        if let Some(name) = s.strip_prefix("state:") {
            return unit_name(name).then(|| WorkloadSpec::UnitStateHandoff(name.into()));
        }
        s.strip_prefix("open:")
            .and_then(OpenLoopSpec::parse)
            .map(WorkloadSpec::OpenLoop)
    }
}

/// Parameters of one open-loop workload: all-integer so specs stay `Copy`,
/// `Eq`, and hashable axis values, and so every derived quantity is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpenLoopSpec {
    /// Logical client population. Never materialized: client ids are
    /// arithmetic functions of the arrival index, so memory is independent
    /// of this count.
    pub clients: u64,
    /// Base arrival rate in requests per simulated second, at most 10⁶. The
    /// plan spaces arrivals by a whole-microsecond mean gap, so a rate that
    /// does not divide 10⁶ is rounded: 300 000 req/s runs at a 3 µs gap,
    /// ≈ 333 333 req/s.
    pub rate_per_sec: u32,
    /// Burst segments per phase window (capped at [`MAX_BURSTS`]).
    pub bursts: u8,
    /// Rate multiplier inside a burst segment (≥ 1).
    pub burst_factor: u8,
    /// Key-space size the Zipf ranks map onto.
    pub keys: u32,
    /// Zipf exponent `s` in hundredths (120 ⇒ s = 1.20).
    pub zipf_s_hundredths: u16,
    /// Percentage of arrivals that are reads (the rest write).
    pub read_pct: u8,
}

impl OpenLoopSpec {
    /// A modest population for campaign tests: 10³ clients at 100 req/s
    /// with two 3× bursts over 64 keys (s = 1.20, 60% reads).
    pub fn small() -> OpenLoopSpec {
        OpenLoopSpec {
            clients: 1_000,
            rate_per_sec: 100,
            bursts: 2,
            burst_factor: 3,
            keys: 64,
            zipf_s_hundredths: 120,
            read_pct: 60,
        }
    }

    /// The ROADMAP's north-star population: 10⁶ logical clients, same
    /// traffic shape as [`OpenLoopSpec::small`] — which is the point: the
    /// arrival stream's cost depends on rate × window, never on `clients`.
    pub fn million() -> OpenLoopSpec {
        OpenLoopSpec {
            clients: 1_000_000,
            ..OpenLoopSpec::small()
        }
    }

    /// Parses the `c…,r…,b…,x…,k…,z…,m…` field list; inverse of `Display`.
    pub fn parse(s: &str) -> Option<OpenLoopSpec> {
        let mut fields = s.split(',');
        fn tail<T: std::str::FromStr>(field: Option<&str>, tag: char) -> Option<T> {
            let field = field?;
            field.strip_prefix(tag)?.parse().ok()
        }
        let spec = OpenLoopSpec {
            clients: tail(fields.next(), 'c')?,
            rate_per_sec: tail(fields.next(), 'r')?,
            bursts: tail(fields.next(), 'b')?,
            burst_factor: tail(fields.next(), 'x')?,
            keys: tail(fields.next(), 'k')?,
            zipf_s_hundredths: tail(fields.next(), 'z')?,
            read_pct: tail(fields.next(), 'm')?,
        };
        // Reject anything `compile` would clamp into range (a rate past one
        // arrival per microsecond, burst count over the cap, zero burst
        // factor, more than 100 % reads): two distinct repro strings should
        // not denote the same plan while hashing to different prefix seeds.
        // Rates under the cap still round to whole-microsecond gaps.
        if fields.next().is_some()
            || spec.clients == 0
            || spec.rate_per_sec == 0
            || spec.rate_per_sec > MAX_RATE_PER_SEC
            || spec.keys == 0
            || spec.bursts > MAX_BURSTS
            || spec.burst_factor == 0
            || spec.read_pct > 100
        {
            return None;
        }
        Some(spec)
    }
}

impl fmt::Display for OpenLoopSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "c{},r{},b{},x{},k{},z{},m{}",
            self.clients,
            self.rate_per_sec,
            self.bursts,
            self.burst_factor,
            self.keys,
            self.zipf_s_hundredths,
            self.read_pct
        )
    }
}

/// One contiguous stretch of the phase window with a fixed arrival rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    /// Segment start, microseconds from the phase-window origin.
    start_us: u64,
    /// Exclusive segment end.
    end_us: u64,
    /// Mean interarrival gap inside this segment, microseconds (≥ 1).
    mean_gap_us: u64,
    /// `true` for burst segments — the ones `ShiftBursts` may move.
    burst: bool,
}

/// One logical request of an open-loop plan. Everything here is arithmetic
/// in `(plan, arrival index)` — no per-client state exists anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time, microseconds from the phase-window origin.
    pub at_us: u64,
    /// Position in the arrival stream (0-based): the identity axis client
    /// derivation hashes. The rollout plan's `Traffic { chunk, of }` steps
    /// partition the stream by `at_us` time slice, not by this index.
    pub index: u64,
    /// Logical client issuing the request: `mix(index ^ churn_salt) mod
    /// clients`.
    pub client: u64,
    /// Key the request touches, drawn Zipf-by-octave and permuted.
    pub key: u64,
    /// `true` for a read, `false` for a write.
    pub read: bool,
}

/// A compiled open-loop workload plan: the seeded arrival schedule for one
/// phase window. Pure in `(spec, seed, window)`; pooled — `compile` reuses
/// the segment buffer and the Zipf table is a fixed-size array, so a warm
/// plan recompiles without allocating.
#[derive(Debug, Clone)]
pub struct WorkloadPlan {
    segments: Vec<Segment>,
    window_us: u64,
    /// The burst slot width; bounds both seeded jitter and nudge shifts.
    slot_us: u64,
    clients: u64,
    keys: u64,
    read_pct: u8,
    seed: u64,
    /// Feistel half-width: the rank permutation runs on `2^(2·half_bits)`.
    half_bits: u32,
    /// Salt of the rank→key permutation (`ReRankHotKeys` XORs this).
    key_salt: u64,
    /// Salt of the index→client hash (`MoveArrivalChurn` XORs this).
    churn_salt: u64,
    /// Cumulative per-octave Zipf masses; `zipf_levels` entries are live.
    zipf_cum: [u64; MAX_OCTAVES],
    zipf_levels: usize,
}

impl Default for WorkloadPlan {
    fn default() -> Self {
        WorkloadPlan::new()
    }
}

impl WorkloadPlan {
    /// An empty plan; call [`WorkloadPlan::compile`] before iterating.
    pub fn new() -> WorkloadPlan {
        WorkloadPlan {
            segments: Vec::new(),
            window_us: 0,
            slot_us: 0,
            clients: 1,
            keys: 1,
            read_pct: 0,
            seed: 0,
            half_bits: 1,
            key_salt: 0,
            churn_salt: 0,
            zipf_cum: [0; MAX_OCTAVES],
            zipf_levels: 1,
        }
    }

    /// Compiles `spec` for one phase window of `window_ms` simulated
    /// milliseconds, in place: the segment buffer is cleared and refilled
    /// (never reallocated once warm) and the Zipf table rebuilt. Pure: the
    /// same `(spec, seed, window_ms)` always yields the same plan.
    pub fn compile(&mut self, spec: &OpenLoopSpec, seed: u64, window_ms: u64) {
        self.segments.clear();
        self.window_us = window_ms.saturating_mul(1_000);
        self.clients = spec.clients.max(1);
        self.keys = u64::from(spec.keys.max(1));
        self.read_pct = spec.read_pct.min(100);
        self.seed = seed;
        self.key_salt = mix(seed ^ 0x4b45_595f_5341_4c54);
        self.churn_salt = mix(seed ^ 0x4348_5552_4e5f_5341);

        // Feistel domain: the smallest even-bit power of two ≥ keys.
        let key_bits = 64 - (self.keys - 1).leading_zeros().min(63);
        self.half_bits = key_bits.div_ceil(2).max(1);

        // Per-octave Zipf masses: octave l covers ranks [2^l − 1, 2^(l+1) − 1)
        // with mass ∝ 2^(l·(1−s)), truncated at the key-space edge.
        let levels = (64 - (self.keys).leading_zeros() as usize).clamp(1, MAX_OCTAVES);
        self.zipf_levels = levels;
        // Exponents in hundredths of an octave, anchored at the *heaviest*
        // octave so the head — where essentially all the mass lives at
        // steep exponents — keeps exact ratios; octaves past the
        // [`ZIPF_RANGE_H`] dynamic range floor at one mass unit.
        let step = 100 - i64::from(spec.zipf_s_hundredths);
        let e_max = (0..levels as i64).map(|l| l * step).max().unwrap_or(0);
        let mut cum = 0u64;
        for l in 0..levels {
            let base = (1u64 << l) - 1;
            let size = (self.keys - base).min(1 << l);
            let h = (l as i64 * step - e_max + ZIPF_RANGE_H).max(0) as u64;
            // Mass = 2^(l·(1−s)) scaled by the truncated last octave's fill
            // ratio `size / 2^l` (widened: the product can pass 64 bits).
            let w = u128::from(exp2_hundredths(h));
            let mass = ((w * u128::from(size)) >> l) as u64;
            cum += mass.max(1);
            self.zipf_cum[l] = cum;
        }

        // Segment layout: `bursts` burst slots interleaved with normal
        // stretches, each burst seeded-jittered within its slot.
        let base_gap = (1_000_000 / u64::from(spec.rate_per_sec.max(1))).max(1);
        let factor = u64::from(spec.burst_factor.max(1));
        let burst_gap = (base_gap / factor).max(1);
        let b = u64::from(spec.bursts.min(MAX_BURSTS));
        let slot = if b == 0 {
            0
        } else {
            self.window_us / (2 * b + 1)
        };
        self.slot_us = slot;
        if slot == 0 {
            self.push_normal(0, self.window_us, base_gap);
            return;
        }
        let mut jitter_rng = dup_simnet::SimRng::new(seed).split(0x0b57);
        let mut cursor = 0u64;
        for k in 0..b {
            let nominal = (2 * k + 1) * slot;
            let swing = slot / 4;
            let jitter = jitter_rng.next_range(0, 2 * swing + 1) as i64 - swing as i64;
            let start = nominal.saturating_add_signed(jitter);
            let end = start + slot;
            self.push_normal(cursor, start, base_gap);
            self.segments.push(Segment {
                start_us: start,
                end_us: end,
                mean_gap_us: burst_gap,
                burst: true,
            });
            cursor = end;
        }
        self.push_normal(cursor, self.window_us, base_gap);
    }

    fn push_normal(&mut self, start: u64, end: u64, gap: u64) {
        if start < end {
            self.segments.push(Segment {
                start_us: start,
                end_us: end,
                mean_gap_us: gap,
                burst: false,
            });
        }
    }

    /// Applies the workload half of a [`PlanNudge`]: `burst_shift_ms`
    /// slides every burst segment (clamped to a quarter slot, so segments
    /// stay disjoint and in-window), `key_rank_salt` re-salts the rank→key
    /// permutation, and `arrival_churn_salt` re-salts the index→client
    /// hash. Pure and idempotent-per-nudge like
    /// [`RolloutPlan::nudge`](crate::RolloutPlan::nudge); the fault-plan
    /// half of the nudge is consumed by
    /// [`apply_nudge`](crate::faults::apply_nudge) instead.
    pub fn nudge(&mut self, nudge: &PlanNudge) {
        if nudge.key_rank_salt != 0 {
            self.key_salt ^= nudge.key_rank_salt;
        }
        if nudge.arrival_churn_salt != 0 {
            self.churn_salt ^= nudge.arrival_churn_salt;
        }
        let swing = (self.slot_us / 4) as i64;
        let shift = (nudge.burst_shift_ms.saturating_mul(1_000)).clamp(-swing, swing);
        if shift == 0 {
            return;
        }
        for i in 0..self.segments.len() {
            if !self.segments[i].burst {
                continue;
            }
            self.segments[i].start_us = self.segments[i].start_us.saturating_add_signed(shift);
            self.segments[i].end_us = self.segments[i].end_us.saturating_add_signed(shift);
            if i > 0 {
                self.segments[i - 1].end_us = self.segments[i].start_us;
            }
            if i + 1 < self.segments.len() {
                self.segments[i + 1].start_us = self.segments[i].end_us;
            }
        }
        // A shift can pinch a neighboring normal segment to zero width;
        // drop degenerates so validation stays strict.
        self.segments.retain(|s| s.start_us < s.end_us);
    }

    /// Structural validity: segments are disjoint, ordered, in-window, and
    /// every mean gap is positive. Never allocates on success.
    pub fn validate(&self) -> Result<(), &'static str> {
        let mut cursor = 0u64;
        for seg in &self.segments {
            if seg.start_us < cursor {
                return Err("segments overlap or regress");
            }
            if seg.start_us >= seg.end_us {
                return Err("empty segment");
            }
            if seg.end_us > self.window_us {
                return Err("segment exceeds the phase window");
            }
            if seg.mean_gap_us == 0 {
                return Err("zero mean gap");
            }
            cursor = seg.end_us;
        }
        if self.zipf_levels == 0 || self.zipf_cum[self.zipf_levels - 1] == 0 {
            return Err("empty zipf table");
        }
        Ok(())
    }

    /// The phase window this plan was compiled for, in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Segment count — exposed so pooling tests can assert the buffer is
    /// reused in place and stays independent of the client population.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Capacity of the pooled segment buffer (for pooling tests).
    pub fn segment_capacity(&self) -> usize {
        self.segments.capacity()
    }

    /// The key a popularity rank maps to: a Feistel permutation of the
    /// rounded-up power-of-two domain, cycle-walked back into `[0, keys)`.
    /// A bijection on the key space — re-salting re-ranks which keys are
    /// hot without changing the popularity profile.
    pub fn key_of_rank(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.keys);
        let half = self.half_bits;
        let mask = (1u64 << half) - 1;
        let mut x = rank;
        loop {
            let (mut l, mut r) = (x >> half, x & mask);
            for round in 0..4u64 {
                let f = mix(r ^ self.key_salt ^ (round << 56)) & mask;
                let next = l ^ f;
                l = r;
                r = next;
            }
            x = (l << half) | r;
            if x < self.keys {
                return x;
            }
        }
    }

    /// The logical client of arrival `index`: pure arithmetic, no state.
    pub fn client_of(&self, index: u64) -> u64 {
        mix(index ^ self.churn_salt) % self.clients
    }

    /// Iterates the arrival schedule. Allocation-free and pure: two
    /// iterations of the same plan yield identical streams.
    pub fn arrivals(&self) -> Arrivals<'_> {
        Arrivals {
            plan: self,
            rng: dup_simnet::SimRng::new(self.seed).split(0xA881),
            segment: 0,
            at_us: 0,
            index: 0,
        }
    }

    /// Draws one Zipf rank: binary-search the per-octave cumulative table,
    /// then uniform within the octave.
    fn draw_rank(&self, rng: &mut dup_simnet::SimRng) -> u64 {
        let total = self.zipf_cum[self.zipf_levels - 1];
        let r = rng.next_below(total);
        let mut level = 0;
        let mut lo = 0usize;
        let mut hi = self.zipf_levels;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.zipf_cum[mid] <= r {
                lo = mid + 1;
            } else {
                level = mid;
                hi = mid;
            }
        }
        let base = (1u64 << level) - 1;
        let size = (self.keys - base).min(1 << level);
        base + rng.next_below(size)
    }
}

#[cfg(test)]
thread_local! {
    /// Arrivals every [`Arrivals`] iterator on this thread has drawn.
    pub(crate) static ARRIVALS_DRAWN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Allocation-free iterator over a plan's arrival schedule.
#[derive(Debug, Clone)]
pub struct Arrivals<'a> {
    plan: &'a WorkloadPlan,
    rng: dup_simnet::SimRng,
    segment: usize,
    at_us: u64,
    index: u64,
}

impl Iterator for Arrivals<'_> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        loop {
            let seg = self.plan.segments.get(self.segment)?;
            if self.at_us < seg.start_us {
                self.at_us = seg.start_us;
            }
            let gap = sample_gap(&mut self.rng, seg.mean_gap_us);
            let at = self.at_us + gap;
            if at >= seg.end_us {
                self.segment += 1;
                self.at_us = 0;
                continue;
            }
            self.at_us = at;
            let rank = self.plan.draw_rank(&mut self.rng);
            let read = self.rng.next_below(100) < u64::from(self.plan.read_pct);
            let index = self.index;
            self.index += 1;
            #[cfg(test)]
            ARRIVALS_DRAWN.with(|n| n.set(n.get() + 1));
            return Some(Arrival {
                at_us: at,
                index,
                client: self.plan.client_of(index),
                key: self.plan.key_of_rank(rank),
                read,
            });
        }
    }
}

/// One deterministic Poisson-style gap: `mean · (-ln U)` with the
/// exponential sampled integer-only — geometric leading-zero count for the
/// integer part, 16 uniform bits for the fraction, scaled by ln 2 in Q16.
/// Bounded: the draw never exceeds `mean · 23` ([`EXP_MAX_Q16`]).
fn sample_gap(rng: &mut dup_simnet::SimRng, mean_us: u64) -> u64 {
    let u = rng.next_u64();
    // The geometric part counts leading zeros of the top 32 bits *as a
    // 32-bit value* — on the raw u64 the count would start at 32 and the
    // min(31) would pin every draw to the cap, degenerating the
    // exponential into a constant.
    let z = u64::from(((u >> 32) as u32).leading_zeros().min(31));
    let frac = u & 0xFFFF;
    let exp_q16 = (((z << 16) + frac) * LN2_Q16) >> 16;
    debug_assert!(exp_q16 <= EXP_MAX_Q16);
    (mean_us.saturating_mul(exp_q16) >> 16).max(1)
}

/// SplitMix64's output mix: the arithmetic heart of client-id derivation
/// and the Feistel round function.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `2^(h/100)` in Q16 fixed point, integer-only: shift by the whole-octave
/// part, then multiply in the fractional part bit by bit from a table of
/// `2^(1/2^i)` constants. Deterministic on every platform (no libm).
fn exp2_hundredths(h: u64) -> u64 {
    // Q16 constants for 2^(1/2), 2^(1/4), … 2^(1/65536).
    const POW: [u64; 16] = [
        92_682, 77_936, 71_468, 68_438, 66_972, 66_250, 65_892, 65_714, 65_625, 65_580, 65_558,
        65_547, 65_541, 65_539, 65_537, 65_537,
    ];
    let whole = (h / 100).min(47);
    let frac_q16 = (h % 100) * 65_536 / 100;
    let mut acc = 1u64 << 16;
    for (i, &p) in POW.iter().enumerate() {
        if frac_q16 & (1 << (15 - i)) != 0 {
            acc = (acc * p) >> 16;
        }
    }
    acc << whole
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &OpenLoopSpec, seed: u64, window_ms: u64) -> WorkloadPlan {
        let mut p = WorkloadPlan::new();
        p.compile(spec, seed, window_ms);
        p
    }

    #[test]
    fn spec_display_parse_round_trips_every_variant() {
        let specs = [
            WorkloadSpec::Stress,
            WorkloadSpec::TranslatedUnit("testCompactTables".into()),
            WorkloadSpec::UnitStateHandoff("testUpdateKeyspace".into()),
            WorkloadSpec::OpenLoop(OpenLoopSpec::small()),
            WorkloadSpec::OpenLoop(OpenLoopSpec::million()),
        ];
        for spec in specs {
            let rendered = spec.to_string();
            assert_eq!(WorkloadSpec::parse(&rendered), Some(spec), "{rendered}");
        }
        // The legacy labels stay byte-stable: repro strings and the
        // prefix-seed hash both key on them.
        assert_eq!(WorkloadSpec::Stress.to_string(), "stress");
        assert_eq!(
            WorkloadSpec::TranslatedUnit("t".into()).to_string(),
            "unit:t"
        );
        assert_eq!(
            WorkloadSpec::UnitStateHandoff("t".into()).to_string(),
            "state:t"
        );
        assert_eq!(
            WorkloadSpec::OpenLoop(OpenLoopSpec::small()).to_string(),
            "open:c1000,r100,b2,x3,k64,z120,m60"
        );
    }

    #[test]
    fn spec_parse_rejects_malformed_input() {
        for bad in [
            "",
            "unit:",
            "state:",
            // A name with whitespace cannot sit in a repro line.
            "unit:a b",
            "state:a\tb",
            "open:",
            "open:c0,r100,b2,x3,k64,z120,m60",
            "open:c10,r0,b2,x3,k64,z120,m60",
            "open:c10,r100,b2,x3,k0,z120,m60",
            "open:c10,r100,b2,x3,k64,z120,m60,extra",
            "open:c10,r100",
            "closed:c10",
            // Values `compile` would normalize parse as invalid, so two
            // distinct strings never denote the same plan.
            "open:c10,r100,b200,x3,k64,z120,m60",
            "open:c10,r100,b9,x3,k64,z120,m60",
            "open:c10,r100,b2,x0,k64,z120,m60",
            "open:c10,r1000001,b2,x3,k64,z120,m60",
            "open:c10,r100,b2,x3,k64,z120,m101",
        ] {
            assert_eq!(WorkloadSpec::parse(bad), None, "{bad:?} should not parse");
        }
        // The largest rate and read share it accepts.
        let spec = OpenLoopSpec::parse("c10,r1000000,b2,x3,k64,z120,m100").expect("parses");
        assert_eq!((spec.rate_per_sec, spec.read_pct), (1_000_000, 100));
    }

    #[test]
    fn compile_is_pure_and_arrivals_replay_exactly() {
        let a = plan(&OpenLoopSpec::small(), 7, 2_000);
        let b = plan(&OpenLoopSpec::small(), 7, 2_000);
        assert_eq!(a.segments, b.segments);
        let xs: Vec<Arrival> = a.arrivals().collect();
        let ys: Vec<Arrival> = b.arrivals().collect();
        assert_eq!(xs, ys);
        // And a second iteration of the *same* plan replays too.
        let zs: Vec<Arrival> = a.arrivals().collect();
        assert_eq!(xs, zs);
        assert!(!xs.is_empty());
        let c = plan(&OpenLoopSpec::small(), 8, 2_000);
        assert_ne!(xs, c.arrivals().collect::<Vec<_>>(), "seed must matter");
    }

    #[test]
    fn arrival_stream_is_ordered_in_window_and_indexed() {
        let p = plan(&OpenLoopSpec::small(), 3, 2_000);
        p.validate().unwrap();
        let mut last = 0;
        for (i, a) in p.arrivals().enumerate() {
            assert_eq!(a.index, i as u64);
            assert!(a.at_us >= last, "arrivals must be time-ordered");
            assert!(a.at_us < p.window_us());
            assert!(a.key < u64::from(OpenLoopSpec::small().keys));
            assert!(a.client < OpenLoopSpec::small().clients);
            last = a.at_us;
        }
    }

    #[test]
    fn client_population_does_not_change_schedule_shape() {
        // 10³ vs 10⁶ clients: same seed, same rate — identical arrival
        // times, keys, and op mix; only the client-id stream differs in
        // range. This is the memory-independence property in miniature.
        let small = plan(&OpenLoopSpec::small(), 5, 2_000);
        let million = plan(&OpenLoopSpec::million(), 5, 2_000);
        assert_eq!(small.segment_count(), million.segment_count());
        let a: Vec<_> = small.arrivals().map(|x| (x.at_us, x.key, x.read)).collect();
        let b: Vec<_> = million
            .arrivals()
            .map(|x| (x.at_us, x.key, x.read))
            .collect();
        assert_eq!(a, b);
        assert!(million.arrivals().all(|x| x.client < 1_000_000));
    }

    #[test]
    fn key_permutation_is_a_bijection_for_odd_key_counts() {
        for keys in [1u32, 2, 5, 64, 100, 257] {
            let spec = OpenLoopSpec {
                keys,
                ..OpenLoopSpec::small()
            };
            let p = plan(&spec, 11, 1_000);
            let mut seen = vec![false; keys as usize];
            for rank in 0..u64::from(keys) {
                let k = p.key_of_rank(rank);
                assert!(k < u64::from(keys));
                assert!(!seen[k as usize], "key {k} mapped twice for keys={keys}");
                seen[k as usize] = true;
            }
        }
    }

    #[test]
    fn zipf_head_is_hotter_than_tail() {
        let p = plan(&OpenLoopSpec::small(), 2, 2_000);
        // Rank 0's key must be drawn more often than any single tail key.
        let hot = p.key_of_rank(0);
        let mut hot_hits = 0usize;
        let mut tail_hits = vec![0usize; 64];
        for a in p.arrivals() {
            if a.key == hot {
                hot_hits += 1;
            } else {
                tail_hits[a.key as usize] += 1;
            }
        }
        let max_tail = tail_hits.iter().max().copied().unwrap_or(0);
        assert!(
            hot_hits > max_tail,
            "hot key drew {hot_hits}, hottest tail key drew {max_tail}"
        );
    }

    #[test]
    fn bursts_raise_the_local_arrival_rate() {
        let spec = OpenLoopSpec {
            bursts: 1,
            burst_factor: 5,
            ..OpenLoopSpec::small()
        };
        let p = plan(&spec, 9, 3_000);
        let burst = p
            .segments
            .iter()
            .find(|s| s.burst)
            .expect("one burst segment");
        let in_burst = p
            .arrivals()
            .filter(|a| a.at_us >= burst.start_us && a.at_us < burst.end_us)
            .count() as u64;
        let burst_len = burst.end_us - burst.start_us;
        let outside = p.arrivals().count() as u64 - in_burst;
        let outside_len = p.window_us() - burst_len;
        // Compare rates with integer cross-multiplication; the burst must
        // run at least 2× the outside rate (spec says 5×).
        assert!(
            in_burst * outside_len > 2 * outside * burst_len,
            "burst rate too low: {in_burst}/{burst_len} vs {outside}/{outside_len}"
        );
    }

    #[test]
    fn nudge_shifts_bursts_within_validity() {
        let base = plan(&OpenLoopSpec::small(), 13, 2_000);
        let mut shifted = base.clone();
        shifted.nudge(&PlanNudge {
            burst_shift_ms: 40,
            ..PlanNudge::default()
        });
        shifted.validate().unwrap();
        assert_ne!(base.segments, shifted.segments, "shift must move bursts");
        // Extreme shifts clamp instead of breaking validity.
        let mut extreme = base.clone();
        extreme.nudge(&PlanNudge {
            burst_shift_ms: i64::MAX / 2_000,
            ..PlanNudge::default()
        });
        extreme.validate().unwrap();
        // Salt nudges leave timing alone but change key/client identity.
        let mut resalted = base.clone();
        resalted.nudge(&PlanNudge {
            key_rank_salt: 0xDEAD_BEEF,
            arrival_churn_salt: 0xFEED_F00D,
            ..PlanNudge::default()
        });
        resalted.validate().unwrap();
        assert_eq!(base.segments, resalted.segments);
        let times_base: Vec<u64> = base.arrivals().map(|a| a.at_us).collect();
        let times_resalted: Vec<u64> = resalted.arrivals().map(|a| a.at_us).collect();
        assert_eq!(times_base, times_resalted, "salts must not move arrivals");
        assert_ne!(
            base.arrivals().map(|a| a.key).collect::<Vec<_>>(),
            resalted.arrivals().map(|a| a.key).collect::<Vec<_>>(),
        );
        assert_ne!(
            base.arrivals().map(|a| a.client).collect::<Vec<_>>(),
            resalted.arrivals().map(|a| a.client).collect::<Vec<_>>(),
        );
        // A no-op nudge changes nothing at all.
        let mut noop = base.clone();
        noop.nudge(&PlanNudge::default());
        assert_eq!(base.segments, noop.segments);
    }

    #[test]
    fn resalted_permutation_stays_a_bijection() {
        let mut p = plan(&OpenLoopSpec::small(), 17, 1_000);
        p.nudge(&PlanNudge {
            key_rank_salt: 0x1234_5678_9ABC_DEF1,
            ..PlanNudge::default()
        });
        let mut seen = [false; 64];
        for rank in 0..64u64 {
            let k = p.key_of_rank(rank) as usize;
            assert!(!seen[k]);
            seen[k] = true;
        }
    }

    #[test]
    fn interarrival_gaps_are_bounded() {
        let mut rng = dup_simnet::SimRng::new(99);
        for mean in [1u64, 10, 1_000, 10_000] {
            for _ in 0..2_000 {
                let gap = sample_gap(&mut rng, mean);
                assert!(gap >= 1);
                assert!(gap <= mean * 23 + 1, "gap {gap} blows the bound at {mean}");
            }
        }
    }

    #[test]
    fn interarrival_gaps_have_exponential_mean_and_spread() {
        // The empirical mean of `mean · (-ln U)` is ≈ 1.04 · mean (the
        // sampler adds half a fractional ulp); anything outside [mean/2,
        // 2·mean] means the exponential degenerated — e.g. the geometric
        // part pinning at its cap would inflate the mean ~22×.
        let mut rng = dup_simnet::SimRng::new(7);
        let mean = 10_000u64;
        let n = 4_000u64;
        let mut sum = 0u64;
        let (mut below_half, mut above_double) = (0u64, 0u64);
        for _ in 0..n {
            let gap = sample_gap(&mut rng, mean);
            sum += gap;
            below_half += u64::from(gap < mean / 2);
            above_double += u64::from(gap > 2 * mean);
        }
        let empirical = sum / n;
        assert!(
            (mean / 2..=2 * mean).contains(&empirical),
            "empirical mean gap {empirical} vs requested mean {mean}"
        );
        // An exponential has real spread: ~30% of draws land below mean/2
        // and ~13% above 2·mean. A constant (or near-constant) sampler
        // fails one side or the other.
        assert!(
            below_half > n / 10,
            "only {below_half}/{n} gaps below half the mean"
        );
        assert!(
            above_double > n / 50,
            "only {above_double}/{n} gaps above twice the mean"
        );
    }

    #[test]
    fn steep_zipf_keeps_exact_head_ratios() {
        // At s = 3.0 consecutive octave masses shrink 4× (2^(1−s) = 2⁻²).
        // The head octaves must keep that ratio exactly — the old
        // min-anchored table saturated them into equality — and the floored
        // tail must stay monotone and reachable.
        let spec = OpenLoopSpec {
            zipf_s_hundredths: 300,
            keys: 1 << 20,
            ..OpenLoopSpec::small()
        };
        let p = plan(&spec, 4, 500);
        p.validate().unwrap();
        let mass = |l: usize| p.zipf_cum[l] - if l == 0 { 0 } else { p.zipf_cum[l - 1] };
        for l in 0..8 {
            let (head, next) = (mass(l), mass(l + 1));
            assert!(
                next >= 1 && head / next == 4 && head % next == 0,
                "octave {l} mass {head} vs {next}: want an exact 4x ratio"
            );
        }
        for l in 0..p.zipf_levels {
            assert!(mass(l) >= 1, "octave {l} must stay reachable");
        }
    }

    #[test]
    fn compile_reuses_buffers_in_place() {
        let mut p = WorkloadPlan::new();
        p.compile(&OpenLoopSpec::small(), 1, 2_000);
        let cap = p.segment_capacity();
        assert!(cap >= p.segment_count());
        for seed in 0..64 {
            p.compile(&OpenLoopSpec::million(), seed, 2_000);
            p.compile(&OpenLoopSpec::small(), seed, 2_000);
        }
        assert_eq!(
            p.segment_capacity(),
            cap,
            "recompiling must reuse the pooled segment buffer"
        );
    }

    #[test]
    fn degenerate_windows_still_validate() {
        // Window too small for burst slots: collapses to one segment.
        let p = plan(&OpenLoopSpec::small(), 1, 0);
        p.validate().unwrap();
        assert_eq!(p.arrivals().count(), 0);
        let tiny = plan(
            &OpenLoopSpec {
                bursts: 8,
                ..OpenLoopSpec::small()
            },
            1,
            1,
        );
        tiny.validate().unwrap();
    }

    #[test]
    fn zipf_table_is_monotone_for_extreme_exponents() {
        for z in [0u16, 50, 100, 120, 200, 300] {
            let spec = OpenLoopSpec {
                zipf_s_hundredths: z,
                keys: 1 << 20,
                ..OpenLoopSpec::small()
            };
            let p = plan(&spec, 4, 500);
            p.validate().unwrap();
            for w in p.zipf_cum[..p.zipf_levels].windows(2) {
                assert!(w[0] <= w[1], "cumulative masses must be monotone at z={z}");
            }
        }
    }
}
