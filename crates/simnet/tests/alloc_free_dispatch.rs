//! Asserts the tentpole property of the hot path: once the simulator is
//! warm, dispatching events performs **zero heap allocations**.
//!
//! The lib crate `#![forbid(unsafe_code)]`, so the counting `GlobalAlloc`
//! (which must be `unsafe impl`) lives here, in an integration test — a
//! separate crate where the forbid does not apply. This file deliberately
//! contains exactly ONE `#[test]`: the allocation counter is process-global,
//! and a second test running on a parallel test thread would pollute it.

use dup_simnet::{
    restore_clone, Ctx, Durability, Endpoint, FaultKind, FaultPlan, HostStorage, Process, Sim,
    SimDuration, SimRng, SimSnapshot, StepResult, TraceConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation the *test thread* routes
/// through the global allocator. Deallocations are free to happen
/// (returning pooled buffers never deallocates anyway); the steady-state
/// claim is about *acquiring* memory.
///
/// Other threads are excluded: libtest's main thread lazily initialises
/// its channel machinery (`std::sync::mpmc` contexts) at a wall-clock-
/// dependent moment while the test runs, which would otherwise show up as
/// a couple of phantom allocations in whichever measured window it lands.
/// The const-initialised thread-local is TLS-block data, so reading it in
/// `alloc` cannot itself allocate.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    if COUNTED_THREAD
        .try_with(std::cell::Cell::get)
        .unwrap_or(false)
    {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Replies to every message, forever. The payload is built once at
/// construction and cloned per send: `Bytes` is a refcounted handle, so the
/// clone never touches the allocator.
struct Pinger {
    peer: u32,
    payload: bytes::Bytes,
}

impl Pinger {
    fn new(peer: u32) -> Self {
        Pinger {
            peer,
            payload: bytes::Bytes::from_static(b"ping"),
        }
    }
}

impl Process for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        ctx.send(Endpoint::Node(self.peer), self.payload.clone());
        Ok(())
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, _p: &[u8]) -> StepResult {
        ctx.send(from, self.payload.clone());
        Ok(())
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) -> StepResult {
        Ok(())
    }
}

/// Sends on a timer instead of replying, so its traffic survives message
/// drops — the phase-2 fault plan would silence a reply-driven chain on the
/// first dropped message.
struct TimerPinger {
    peer: u32,
    payload: bytes::Bytes,
}

impl TimerPinger {
    fn new(peer: u32) -> Self {
        TimerPinger {
            peer,
            payload: bytes::Bytes::from_static(b"tick"),
        }
    }
}

impl Process for TimerPinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        ctx.set_timer(SimDuration::from_millis(10), 1);
        Ok(())
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: Endpoint, _: &[u8]) -> StepResult {
        Ok(())
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) -> StepResult {
        ctx.send(Endpoint::Node(self.peer), self.payload.clone());
        ctx.set_timer(SimDuration::from_millis(10), 1);
        Ok(())
    }
}

/// Drives one deterministic faulted + traced mini-case on `sim` and returns
/// a fingerprint string covering every observable surface: counters (the
/// cluster-only message count among them), logs,
/// an RPC response, and a rendered trace slice (which exercises host-id
/// interning and the causal lineage walk). Byte-equal fingerprints mean the
/// two simulators were indistinguishable — phase 5's reset-equals-fresh
/// check compares a warm, reset simulator against `Sim::new` through this.
fn drive_case(sim: &mut Sim, seed: u64) -> String {
    sim.enable_trace(TraceConfig {
        capacity: 256,
        tail_events: 8,
        lineage_limit: 16,
    });
    let mut plan = FaultPlan::new(seed ^ 0x5EED);
    plan.drop_probability = 0.02;
    plan.duplicate_probability = 0.05;
    plan.delay_probability = 0.05;
    plan.max_delay_spike = SimDuration::from_millis(50);
    let plan = plan
        .schedule(
            dup_simnet::SimTime::from_millis(300),
            FaultKind::Partition(0, 1),
        )
        .schedule(dup_simnet::SimTime::from_millis(700), FaultKind::Heal(0, 1));
    sim.install_fault_plan(plan);
    let a = sim.add_node("reset-a", "v", Box::new(Pinger::new(1)));
    let b = sim.add_node("reset-b", "v", Box::new(Pinger::new(0)));
    sim.start_node(a).expect("starts");
    sim.start_node(b).expect("starts");
    sim.run_for(SimDuration::from_secs(2));
    let resp = sim.rpc(
        a,
        bytes::Bytes::from_static(b"probe"),
        SimDuration::from_millis(500),
    );
    sim.run_for(SimDuration::from_secs(1));
    let anchor = sim.trace_observe(Some(b));
    let slice = sim.trace().expect("trace enabled").slice(anchor);
    format!(
        "events={} delivered={} cluster={} faults={} recorded={} resp={:?}\n{}\n{}",
        sim.events_processed(),
        sim.messages_delivered(),
        sim.cluster_messages_delivered(),
        sim.faults_injected(),
        sim.trace().expect("trace enabled").events_recorded(),
        resp,
        sim.logs().render(),
        slice.render_timeline(),
    )
}

/// Forkable cousin of [`TimerPinger`] for the snapshot phase: static
/// payload sends, a fixed-size WAL append per tick, and a tick counter so
/// process state actually matters to the capture. Echoes client probes so
/// the fingerprint can include an RPC response.
#[derive(Clone)]
struct ForkTimerPinger {
    peer: u32,
    ticks: u64,
    payload: bytes::Bytes,
}

impl ForkTimerPinger {
    fn new(peer: u32) -> Self {
        ForkTimerPinger {
            peer,
            ticks: 0,
            payload: bytes::Bytes::from_static(b"fork"),
        }
    }
}

impl Process for ForkTimerPinger {
    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }
    fn restore_from(&mut self, src: &dyn Process) -> bool {
        restore_clone(self, src)
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        ctx.set_timer(SimDuration::from_millis(10), 1);
        Ok(())
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, p: &[u8]) -> StepResult {
        if let Endpoint::Client(_) = from {
            // Client echo allocates (payload copy); only the fingerprint
            // helper sends client traffic, never the measured window.
            ctx.send(from, bytes::Bytes::copy_from_slice(p));
        }
        Ok(())
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) -> StepResult {
        self.ticks += 1;
        ctx.storage().append("wal", b"x");
        ctx.send(Endpoint::Node(self.peer), self.payload.clone());
        ctx.set_timer(SimDuration::from_millis(10), 1);
        Ok(())
    }
}

/// Boots a traced, faulted, torn-durability two-node world of forkable
/// timer pingers and runs the shared prefix — the phase-6 world, shaped
/// like a campaign case up to its fork point.
fn fork_world(seed: u64) -> Sim {
    let mut sim = Sim::new(seed);
    sim.enable_trace(TraceConfig {
        capacity: 256,
        tail_events: 8,
        lineage_limit: 16,
    });
    let a = sim.add_node("fork-a", "v", Box::new(ForkTimerPinger::new(1)));
    let b = sim.add_node("fork-b", "v", Box::new(ForkTimerPinger::new(0)));
    sim.start_node(a).expect("starts");
    sim.start_node(b).expect("starts");
    let mut plan = FaultPlan::new(seed ^ 0x5EED);
    plan.drop_probability = 0.02;
    plan.duplicate_probability = 0.05;
    plan.delay_probability = 0.05;
    plan.max_delay_spike = SimDuration::from_millis(50);
    plan.durability = Durability::Torn;
    sim.install_fault_plan(plan);
    sim.run_for(SimDuration::from_secs(2));
    sim
}

/// Reseeds at the fork point, runs a divergent suffix, and fingerprints
/// every observable surface (counters, logs, an RPC response, a rendered
/// trace slice). Allocates freely — callers keep it outside measured
/// windows.
fn fork_suffix_fingerprint(sim: &mut Sim, fork_seed: u64) -> String {
    sim.reseed(fork_seed);
    sim.run_for(SimDuration::from_secs(2));
    let resp = sim.rpc(
        0,
        bytes::Bytes::from_static(b"probe"),
        SimDuration::from_millis(500),
    );
    let anchor = sim.trace_observe(Some(1));
    let slice = sim.trace().expect("trace enabled").slice(anchor);
    format!(
        "events={} delivered={} cluster={} faults={} recorded={} resp={:?}\n{}\n{}",
        sim.events_processed(),
        sim.messages_delivered(),
        sim.cluster_messages_delivered(),
        sim.faults_injected(),
        sim.trace().expect("trace enabled").events_recorded(),
        resp,
        sim.logs().render(),
        slice.render_timeline(),
    )
}

#[test]
fn steady_state_dispatch_allocates_nothing() {
    COUNTED_THREAD.with(|f| f.set(true));
    let mut sim = Sim::new(42);
    let a = sim.add_node("alloc-a", "v", Box::new(Pinger::new(1)));
    let b = sim.add_node("alloc-b", "v", Box::new(Pinger::new(0)));
    sim.start_node(a).expect("starts");
    sim.start_node(b).expect("starts");

    // Warm-up: grows the event queue, the pooled effect buffer, and the
    // per-host storage slots to their steady-state capacities.
    sim.run_for(SimDuration::from_secs(2));
    let warm_events = sim.events_processed();
    assert!(
        warm_events > 100,
        "warm-up barely ran: {warm_events} events"
    );

    // Steady state: two nodes ping-ponging static payloads. Every event is
    // a Deliver -> dispatch -> Effect::Send -> schedule cycle; none of it
    // may touch the allocator.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.run_for(SimDuration::from_secs(10));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    let steady_events = sim.events_processed() - warm_events;
    assert!(
        steady_events > 1_000,
        "steady-state window barely ran: {steady_events} events"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state dispatch allocated {} times over {steady_events} events",
        after - before
    );
    assert!(sim.node_status(a).is_running());
    assert!(sim.node_status(b).is_running());

    // ---- phase 2: the same property with an active fault plan -----------
    //
    // Per-message drop/duplicate/delay/reorder fates plus scheduled
    // partition/heal cycles must stay allocation-free too. Crash/restart
    // are excluded: those allocate (crash reason string, log record) by
    // design and are exercised by the unit tests instead. Traffic comes
    // from timer-driven nodes so dropped messages cannot kill it — and the
    // phase-1 reply-on-every-message pair must go quiet first: under a
    // duplicate fate its volley would become a supercritical branching
    // process (every delivery spawns a reply, times >1 expected copies).
    sim.stop_node(a).expect("stops");
    sim.stop_node(b).expect("stops");
    let c = sim.add_node("alloc-c", "v", Box::new(TimerPinger::new(3)));
    let d = sim.add_node("alloc-d", "v", Box::new(TimerPinger::new(2)));
    sim.start_node(c).expect("starts");
    sim.start_node(d).expect("starts");

    let now_ms = 12_000;
    let mut plan = FaultPlan::new(7);
    plan.drop_probability = 0.02;
    plan.duplicate_probability = 0.05;
    plan.delay_probability = 0.05;
    plan.max_delay_spike = SimDuration::from_millis(100);
    plan.reorder_probability = 0.10;
    plan.max_reorder_shift = SimDuration::from_millis(20);
    // One partition/heal cycle inside the warm-up window pre-sizes the
    // partition set's backing storage; the cycle inside the measured window
    // then reuses that capacity.
    let plan = plan
        .schedule(
            dup_simnet::SimTime::from_millis(now_ms + 200),
            FaultKind::Partition(c, d),
        )
        .schedule(
            dup_simnet::SimTime::from_millis(now_ms + 600),
            FaultKind::Heal(c, d),
        )
        .schedule(
            dup_simnet::SimTime::from_millis(now_ms + 4_000),
            FaultKind::Partition(c, d),
        )
        .schedule(
            dup_simnet::SimTime::from_millis(now_ms + 5_000),
            FaultKind::Heal(c, d),
        );
    sim.install_fault_plan(plan);

    // Warm-up round two: the plan install, the new nodes, the first
    // partition cycle, and enough faulted traffic to re-reach steady-state
    // capacities (duplicates put more events in flight than phase 1 did).
    sim.run_for(SimDuration::from_secs(2));
    let warm_events = sim.events_processed();
    let warm_faults = sim.faults_injected();
    assert!(warm_faults > 0, "plan injected nothing during warm-up");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.run_for(SimDuration::from_secs(8));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    let steady_events = sim.events_processed() - warm_events;
    let steady_faults = sim.faults_injected() - warm_faults;
    assert!(
        steady_events > 1_000,
        "faulted steady-state window barely ran: {steady_events} events"
    );
    assert!(
        steady_faults > 10,
        "faulted steady-state window barely injected: {steady_faults} faults"
    );
    assert_eq!(
        after - before,
        0,
        "faulted dispatch allocated {} times over {steady_events} events \
         ({steady_faults} faults injected)",
        after - before
    );
    assert!(sim.node_status(c).is_running());
    assert!(sim.node_status(d).is_running());

    // ---- phase 3: buffered durability — flush + crash materialization ----
    //
    // The crash-durability model rides the same discipline: an append lands
    // in the file's existing buffer, `flush` is metadata-only, and
    // `crash_materialize` resolves the unflushed tail in place (truncate,
    // never reallocate). Warmed once, an append/flush/crash cycle must not
    // touch the allocator. Write-replacement is excluded: `write` takes an
    // owned `Vec` by design (the allocation is the caller's), and its
    // crash atomicity is covered by the storage unit tests.
    let mut storage = HostStorage::new();
    storage.set_durability(Durability::Torn);
    let chunk = [0xA5u8; 64];
    // Warm-up: establish backing capacity well beyond what the measured
    // loop can reach. The 1 MiB append sizes the buffer exactly; the next
    // append forces one amortized doubling (~2 MiB capacity), while the
    // measured loop grows the durable base by at most 128 bytes/iteration
    // (~256 KiB total).
    let big = vec![0u8; 1 << 20];
    storage.append("wal", &big);
    storage.append("wal", &chunk);
    storage.flush("wal");
    drop(big);
    let mut rng = SimRng::new(0xD00D);
    // One full warm cycle so every branch of the measured loop has run.
    storage.append("wal", &chunk);
    storage.flush("wal");
    storage.append("wal", &chunk);
    storage.crash_materialize(&mut rng);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..2_000 {
        storage.append("wal", &chunk); // lands in the write buffer
        storage.flush("wal"); // metadata-only: the tail becomes durable
        storage.append("wal", &chunk); // an unflushed tail at risk
        storage.crash_materialize(&mut rng); // torn in place
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "durability cycle allocated {} times over 2000 crash cycles",
        after - before
    );
    assert!(
        !storage.has_unflushed(),
        "crash materialization must leave no unflushed state"
    );
    let wal = storage.read("wal").expect("wal survives every crash");
    assert!(wal.len() >= (1 << 20), "durable base lost");

    // ---- phase 4: the causal trace recorder ------------------------------
    //
    // Phases 1–3 above double as the tracing-*disabled* assertion: their Sims
    // never call `enable_trace`, so every record site reduces to one branch
    // and the steady-state zero still holds with the trace hooks compiled in.
    // This phase covers the *enabled* mode: the ring is allocated once at
    // enable time and recording overwrites slots in place, so a warmed,
    // actively-wrapping trace must not touch the allocator either. The ring
    // is deliberately tiny so the measured window exercises wrap-around
    // eviction, not just initial fill.
    let mut sim = Sim::new(77);
    sim.enable_trace(TraceConfig {
        capacity: 256,
        tail_events: 8,
        lineage_limit: 16,
    });
    let e = sim.add_node("alloc-e", "v", Box::new(Pinger::new(1)));
    let f = sim.add_node("alloc-f", "v", Box::new(Pinger::new(0)));
    sim.start_node(e).expect("starts");
    sim.start_node(f).expect("starts");

    // Warm-up: fills the ring past capacity (so the measured window runs in
    // overwrite mode) and sizes the per-node last-touch table — the only
    // trace structure that grows, and only when a node id first appears.
    sim.run_for(SimDuration::from_secs(2));
    let warm_events = sim.events_processed();
    let warm_recorded = sim.trace().expect("trace enabled").events_recorded();
    assert!(
        sim.trace().expect("trace enabled").events_dropped() > 0,
        "warm-up must wrap the 256-slot ring ({warm_recorded} recorded)"
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.run_for(SimDuration::from_secs(10));
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    let steady_events = sim.events_processed() - warm_events;
    let steady_recorded = sim.trace().expect("trace enabled").events_recorded() - warm_recorded;
    assert!(
        steady_events > 1_000,
        "traced steady-state window barely ran: {steady_events} events"
    );
    assert!(
        steady_recorded > 1_000,
        "traced window barely recorded: {steady_recorded} trace events"
    );
    assert_eq!(
        after - before,
        0,
        "traced dispatch allocated {} times over {steady_events} events \
         ({steady_recorded} trace events recorded)",
        after - before
    );

    // ---- phase 5: arena-style `Sim::reset` -------------------------------
    //
    // Two properties of the warm-runner tentpole:
    //   1. Reset-equals-fresh: a reset simulator driven through a faulted,
    //      traced case is byte-indistinguishable from `Sim::new` with the
    //      same seed (same counters, logs, RPC responses, trace slices).
    //   2. Steady-state reset is allocation-free: once the pools are warm,
    //      `reset` only clears and re-derives — dropping is allowed,
    //      acquiring memory is not.
    // The phase-4 sim is already warm (traced ring, sized queue/slabs);
    // reuse it as the warm runner.
    let mut fresh = Sim::new(4242);
    let fp_fresh = drive_case(&mut fresh, 4242);

    sim.reset(4242);
    let fp_warm1 = drive_case(&mut sim, 4242);
    assert_eq!(
        fp_warm1, fp_fresh,
        "first warm cycle diverged from a fresh simulator"
    );

    sim.reset(4242);
    let fp_warm2 = drive_case(&mut sim, 4242);
    assert_eq!(
        fp_warm2, fp_fresh,
        "second warm cycle diverged from a fresh simulator"
    );

    // A different seed through the same warm runner must still match fresh:
    // reset leaks nothing seed-dependent.
    let mut fresh_other = Sim::new(777);
    let fp_fresh_other = drive_case(&mut fresh_other, 777);
    sim.reset(777);
    let fp_warm_other = drive_case(&mut sim, 777);
    assert_eq!(
        fp_warm_other, fp_fresh_other,
        "warm cycle with a new seed diverged from a fresh simulator"
    );

    // The runner has now been through several full cycles with tracing and
    // faults enabled — every pool is at steady-state capacity. Reset itself
    // must not allocate.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    sim.reset(4242);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state Sim::reset allocated {} times",
        after - before
    );

    // ---- phase 6: snapshot-and-fork --------------------------------------
    //
    // The campaign-scaling extension of phase 5: capture a warm world once
    // at its fork point, then fork many seed-divergent suffixes off the
    // snapshot. Two properties:
    //   1. Restore-equals-fresh: a restored world driven through a faulted,
    //      traced, torn-durability suffix fingerprints byte-identically to
    //      a fresh simulator driven straight through under the same fork
    //      seed — even after unrelated suffixes dirtied the warm world.
    //   2. Steady-state snapshot/restore/suffix cycles are allocation-free:
    //      `snapshot_into` overwrites the pooled buffer and `restore`
    //      writes the captured state back into retained capacity. (The one
    //      allowed allocating path in restore — re-inserting a file the
    //      suffix deleted from the storage tree — is cold and not hit by
    //      this traffic; deallocation is free either way.)
    let mut fresh = fork_world(4242);
    let want = fork_suffix_fingerprint(&mut fresh, 1);

    let mut warm = fork_world(4242);
    let mut snap = SimSnapshot::new();
    assert!(warm.snapshot_into(&mut snap), "world must be forkable");
    // Dirty the warm world with a different fork seed, then restore: the
    // reference seed must replay byte-for-byte off the snapshot.
    let divergent = fork_suffix_fingerprint(&mut warm, 2);
    assert_ne!(divergent, want, "fork seeds must diverge");
    warm.restore(&snap);
    assert_eq!(
        fork_suffix_fingerprint(&mut warm, 1),
        want,
        "restored suffix diverged from a fresh simulator"
    );

    // Warm cycles: replay the exact seeds the measured loop uses, so every
    // pool (snapshot buffer, event queue, storage images, trace ring) is at
    // the high-water mark those trajectories reach. The fingerprint runs
    // above already sized the suffix side.
    let fork_seeds = [21u64, 22, 23];
    for &s in &fork_seeds {
        warm.restore(&snap);
        assert!(
            warm.snapshot_into(&mut snap),
            "recapture must stay forkable"
        );
        warm.reseed(s);
        warm.run_for(SimDuration::from_secs(4));
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for &s in &fork_seeds {
        warm.restore(&snap); // back to the fork point, in place
        warm.snapshot_into(&mut snap); // recapture over the pooled buffer
        warm.reseed(s); // fork
        warm.run_for(SimDuration::from_secs(4)); // divergent suffix
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state snapshot/restore/suffix cycles allocated {} times \
         over {} forks",
        after - before,
        fork_seeds.len()
    );

    // The warm runner still replays the reference suffix exactly: the
    // measured churn leaked nothing into the restored state.
    warm.restore(&snap);
    assert_eq!(
        fork_suffix_fingerprint(&mut warm, 1),
        want,
        "post-churn restored suffix diverged"
    );

    // ---- phase 7: coverage signature folding + corpus lookup -------------
    //
    // The coverage-guided search adds one step to every executed case: fold
    // the trace ring into a pooled `CaseSignature`, digest it, and probe the
    // corpus for novelty. On the steady-state path — pools sized, corpus
    // populated — that step must not touch the allocator. (Retaining a
    // genuinely *novel* input does insert into the corpus BTree and may
    // allocate; that is the cold path by definition, so the measured loop
    // replays known trajectories and only probes.)
    use dup_tester::{CaseSignature, Corpus, CorpusEntry, SearchInput};

    let mut signature = CaseSignature::new();
    let mut corpus = Corpus::new();
    // Warm-up: fold each fork trajectory once, sizing the signature pool and
    // seeding the corpus with every digest the measured loop will probe.
    for &s in &fork_seeds {
        warm.restore(&snap);
        warm.reseed(s);
        warm.run_for(SimDuration::from_secs(4));
        signature.clear();
        signature.fold(warm.trace().expect("trace enabled"));
        corpus.insert(CorpusEntry {
            input: SearchInput::from_seed(s),
            digest: signature.digest(),
            new_bits: signature.bits_set(),
            bits_set: signature.bits_set(),
        });
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut probes_hit = 0u32;
    for &s in &fork_seeds {
        warm.restore(&snap); // back to the fork point (alloc-free, phase 6)
        warm.reseed(s); // fork
        warm.run_for(SimDuration::from_secs(4)); // replay the sized suffix
        signature.clear(); // zero the pooled bitmap in place
        signature.fold(warm.trace().expect("trace enabled"));
        if corpus.contains(signature.digest()) {
            probes_hit += 1;
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state signature folding + corpus lookup allocated {} times \
         over {} cases",
        after - before,
        fork_seeds.len()
    );
    // Determinism double-check: every replayed trajectory folded back to
    // the digest its warm-up pass retained.
    assert_eq!(
        probes_hit,
        fork_seeds.len() as u32,
        "replayed trajectories must fold to their retained digests"
    );

    // ---- phase 8: rollout-plan compile + nudge + validate ----------------
    //
    // Every case the campaign driver runs starts by compiling its scenario
    // into a pooled `RolloutPlan`, optionally nudging it (the search's
    // fourth mutation operator), and validating the schedule. On the warm
    // path — path/step buffers sized by the largest plan ever compiled —
    // that whole step must not touch the allocator. (`render` is the repro
    // path and allocates its string; it stays out of the measured loop.)
    use dup_tester::{PlanNudge, RolloutPlan, Scenario, VersionId};

    let catalog: Vec<VersionId> = ["1.0.0", "2.0.0", "3.0.0"]
        .iter()
        .map(|s| s.parse().expect("version"))
        .collect();
    let (from, to) = (catalog[0], catalog[2]);
    let cluster = 3;
    let mut plan = RolloutPlan::new();
    // Warm-up: compile every scenario once so the pooled buffers reach the
    // widest plan's capacity, and exercise the nudge + validate path.
    for scenario in Scenario::extended() {
        for seed in 0..4u64 {
            plan.compile(scenario, from, to, &catalog, cluster, seed);
            plan.nudge(&PlanNudge {
                settle_shift_ms: 500,
                step_swap_salt: seed | 1,
                ..PlanNudge::default()
            });
            plan.validate(cluster).expect("nudged plan stays valid");
        }
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut steps_compiled = 0usize;
    for round in 0..8u64 {
        for scenario in Scenario::extended() {
            plan.compile(scenario, from, to, &catalog, cluster, round);
            plan.nudge(&PlanNudge {
                settle_shift_ms: -250,
                step_swap_salt: round | 1,
                ..PlanNudge::default()
            });
            plan.validate(cluster).expect("nudged plan stays valid");
            steps_compiled += plan.steps().len();
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state plan compile + nudge + validate allocated {} times \
         over {} steps",
        after - before,
        steps_compiled
    );
    assert!(steps_compiled > 0, "plans must compile non-empty schedules");

    // ---- phase 9: open-loop arrival generation + key draw ----------------
    //
    // The open-loop workload model's tentpole claim: logical clients are
    // arithmetic, not state. Compiling a `WorkloadPlan`, nudging it (the
    // search's workload operators), and streaming every arrival — each one
    // drawing an interarrival gap, a Zipf rank, a rank→key permutation
    // step, and a client id — must not touch the allocator on the warm
    // path, and a million-client plan must occupy exactly the pooled
    // capacity of a thousand-client one.
    use dup_tester::{OpenLoopSpec, WorkloadPlan};

    let small = OpenLoopSpec::small();
    let million = OpenLoopSpec::million();
    let mut wplan = WorkloadPlan::new();
    // Warm-up: compile both specs into the same pooled plan and walk the
    // arrival stream end to end once.
    wplan.compile(&small, 7, 2_000);
    let small_footprint = (wplan.segment_count(), wplan.segment_capacity());
    let mut warm_arrivals = 0u64;
    for a in wplan.arrivals() {
        warm_arrivals += 1;
        std::hint::black_box(a.key);
    }
    assert!(warm_arrivals > 0, "warm-up stream must produce arrivals");
    wplan.compile(&million, 7, 2_000);
    assert_eq!(
        (wplan.segment_count(), wplan.segment_capacity()),
        small_footprint,
        "10^6 logical clients must not grow the plan's memory footprint"
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut arrivals_seen = 0u64;
    let mut draw_acc = 0u64;
    for round in 0..4u64 {
        wplan.compile(&million, round, 2_000);
        wplan.nudge(&PlanNudge {
            burst_shift_ms: 3,
            key_rank_salt: round | 1,
            arrival_churn_salt: round | 1,
            ..PlanNudge::default()
        });
        wplan.validate().expect("nudged workload plan stays valid");
        for a in wplan.arrivals() {
            arrivals_seen += 1;
            draw_acc = draw_acc.wrapping_add(a.key ^ a.client ^ a.at_us);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state arrival generation + key draw allocated {} times \
         over {} arrivals",
        after - before,
        arrivals_seen
    );
    assert!(arrivals_seen > 0, "measured loop must produce arrivals");
    std::hint::black_box(draw_acc);
}
