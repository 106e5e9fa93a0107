//! Allocation accounting for the attested datapath.
//!
//! The claim under test: the in-place variants (`attest_into`,
//! `encode_into`, `AttestedView::parse` + `verify_view`) perform **zero
//! heap allocations per message** once buffers are warm, while the owned
//! path (`attest` → `encode` → `decode` → `verify`) allocates per hop.
//! A counting global allocator makes the difference a measured number, not
//! an assertion. Run with `cargo bench -p tnic-bench --bench zerocopy`;
//! the process exits non-zero if the warm in-place loop allocates.
//!
//! The in-place loop runs with the `tnic_obs` event recorder **installed
//! and enabled**: the zero-alloc guarantee must hold with protocol tracing
//! active (the recorder preallocates its ring; recording an event is a
//! slot write), so observability can stay on in production datapaths.

//! A second probe covers the **audit hot loop**: the witness protocol's
//! challenge/response wire encoding reuses one scratch buffer per cluster
//! round, so allocations per audit round must stay flat in steady state —
//! later rounds may not allocate more than earlier (warm) rounds beyond a
//! small tolerance, or the scratch reuse has regressed into per-message
//! buffer churn — and below an absolute bound of
//! `MAX_ALLOCS_PER_AUDIT_ROUND` in every window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tnic_bench::CommitMode;
use tnic_device::attestation::{AttestationKernel, AttestationTiming, AttestedMessage};
use tnic_device::types::{DeviceId, SessionId};
use tnic_net::adversary::FaultPlan;
use tnic_peerreview::system::{PeerReview, PeerReviewConfig};

/// System allocator wrapper counting every allocation.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn kernel_pair() -> (AttestationKernel, AttestationKernel) {
    let mut tx = AttestationKernel::new(DeviceId(1), AttestationTiming::zero());
    let mut rx = AttestationKernel::new(DeviceId(2), AttestationTiming::zero());
    tx.install_session_key(SessionId(1), [7u8; 32]);
    rx.install_session_key(SessionId(1), [7u8; 32]);
    (tx, rx)
}

fn main() {
    const ITERS: u64 = 1_000;
    println!("attested-datapath allocation accounting ({ITERS} messages/loop)\n");
    println!(
        "{:<10} {:<34} {:>14} {:>12}",
        "size B", "path", "allocs total", "allocs/msg"
    );

    let mut failed = false;
    for size in [64usize, 1024, 8192] {
        let payload = vec![0x5au8; size];

        // Owned path: attest -> encode -> decode -> verify.
        let (mut tx, mut rx) = kernel_pair();
        let owned = allocs(|| {
            for _ in 0..ITERS {
                let (msg, _) = tx.attest(SessionId(1), &payload).unwrap();
                let wire = msg.encode();
                let decoded = AttestedMessage::decode(&wire).unwrap();
                rx.verify(&decoded).unwrap();
                std::hint::black_box(decoded);
            }
        });

        // In-place path: attest_into -> parse view -> verify_view, one warm
        // reused buffer — with the event recorder installed, so the gate
        // also covers the tracing layer's no-allocation claim (each
        // attest/verify emits an event into the preallocated ring).
        let (mut tx, mut rx) = kernel_pair();
        let recorder = tnic_obs::RecorderGuard::install(4096);
        assert!(
            tnic_obs::tracing_enabled(),
            "recorder must be active for the traced zero-alloc gate"
        );
        let mut wire = Vec::with_capacity(64 + size);
        tx.attest_into(SessionId(1), &payload, &mut wire).unwrap();
        {
            let view = tnic_device::attestation::AttestedView::parse(&wire).unwrap();
            rx.verify_view(&view).unwrap();
        }
        let inplace = allocs(|| {
            for _ in 0..ITERS {
                wire.clear();
                tx.attest_into(SessionId(1), &payload, &mut wire).unwrap();
                let view = tnic_device::attestation::AttestedView::parse(&wire).unwrap();
                rx.verify_view(&view).unwrap();
                std::hint::black_box(&view);
            }
        });
        let recorded = recorder.snapshot().len() as u64 + recorder.dropped();
        drop(recorder);
        if recorded < 2 * ITERS {
            eprintln!(
                "suspicious: only {recorded} events recorded for {ITERS} attest+verify \
                 pairs at {size} B — tracing instrumentation may be broken"
            );
            failed = true;
        }

        for (path, total) in [
            ("attest/encode/decode/verify (owned)", owned),
            ("attest_into/parse/verify_view (traced)", inplace),
        ] {
            println!(
                "{:<10} {:<34} {:>14} {:>12.3}",
                size,
                path,
                total,
                total as f64 / ITERS as f64
            );
        }
        if inplace != 0 {
            eprintln!(
                "FAIL: warm in-place loop (tracing enabled) allocated {inplace} times at {size} B"
            );
            failed = true;
        }
        if owned < 3 * ITERS {
            eprintln!(
                "suspicious: owned path allocated only {owned} times at {size} B — \
                 accounting may be broken"
            );
            failed = true;
        }
    }

    if audit_path_probe() {
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "\nwarm in-place datapath: 0 allocations per message on every size, \
         with the event recorder active"
    );
}

/// Allocation accounting for the audit hot loop: drives a fault-free
/// 8-node piggybacked deployment, warms it for a few audit rounds, then
/// compares the allocation count of two consecutive measured windows.
/// Scratch-buffer reuse in the challenge/response encoder means the second
/// window must not allocate more than the first beyond a small tolerance
/// (per-round log growth is bounded, so steady-state rounds do equal
/// work), and neither window may average more than
/// `MAX_ALLOCS_PER_AUDIT_ROUND`. Returns `true` on failure.
fn audit_path_probe() -> bool {
    const WARM_ROUNDS: u64 = 3;
    const WINDOW_ROUNDS: u64 = 4;
    const MSGS_PER_ROUND: u64 = 8;
    /// Steady-state allocations per audit round (workload included), and
    /// the bound: 206 with responses encoded in place, consistency checks
    /// that build no payload, every control envelope folded into the round
    /// digest, every attested message moved, not cloned, into its
    /// receiver's inbox, the cluster's, the commitment layer's and the
    /// audit pairs' tables indexed by node id (no tree node or per-round
    /// sample set to build), every delivery parsed in place and drained
    /// into one reused buffer, every control message encoded into one
    /// reused wire buffer, relays queued without their payload, each
    /// queued outbound message sent as it comes, commitments stored in
    /// their compact form and challenges that keep only `(seq, head)`.
    const MAX_ALLOCS_PER_AUDIT_ROUND: u64 = 206;

    let config = PeerReviewConfig {
        nodes: 8,
        ..PeerReviewConfig::default()
    }
    .with_engine(CommitMode::Piggyback { witnesses: 3 }.engine_config(42));
    let mut pr = match PeerReview::new(config, FaultPlan::all_correct()) {
        Ok(pr) => pr,
        Err(err) => {
            eprintln!("audit-path probe: cannot build deployment: {err}");
            return true;
        }
    };

    let mut failed = false;
    let window = |pr: &mut PeerReview, rounds: u64| -> u64 {
        let mut err_seen = None;
        let spent = allocs(|| {
            for _ in 0..rounds {
                if let Err(err) = pr
                    .run_workload(MSGS_PER_ROUND)
                    .and_then(|()| pr.run_audit_round())
                {
                    err_seen = Some(err);
                    break;
                }
            }
        });
        if let Some(err) = err_seen {
            eprintln!("audit-path probe: round failed: {err}");
        }
        spent
    };

    let _warm = window(&mut pr, WARM_ROUNDS);
    let first = window(&mut pr, WINDOW_ROUNDS);
    let second = window(&mut pr, WINDOW_ROUNDS);

    println!(
        "\naudit hot loop (8 nodes, piggyback w=3, {MSGS_PER_ROUND} msgs/round): \
         {:.0} allocs/audit-round warm window A, {:.0} window B",
        first as f64 / WINDOW_ROUNDS as f64,
        second as f64 / WINDOW_ROUNDS as f64
    );
    // Tolerance: 25% plus a small constant headroom for map rebalancing —
    // anything beyond that means per-round allocations are *growing*,
    // i.e. wire buffers are no longer being reused.
    if second > first + first / 4 + 64 {
        eprintln!(
            "FAIL: audit-path allocations grew between steady-state windows \
             ({first} -> {second} over {WINDOW_ROUNDS} rounds each) — \
             scratch-buffer reuse has regressed"
        );
        failed = true;
    }
    for (label, spent) in [("A", first), ("B", second)] {
        if spent > MAX_ALLOCS_PER_AUDIT_ROUND * WINDOW_ROUNDS {
            eprintln!(
                "FAIL: audit window {label} allocated {:.0} times per audit round, \
                 above the bound of {MAX_ALLOCS_PER_AUDIT_ROUND}",
                spent as f64 / WINDOW_ROUNDS as f64
            );
            failed = true;
        }
    }
    if first == 0 {
        eprintln!("suspicious: audit window allocated 0 times — accounting may be broken");
        failed = true;
    }
    failed
}
