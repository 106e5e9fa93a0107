//! The six workloads.
//!
//! A run repeats fixed-size *episodes* until its time box is spent. An
//! episode is one fresh deployment driven through a fixed, seed-generated
//! op sequence, so op counts, message counts, virtual time and peak memory
//! of an episode depend on the code and the seed only — never on how fast
//! the machine is or how many episodes fit. Count-class ("exact") metrics
//! are taken from the first episode of a run; wall-clock metrics use all.
//!
//! Everything is one thread, one closed-loop client: the next op is issued
//! when the previous one has completed and been checked.

use crate::adapter::{
    Acct, AcctCounters, AcctSpec, Bft, Chain, Class, ClusterCounters, Fault, SendCluster,
};
use crate::alloc::{self, AllocCount};
use crate::trace::{SpanKind, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

// ---- seed-driven input generation -----------------------------------------

/// SplitMix64: the benchmark's own generator, so generated inputs do not
/// move when a crate under test changes its RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The seed of episode `index` of a run seeded with `seed`.
pub fn episode_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

// ---- catalogue -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    SendSmall,
    SendLarge,
    AppsRw,
    AcctSteady,
    AcctScale,
    AcctFaults,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::SendSmall,
        WorkloadId::SendLarge,
        WorkloadId::AppsRw,
        WorkloadId::AcctSteady,
        WorkloadId::AcctScale,
        WorkloadId::AcctFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SendSmall => "send_small",
            WorkloadId::SendLarge => "send_large",
            WorkloadId::AppsRw => "apps_rw",
            WorkloadId::AcctSteady => "acct_steady",
            WorkloadId::AcctScale => "acct_scale",
            WorkloadId::AcctFaults => "acct_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-line reason recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::SendSmall => "64 B auth_send on a bare 4-node cluster: per-message cost (HMAC, trace bookkeeping) dominates; peerreview idle",
            WorkloadId::SendLarge => "8 KiB auth_send on the same cluster: per-byte cost (SHA-256 compression, delivery clone) dominates; per-message cost is noise",
            WorkloadId::AppsRw => "bare BFT increments and chain-replication puts/gets: Ed25519-bound application path, reads beside writes; hash changes must leave it flat",
            WorkloadId::AcctSteady => "PeerReview n=8 w=3 with checkpoint pruning and witness rotation: steady-state accountability on small maps, flat memory",
            WorkloadId::AcctScale => "PeerReview n=1000 sharded, sampled, sparse, unpruned: per-pair map state, replay catch-up and log growth at scale",
            WorkloadId::AcctFaults => "short PeerReview deployments with node faults, lying witnesses, corruption, crash and partition: verdict and detection guard",
        }
    }

    /// What one timed unit is (printed beside `unit_wall_p50_us`).
    pub fn unit(self) -> &'static str {
        match self {
            WorkloadId::SendSmall | WorkloadId::SendLarge => "16 sends + 1 poll sweep",
            WorkloadId::AppsRw => "one client op",
            WorkloadId::AcctScale => "one round (commit + 1 send per node + audit)",
            WorkloadId::AcctSteady => {
                "one checkpoint cycle (4 rounds of commit + 16 sends + audit)"
            }
            WorkloadId::AcctFaults => {
                "one checkpoint cycle (4 rounds of commit + 32 sends + audit)"
            }
        }
    }
}

/// Episode sizes. The full sizes are about one eighth of the 15–25 s passes
/// ISSUE 11 sketched, so that several episodes fit a 10 s run; `quick`
/// divides every op count by a further 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `send_*`: units (of [`SENDS_PER_UNIT`] messages) per episode.
    pub send_small_units: u32,
    pub send_large_units: u32,
    pub bft_increments: u32,
    pub cr_keys: u32,
    pub cr_puts: u32,
    pub cr_gets: u32,
    pub steady_rounds: u32,
    pub scale: ScaleShape,
    pub faults_deployments: u32,
    pub faults_rounds: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleShape {
    pub nodes: u32,
    pub witnesses: u32,
    pub shards: u32,
    pub rounds: u32,
}

pub const SENDS_PER_UNIT: u32 = 16;
pub const SEND_NODES: u32 = 4;
pub const SMALL_PAYLOAD: usize = 64;
pub const LARGE_PAYLOAD: usize = 8192;
pub const STEADY_MSGS_PER_ROUND: u64 = 16;
pub const FAULTS_MSGS_PER_ROUND: u64 = 32;
pub const FAULTS_NODES: u32 = 16;

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            send_small_units: 24_000,
            send_large_units: 768,
            bft_increments: 400,
            cr_keys: 128,
            cr_puts: 400,
            cr_gets: 400,
            steady_rounds: 500,
            // rounds > witnesses + 1, so the k = 1 sampling rotation has
            // caught every witness up once before the episode ends.
            scale: ScaleShape {
                nodes: 1000,
                witnesses: 4,
                shards: 8,
                rounds: 6,
            },
            faults_deployments: 12,
            faults_rounds: 24,
        }
    }

    pub fn quick() -> Self {
        let full = Sizes::full();
        let q = |n: u32| (n / 20).max(1);
        Sizes {
            send_small_units: q(full.send_small_units),
            send_large_units: q(full.send_large_units),
            bft_increments: q(full.bft_increments),
            cr_keys: q(full.cr_keys),
            cr_puts: q(full.cr_puts),
            cr_gets: q(full.cr_gets),
            steady_rounds: q(full.steady_rounds),
            scale: ScaleShape {
                nodes: full.scale.nodes / 20,
                witnesses: 3,
                shards: 2,
                rounds: 5,
            },
            // One of each node fault, the second half of them with a lying
            // witness, one environment disturbance.
            faults_deployments: 4,
            faults_rounds: 12,
        }
    }
}

// ---- what an episode reports ------------------------------------------------

/// Count-class results of one episode: identical for identical code + seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    /// Verified application ops.
    pub ops: u64,
    pub cluster: ClusterCounters,
    pub acct: AcctCounters,
    /// Audit rounds driven (`acct_faults`' drain rounds included).
    pub rounds: u64,
    /// Σ over deployments of nodes × audit rounds.
    pub node_rounds: u64,
    /// Σ over deployments of nodes (divisor of retained bytes per node).
    pub nodes: u64,
    pub bft_ops: u64,
    pub bft_msgs: u64,
    pub cr_ops: u64,
    pub cr_msgs: u64,
    /// Σ audit rounds from fault activation to unanimous expected verdict.
    pub detect_rounds: u64,
    pub detect_cases: u64,
    /// FNV-1a over the generated inputs, so tests can tell that the same
    /// seed gave the same inputs without keeping them.
    pub input_digest: u64,
}

/// Everything one episode hands back.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wall nanoseconds of the timed section.
    pub timed_ns: u64,
    /// Wall nanoseconds of each deployment construction (further `setup_s`
    /// samples, spread over the run).
    pub construct_ns: Vec<u64>,
    pub exact: Exact,
    /// Rounds that ended in a checkpoint, and those that did not.
    pub ckpt_round_ns: Vec<u64>,
    pub plain_round_ns: Vec<u64>,
    /// `VmRSS` growth over the timed section, in bytes (may be negative).
    pub rss_growth_bytes: i64,
    /// Allocator calls in the timed section (0 unless counting is on).
    pub allocs: AllocCount,
    /// Messages polled inside `Poll` spans.
    pub polled: u64,
    /// Human-readable correctness failures.
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, count: u64, note: String) {
        self.failed += count;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }
}

/// The two sinks an episode writes timing into.
pub struct Pass<'a> {
    pub tracer: &'a mut Tracer,
    pub units_ns: &'a mut Vec<u64>,
}

impl Pass<'_> {
    /// Runs one timed unit; returns its result.
    #[inline]
    fn unit<R>(&mut self, id: u32, pin: bool, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open_unit(id, pin);
        let start = Instant::now();
        let out = f(self.tracer);
        self.close_unit(start.elapsed().as_nanos() as u64);
        out
    }

    /// Opens a unit whose parts the caller times itself (`close_unit`).
    fn open_unit(&mut self, id: u32, pin: bool) {
        self.tracer.begin_unit(id, pin);
        self.tracer.enter(SpanKind::Unit);
    }

    fn close_unit(&mut self, ns: u64) {
        self.tracer.exit(SpanKind::Unit);
        self.units_ns.push(ns);
    }
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    if hash == 0 {
        hash = 0xCBF2_9CE4_8422_2325;
    }
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Resident set size in bytes from `/proc/self/status` (`VmRSS` or `VmHWM`).
pub fn rss_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

// ---- deployments (what setup_s constructs) ----------------------------------

fn steady_spec(seed: u64) -> AcctSpec {
    AcctSpec {
        nodes: 8,
        witnesses: 3,
        payload_len: SMALL_PAYLOAD,
        checkpoint_interval: Some(4),
        rotate_witnesses: true,
        challenge_retries: 0,
        audit_sample_size: None,
        audit_sample_seed: 0,
        shards: 1,
        sparse: false,
        seed,
    }
}

/// Shard membership is a hash of the deployment seed, and with it moves the
/// amount of work: peak memory differed by 15 % between seeds. So
/// `acct_scale` keeps the deployment seed fixed and lets the run's seed pick
/// the audit sampling schedule instead.
const SCALE_DEPLOYMENT_SEED: u64 = 0x5CA1E;

fn scale_spec(shape: ScaleShape, seed: u64) -> AcctSpec {
    AcctSpec {
        nodes: shape.nodes,
        witnesses: shape.witnesses,
        payload_len: SMALL_PAYLOAD,
        checkpoint_interval: None,
        rotate_witnesses: false,
        challenge_retries: 0,
        audit_sample_size: Some(1),
        audit_sample_seed: seed,
        shards: shape.shards,
        sparse: true,
        seed: SCALE_DEPLOYMENT_SEED,
    }
}

fn faults_spec(seed: u64) -> AcctSpec {
    AcctSpec {
        nodes: FAULTS_NODES,
        witnesses: 4,
        payload_len: SMALL_PAYLOAD,
        checkpoint_interval: Some(4),
        rotate_witnesses: false,
        // The budget `reproduce`'s churn suite gives its partition scenario.
        challenge_retries: 3,
        audit_sample_size: None,
        audit_sample_seed: 0,
        shards: 1,
        sparse: false,
        seed,
    }
}

/// Builds the workload's deployment (cluster + sessions + engine attach)
/// and drops it: the thing `setup_s` times.
pub fn construct(workload: WorkloadId, sizes: &Sizes, seed: u64) -> Result<(), String> {
    match workload {
        WorkloadId::SendSmall | WorkloadId::SendLarge => {
            drop(SendCluster::new(SEND_NODES, seed));
        }
        WorkloadId::AppsRw => {
            drop(Bft::new(seed)?);
            drop(Chain::new(3, seed ^ 1)?);
        }
        WorkloadId::AcctSteady => drop(Acct::new(&steady_spec(seed), &[])?),
        WorkloadId::AcctScale => drop(Acct::new(&scale_spec(sizes.scale, seed), &[])?),
        WorkloadId::AcctFaults => {
            let faults = [(seed as u32 % FAULTS_NODES, Fault::Equivocate)];
            drop(Acct::new(&faults_spec(seed), &faults)?);
        }
    }
    Ok(())
}

/// `(timed units, driver spans per unit)` of one episode — what the traced
/// pass sizes its span sample from.
pub fn episode_shape(workload: WorkloadId, sizes: &Sizes) -> (u32, u32) {
    // A unit span, the calls inside it, and for `send_*` the poll sweep.
    let send_spans = 1 + SENDS_PER_UNIT + SEND_NODES;
    let round_spans = 3;
    match workload {
        WorkloadId::SendSmall => (sizes.send_small_units, send_spans),
        WorkloadId::SendLarge => (sizes.send_large_units, send_spans),
        WorkloadId::AppsRw => (sizes.bft_increments + sizes.cr_puts + sizes.cr_gets, 2),
        WorkloadId::AcctSteady => {
            let per_unit = rounds_per_unit(&steady_spec(0));
            (
                sizes.steady_rounds.div_ceil(per_unit),
                1 + per_unit * round_spans,
            )
        }
        WorkloadId::AcctScale => (sizes.scale.rounds, 1 + round_spans),
        WorkloadId::AcctFaults => {
            let per_unit = rounds_per_unit(&faults_spec(0));
            (
                sizes.faults_deployments * sizes.faults_rounds.div_ceil(per_unit),
                2 + per_unit * round_spans,
            )
        }
    }
}

/// Runs one episode of `workload`.
pub fn run_episode(workload: WorkloadId, sizes: &Sizes, seed: u64, pass: &mut Pass<'_>) -> Outcome {
    pass.tracer.enter(SpanKind::Episode);
    let outcome = match workload {
        WorkloadId::SendSmall => send_episode(sizes.send_small_units, SMALL_PAYLOAD, seed, pass),
        WorkloadId::SendLarge => send_episode(sizes.send_large_units, LARGE_PAYLOAD, seed, pass),
        WorkloadId::AppsRw => apps_episode(sizes, seed, pass),
        WorkloadId::AcctSteady => steady_episode(sizes.steady_rounds, seed, pass),
        WorkloadId::AcctScale => scale_episode(sizes.scale, seed, pass),
        WorkloadId::AcctFaults => faults_episode(sizes, seed, pass),
    };
    pass.tracer.exit(SpanKind::Episode);
    outcome
}

// ---- send_small / send_large -------------------------------------------------

/// Distinct seed-generated payload bodies; message `i` carries body
/// `i % PAYLOAD_POOL` with `i` stamped over its first eight bytes.
const PAYLOAD_POOL: usize = 16;

fn send_episode(units: u32, payload_len: usize, seed: u64, pass: &mut Pass<'_>) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(seed);
    let pool: Vec<Vec<u8>> = (0..PAYLOAD_POOL)
        .map(|_| {
            let mut body = vec![0u8; payload_len];
            rng.fill(&mut body);
            body
        })
        .collect();
    // Round-robin over the ordered node pairs, starting where the seed says.
    let pairs: Vec<(u32, u32)> = (0..SEND_NODES)
        .flat_map(|a| {
            (0..SEND_NODES)
                .filter(move |&b| b != a)
                .map(move |b| (a, b))
        })
        .collect();
    let first_pair = rng.below(pairs.len() as u64) as usize;
    for body in &pool {
        out.exact.input_digest = fnv1a(out.exact.input_digest, body);
    }
    out.exact.input_digest = fnv1a(out.exact.input_digest, &(first_pair as u64).to_le_bytes());

    let constructing = Instant::now();
    let mut cluster = SendCluster::new(SEND_NODES, rng.next_u64());
    out.construct_ns
        .push(constructing.elapsed().as_nanos() as u64);
    let mut expected: Vec<VecDeque<(u32, u64)>> = vec![VecDeque::new(); SEND_NODES as usize];
    let mut buf = vec![0u8; payload_len];
    let mut delivered = 0u64;
    let rss_before = rss_bytes("VmRSS") as i64;
    let allocs_before = alloc::counted();
    let started = Instant::now();
    for unit in 0..units {
        let pin = unit + 1 == units;
        let unit_failures = pass.unit(unit, pin, |tracer| {
            let mut failures: Vec<String> = Vec::new();
            for k in 0..SENDS_PER_UNIT {
                let index = u64::from(unit) * u64::from(SENDS_PER_UNIT) + u64::from(k);
                let (from, to) = pairs[(first_pair + index as usize) % pairs.len()];
                buf.copy_from_slice(&pool[index as usize % PAYLOAD_POOL]);
                buf[..8].copy_from_slice(&index.to_le_bytes());
                match tracer.span(SpanKind::AuthSend, || cluster.auth_send(from, to, &buf)) {
                    Ok(()) => expected[to as usize].push_back((from, index)),
                    Err(e) => failures.push(format!("auth_send #{index}: {e}")),
                }
            }
            for node in 0..SEND_NODES {
                match tracer.span(SpanKind::Poll, || cluster.poll(node)) {
                    Ok(polled) => {
                        for (from, payload) in polled.iter() {
                            let ok = expected[node as usize].pop_front().is_some_and(
                                |(want_from, index)| {
                                    want_from == from
                                        && payload.len() == payload_len
                                        && payload[..8] == index.to_le_bytes()
                                        && payload[8..] == pool[index as usize % PAYLOAD_POOL][8..]
                                },
                            );
                            if ok {
                                delivered += 1;
                            } else {
                                failures.push(format!("node {node}: unexpected delivery"));
                            }
                        }
                    }
                    Err(e) => failures.push(format!("poll {node}: {e}")),
                }
            }
            failures
        });
        for note in unit_failures {
            out.fail(1, note);
        }
    }
    out.timed_ns = started.elapsed().as_nanos() as u64;
    out.allocs = alloc::counted().since(allocs_before);
    out.rss_growth_bytes = rss_bytes("VmRSS") as i64 - rss_before;

    let sent = u64::from(units) * u64::from(SENDS_PER_UNIT);
    let counters = cluster.counters();
    out.attempted = sent;
    out.polled = delivered;
    let undelivered: u64 = expected.iter().map(|q| q.len() as u64).sum();
    if undelivered > 0 {
        out.fail(
            undelivered,
            format!("{undelivered} sent messages never polled"),
        );
    }
    if counters.messages_rejected != 0 {
        out.fail(
            counters.messages_rejected,
            format!("{} messages rejected", counters.messages_rejected),
        );
    }
    if counters.messages_sent != sent {
        out.fail(
            sent.abs_diff(counters.messages_sent),
            format!("cluster counted {} sends of {sent}", counters.messages_sent),
        );
    }
    out.failed = out.failed.min(out.attempted);
    out.exact.ops = out.attempted - out.failed;
    out.exact.cluster = counters;
    out
}

// ---- apps_rw --------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppOp {
    Increment,
    Put { key: u32, value: u32 },
    Get { key: u32 },
}

const VALUE_POOL: u32 = 64;

fn key_bytes(key: u32) -> [u8; 12] {
    let mut out = *b"key-\0\0\0\0\0\0\0\0";
    out[4..8].copy_from_slice(&key.to_le_bytes());
    out
}

fn apps_episode(sizes: &Sizes, seed: u64, pass: &mut Pass<'_>) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(seed);
    let values: Vec<Vec<u8>> = (0..VALUE_POOL)
        .map(|_| {
            let mut v = vec![0u8; SMALL_PAYLOAD];
            rng.fill(&mut v);
            v
        })
        .collect();
    let keys = sizes.cr_keys.max(1);
    let mut ops: Vec<AppOp> = Vec::new();
    ops.extend((0..sizes.bft_increments).map(|_| AppOp::Increment));
    for _ in 0..sizes.cr_puts {
        let op = AppOp::Put {
            key: rng.below(u64::from(keys)) as u32,
            value: rng.below(u64::from(VALUE_POOL)) as u32,
        };
        ops.push(op);
    }
    for _ in 0..sizes.cr_gets {
        let key = rng.below(u64::from(keys)) as u32;
        ops.push(AppOp::Get { key });
    }
    rng.shuffle(&mut ops);
    for value in &values {
        out.exact.input_digest = fnv1a(out.exact.input_digest, value);
    }
    for op in &ops {
        let word = match *op {
            AppOp::Increment => [0u32, 0, 0],
            AppOp::Put { key, value } => [1, key, value],
            AppOp::Get { key } => [2, key, 0],
        };
        for w in word {
            out.exact.input_digest = fnv1a(out.exact.input_digest, &w.to_le_bytes());
        }
    }

    let constructing = Instant::now();
    let built = Bft::new(rng.next_u64()).and_then(|b| Ok((b, Chain::new(3, rng.next_u64())?)));
    out.construct_ns
        .push(constructing.elapsed().as_nanos() as u64);
    let (mut bft, mut chain) = match built {
        Ok(pair) => pair,
        Err(e) => {
            out.attempted = ops.len() as u64;
            out.fail(ops.len() as u64, format!("construction: {e}"));
            return out;
        }
    };
    // Preload (untimed): every key holds a value before the first get.
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    for key in 0..keys {
        let value = key % VALUE_POOL;
        match chain.put(&key_bytes(key), &values[value as usize]) {
            Ok(true) => {
                model.insert(key, value);
            }
            other => out.fail(0, format!("preload put {key}: {other:?}")),
        }
    }
    let bft_before = bft.counters();
    let cr_before = chain.counters();

    let mut increments = 0u64;
    let last = ops.len().saturating_sub(1);
    let allocs_before = alloc::counted();
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let result = pass.unit(i as u32, i == last, |tracer| -> Result<(), String> {
            match *op {
                AppOp::Increment => {
                    let (committed, value) =
                        tracer.span(SpanKind::BftIncrement, || bft.client_increment())?;
                    increments += 1;
                    if !committed || value != increments {
                        return Err(format!(
                            "increment {increments}: committed={committed} value={value}"
                        ));
                    }
                }
                AppOp::Put { key, value } => {
                    let acked = tracer.span(SpanKind::CrPut, || {
                        chain.put(&key_bytes(key), &values[value as usize])
                    })?;
                    if !acked {
                        return Err(format!("put {key}: not committed"));
                    }
                    model.insert(key, value);
                }
                AppOp::Get { key } => {
                    let got = tracer.span(SpanKind::CrGet, || chain.get(&key_bytes(key)))?;
                    let want = model.get(&key).map(|&v| values[v as usize].as_slice());
                    if got.as_deref() != Some(want.unwrap_or(&[])) {
                        return Err(format!("get {key}: value differs from the model"));
                    }
                }
            }
            Ok(())
        });
        out.attempted += 1;
        if let Err(note) = result {
            out.fail(1, note);
        }
    }
    out.timed_ns = started.elapsed().as_nanos() as u64;
    out.allocs = alloc::counted().since(allocs_before);

    let replicas = bft.replica_values();
    if replicas.iter().any(|&v| v != increments) {
        out.fail(
            1,
            format!("replicas at {replicas:?}, expected {increments}"),
        );
    }
    let digests = chain.store_digests();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.fail(1, "chain store digests differ".to_string());
    }
    out.failed = out.failed.min(out.attempted);
    let (bft_after, cr_after) = (bft.counters(), chain.counters());
    out.exact.ops = out.attempted - out.failed;
    out.exact.bft_ops = increments;
    out.exact.bft_msgs = bft_after.messages_sent - bft_before.messages_sent;
    out.exact.cr_ops = u64::from(sizes.cr_puts + sizes.cr_gets);
    out.exact.cr_msgs = cr_after.messages_sent - cr_before.messages_sent;
    out.exact.cluster = ClusterCounters {
        messages_sent: out.exact.bft_msgs + out.exact.cr_msgs,
        messages_rejected: bft_after.messages_rejected + cr_after.messages_rejected,
        messages_refused: 0,
        virtual_ns: (bft_after.virtual_ns - bft_before.virtual_ns)
            + (cr_after.virtual_ns - cr_before.virtual_ns),
    };
    out
}

// ---- acct_steady / acct_scale ---------------------------------------------------

/// One piggyback-pipelined round: commit, workload, audit.
fn audit_round(acct: &mut Acct, messages: u64, tracer: &mut Tracer) -> Result<(), String> {
    tracer.span(SpanKind::BeginAuditRound, || acct.begin_audit_round())?;
    tracer.span(SpanKind::RunWorkload, || acct.run_workload(messages))?;
    tracer.span(SpanKind::FinishAuditRound, || acct.finish_audit_round())
}

/// [`audit_round`] and its wall nanoseconds.
fn timed_round(acct: &mut Acct, messages: u64, tracer: &mut Tracer) -> (Result<(), String>, u64) {
    let start = Instant::now();
    let result = audit_round(acct, messages, tracer);
    (result, start.elapsed().as_nanos() as u64)
}

/// Rounds per timed unit. With checkpointing the rounds of a cycle differ
/// by design (the round that ends in a checkpoint, the one that follows a
/// witness rotation, …), and a median over single rounds sits on the
/// boundary between two kinds — it moved 11 % between identical runs. A
/// whole cycle is the same work every time.
fn rounds_per_unit(spec: &AcctSpec) -> u32 {
    spec.checkpoint_interval.map_or(1, |k| k.max(1) as u32)
}

/// Whether audit round `round` (1-based) ends in a checkpoint.
fn ends_in_checkpoint(spec: &AcctSpec, round: u32) -> bool {
    spec.checkpoint_interval
        .is_some_and(|k| k > 0 && u64::from(round) % k == 0)
}

fn add_acct(total: &mut AcctCounters, d: &AcctCounters) {
    total.app_messages += d.app_messages;
    total.control_messages += d.control_messages;
    total.control_bytes += d.control_bytes;
    total.log_entries += d.log_entries;
    total.log_app_payload_entries += d.log_app_payload_entries;
    total.log_control_digest_entries += d.log_control_digest_entries;
    total.log_audit_digest_entries += d.log_audit_digest_entries;
    total.retained_log_bytes += d.retained_log_bytes;
    total.entries_replayed += d.entries_replayed;
    total.audit_messages += d.audit_messages;
    total.challenges += d.challenges;
    total.challenge_retries += d.challenge_retries;
    total.unanswered_challenges += d.unanswered_challenges;
    total.pruned_log_entries += d.pruned_log_entries;
    total.checkpoints_completed += d.checkpoints_completed;
}

fn add_cluster(total: &mut ClusterCounters, d: &ClusterCounters) {
    total.messages_sent += d.messages_sent;
    total.messages_rejected += d.messages_rejected;
    total.messages_refused += d.messages_refused;
    total.virtual_ns += d.virtual_ns;
}

/// A fault-free deployment driven for `rounds` rounds of `messages` sends;
/// correct iff every pair ends trusted, no challenge went unanswered and
/// every send was logged as an app message. The pipeline is not drained: in
/// piggyback mode audits trail the traffic by a round, so the last round's
/// messages are still unaudited when the episode ends (at n = 1000 the
/// drain's dedicated announcements would be a sixth of the episode).
fn fault_free_episode(spec: &AcctSpec, rounds: u32, messages: u64, pass: &mut Pass<'_>) -> Outcome {
    let mut out = Outcome::default();
    let planned = u64::from(rounds) * messages;
    out.attempted = planned;
    let constructing = Instant::now();
    let mut acct = match Acct::new(spec, &[]) {
        Ok(a) => a,
        Err(e) => {
            out.fail(planned, format!("construction: {e}"));
            return out;
        }
    };
    out.construct_ns
        .push(constructing.elapsed().as_nanos() as u64);
    let rss_before = rss_bytes("VmRSS") as i64;
    let allocs_before = alloc::counted();
    let started = Instant::now();
    let per_unit = rounds_per_unit(spec);
    let units = rounds.div_ceil(per_unit);
    let mut round = 0u32;
    'units: for unit in 0..units {
        pass.open_unit(unit, unit + 1 == units);
        let mut unit_ns = 0u64;
        for _ in 0..per_unit.min(rounds - round) {
            let (result, ns) = timed_round(&mut acct, messages, pass.tracer);
            unit_ns += ns;
            round += 1;
            if ends_in_checkpoint(spec, round) {
                out.ckpt_round_ns.push(ns);
            } else {
                out.plain_round_ns.push(ns);
            }
            if let Err(e) = result {
                out.fail(planned, format!("round {round}: {e}"));
                pass.close_unit(unit_ns);
                break 'units;
            }
        }
        pass.close_unit(unit_ns);
    }
    out.timed_ns = started.elapsed().as_nanos() as u64;
    out.allocs = alloc::counted().since(allocs_before);
    out.rss_growth_bytes = rss_bytes("VmRSS") as i64 - rss_before;

    let counters = acct.counters();
    let [_, suspected, exposed] = acct.census();
    if suspected + exposed > 0 {
        out.fail(
            suspected + exposed,
            format!("fault-free run ended with {suspected} suspected, {exposed} exposed pairs"),
        );
    }
    if counters.unanswered_challenges > 0 {
        out.fail(
            counters.unanswered_challenges,
            format!("{} unanswered challenges", counters.unanswered_challenges),
        );
    }
    if counters.app_messages != planned {
        out.fail(
            planned.abs_diff(counters.app_messages),
            format!("{} app messages of {planned}", counters.app_messages),
        );
    }
    out.failed = out.failed.min(out.attempted);
    out.exact.ops = out.attempted - out.failed;
    out.exact.acct = counters;
    out.exact.cluster = acct.cluster_counters();
    out.exact.rounds = u64::from(rounds);
    out.exact.node_rounds = u64::from(spec.nodes) * out.exact.rounds;
    out.exact.nodes = u64::from(spec.nodes);
    out.exact.input_digest = fnv1a(
        fnv1a(0, &spec.seed.to_le_bytes()),
        &spec.audit_sample_seed.to_le_bytes(),
    );
    out
}

fn steady_episode(rounds: u32, seed: u64, pass: &mut Pass<'_>) -> Outcome {
    fault_free_episode(&steady_spec(seed), rounds, STEADY_MSGS_PER_ROUND, pass)
}

fn scale_episode(shape: ScaleShape, seed: u64, pass: &mut Pass<'_>) -> Outcome {
    // One message per node per round.
    fault_free_episode(
        &scale_spec(shape, seed),
        shape.rounds,
        u64::from(shape.nodes),
        pass,
    )
}

// ---- acct_faults ----------------------------------------------------------------

/// What disturbs the network or membership of a deployment, beside its
/// Byzantine nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disturbance {
    None,
    /// Each packet corrupted with this probability (rejected, re-sent).
    Corruption {
        probability: f64,
    },
    /// A correct node crash-stops after round `crash_after` and recovers
    /// after round `recover_after`.
    CrashRecover {
        node: u32,
        crash_after: u32,
        recover_after: u32,
    },
    /// A correct node is cut off for audit rounds `start..heal`.
    Partition {
        node: u32,
        start: u32,
        heal: u32,
    },
}

/// The seed-generated plan of one short-lived deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEpisode {
    pub faults: Vec<(u32, Fault)>,
    pub disturbance: Disturbance,
}

impl FaultEpisode {
    /// Deployment `index` of a cycle: one node fault always (each of the
    /// four classes once per four deployments, in seed order); every second
    /// deployment one lying witness of that node; every third a
    /// disturbance of a correct node or of the network. `witnesses_of`
    /// answers with a node's witness ids (the caller reads them from a
    /// fault-free twin, so the assignment rule is not assumed here).
    pub fn generate(
        seed: u64,
        index: u32,
        rounds: u32,
        witnesses_of: &dyn Fn(u32) -> Vec<u32>,
    ) -> Self {
        // The class order is fixed per group of four by the cycle seed, not
        // by `index`, so every group holds each class exactly once.
        let mut order = [0usize, 1, 2, 3];
        Rng::new(seed ^ u64::from(index / 4).wrapping_mul(0x9E37_79B9)).shuffle(&mut order);
        let mut rng = Rng::new(episode_seed(seed, u64::from(index) + 1));
        let node = rng.below(u64::from(FAULTS_NODES)) as u32;
        let fault = match order[index as usize % 4] {
            // Somewhere in the first rounds' entries, so the forgery has
            // most of the run to be found in.
            0 => Fault::TamperLogEntry { seq: rng.below(48) },
            1 => Fault::Equivocate,
            2 => Fault::TruncateLog { drop_tail: 4 },
            _ => Fault::SuppressAudits,
        };
        let mut faults = vec![(node, fault)];
        let witnesses = witnesses_of(node);
        if index % 2 == 1 && !witnesses.is_empty() {
            let liar = witnesses[rng.below(witnesses.len() as u64) as usize];
            let lie = [
                Fault::SilentWitness,
                Fault::WithholdGossip,
                Fault::RefuseRelay,
                Fault::ForgeEvidence,
            ][rng.below(4) as usize];
            faults.push((liar, lie));
        }
        let disturbance = if index % 3 == 2 {
            let byzantine: Vec<u32> = faults.iter().map(|&(n, _)| n).collect();
            let mut correct = rng.below(u64::from(FAULTS_NODES)) as u32;
            while byzantine.contains(&correct) {
                correct = (correct + 1) % FAULTS_NODES;
            }
            // Early enough that the run settles well before it ends.
            let at = 2 + rng.below(u64::from(rounds / 3).max(1)) as u32;
            match (index / 3) % 3 {
                0 => Disturbance::Corruption { probability: 0.1 },
                1 => Disturbance::CrashRecover {
                    node: correct,
                    crash_after: at,
                    recover_after: at + 2,
                },
                _ => Disturbance::Partition {
                    node: correct,
                    start: at,
                    heal: at + 2,
                },
            }
        } else {
            Disturbance::None
        };
        FaultEpisode {
            faults,
            disturbance,
        }
    }

    fn digest(&self, hash: u64) -> u64 {
        fnv1a(hash, format!("{self:?}").as_bytes())
    }
}

/// The classification every correct witness must reach for `fault` — the
/// one `reproduce --check` applies per fault class.
pub fn expected_class(fault: Fault) -> Class {
    match fault {
        Fault::TamperLogEntry { .. }
        | Fault::Equivocate
        | Fault::TruncateLog { .. }
        | Fault::ForgeEvidence => Class::Exposed,
        Fault::SuppressAudits => Class::Suspected,
        // Witness-side omissions are unprovable: the liar behaves
        // correctly as an auditee.
        Fault::SilentWitness | Fault::WithholdGossip | Fault::RefuseRelay => Class::Trusted,
    }
}

/// Whether every correct witness of `node` holds `want`. A forger is
/// convicted only by the witnesses its forged accusation reached, so for
/// it one convinced witness is the signal and none may merely suspect.
fn holds(acct: &Acct, node: u32, fault: Fault, want: Class) -> bool {
    let witnesses = acct.correct_witnesses_of(node);
    if witnesses.is_empty() {
        return false;
    }
    let classes = witnesses.iter().map(|&w| acct.class_of(w, node));
    if fault == Fault::ForgeEvidence {
        let classes: Vec<Class> = classes.collect();
        classes.contains(&Class::Exposed) && !classes.contains(&Class::Suspected)
    } else {
        classes.into_iter().all(|c| c == want)
    }
}

fn faults_episode(sizes: &Sizes, seed: u64, pass: &mut Pass<'_>) -> Outcome {
    let mut out = Outcome::default();
    let rounds = sizes.faults_rounds;
    let mut unit_id = 0u32;
    let per_unit = rounds_per_unit(&faults_spec(0));
    let total_units = sizes.faults_deployments * rounds.div_ceil(per_unit);
    for index in 0..sizes.faults_deployments {
        let deploy_seed = episode_seed(seed, 0x1000 + u64::from(index));
        let spec = faults_spec(deploy_seed);
        let planned = u64::from(rounds) * FAULTS_MSGS_PER_ROUND;
        // Witness sets are read from a fault-free twin, not assumed.
        let twin = match Acct::new(&spec, &[]) {
            Ok(twin) => twin,
            Err(e) => {
                out.attempted += planned;
                out.fail(planned, format!("deployment {index}: twin: {e}"));
                continue;
            }
        };
        let plan = FaultEpisode::generate(seed, index, rounds, &|n| twin.witnesses_of(n));
        drop(twin);
        out.exact.input_digest = plan.digest(out.exact.input_digest);
        let constructing = Instant::now();
        let mut acct = match Acct::new(&spec, &plan.faults) {
            Ok(a) => a,
            Err(e) => {
                out.attempted += planned;
                out.fail(planned, format!("deployment {index}: construction: {e}"));
                continue;
            }
        };
        out.construct_ns
            .push(constructing.elapsed().as_nanos() as u64);
        match plan.disturbance {
            Disturbance::Corruption { probability } => {
                acct.set_corrupting_network(probability, deploy_seed ^ 0xAD5A);
            }
            Disturbance::Partition { node, start, heal } => {
                acct.set_partition(node, u64::from(start), u64::from(heal));
            }
            _ => {}
        }
        let (faulty, fault) = plan.faults[0];
        let want = expected_class(fault);
        let mut activated_at: Option<u32> = None;
        let mut detected_at: Option<u32> = None;
        let mut aborted = false;
        let allocs_before = alloc::counted();
        let started = Instant::now();
        let mut unit_ns = 0u64;
        let mut unit_open = false;
        for round in 1..=rounds {
            if !unit_open {
                pass.open_unit(unit_id, unit_id + 1 == total_units);
                unit_open = true;
                unit_ns = 0;
            }
            // Counter reads at the round boundary are not timed.
            if activated_at.is_none() {
                let active = match fault {
                    Fault::TamperLogEntry { seq } => acct.log_len(faulty) > seq,
                    _ => true,
                };
                if active {
                    activated_at = Some(round);
                }
            }
            let (result, ns) = timed_round(&mut acct, FAULTS_MSGS_PER_ROUND, pass.tracer);
            unit_ns += ns;
            if ends_in_checkpoint(&spec, round) {
                out.ckpt_round_ns.push(ns);
            } else {
                out.plain_round_ns.push(ns);
            }
            if let Err(e) = result {
                out.fail(planned, format!("deployment {index} round {round}: {e}"));
                aborted = true;
                break;
            }
            if detected_at.is_none() && activated_at.is_some() && holds(&acct, faulty, fault, want)
            {
                detected_at = Some(round);
            }
            if let Disturbance::CrashRecover {
                node,
                crash_after,
                recover_after,
            } = plan.disturbance
            {
                if round == crash_after {
                    acct.crash_node(node);
                } else if round == recover_after {
                    let start = Instant::now();
                    let recovered = acct.recover_node(node);
                    unit_ns += start.elapsed().as_nanos() as u64;
                    if let Err(e) = recovered {
                        out.fail(planned, format!("deployment {index}: recover: {e}"));
                        aborted = true;
                        break;
                    }
                }
            }
            // The last unit stays open for the drain.
            if round % per_unit == 0 && round != rounds {
                pass.close_unit(unit_ns);
                unit_id += 1;
                unit_open = false;
            }
        }
        if !aborted {
            // One more audit round, with dedicated announcements.
            let start = Instant::now();
            let drained = pass
                .tracer
                .span(SpanKind::DrainAudits, || acct.drain_audits());
            let ns = start.elapsed().as_nanos() as u64;
            unit_ns += ns;
            out.plain_round_ns.push(ns);
            if let Err(e) = drained {
                out.fail(planned, format!("deployment {index}: drain: {e}"));
                aborted = true;
            }
        }
        if unit_open {
            pass.close_unit(unit_ns);
            unit_id += 1;
        }
        out.timed_ns += started.elapsed().as_nanos() as u64;
        let allocs = alloc::counted().since(allocs_before);
        out.allocs.allocs += allocs.allocs;
        out.allocs.bytes += allocs.bytes;

        // An op is a delivered, audited app message or a (witness, node)
        // pair's final verdict. Sends the schedule itself refuses (to a
        // crashed or partitioned node) never became ops.
        let counters = acct.counters();
        out.attempted += if aborted {
            planned
        } else {
            counters.app_messages
        };
        if !aborted {
            out.exact.ops += counters.app_messages;
            let byzantine: BTreeMap<u32, Fault> = plan.faults.iter().copied().collect();
            for node in 0..FAULTS_NODES {
                let witnesses = acct.correct_witnesses_of(node);
                out.attempted += witnesses.len() as u64;
                match byzantine.get(&node) {
                    Some(&f) => {
                        let want = expected_class(f);
                        if !holds(&acct, node, f, want) {
                            let got: Vec<&str> = witnesses
                                .iter()
                                .map(|&w| acct.class_of(w, node).label())
                                .collect();
                            out.fail(
                                witnesses.len() as u64,
                                format!(
                                    "deployment {index}: {} node {node} expected {} got {got:?} ({:?})",
                                    f.label(),
                                    want.label(),
                                    plan.disturbance
                                ),
                            );
                        }
                    }
                    None => {
                        for &w in &witnesses {
                            let got = acct.class_of(w, node);
                            if got != Class::Trusted {
                                out.fail(
                                    1,
                                    format!(
                                        "deployment {index}: correct node {node} is {} at witness {w} ({:?}, {:?})",
                                        got.label(),
                                        plan.faults,
                                        plan.disturbance
                                    ),
                                );
                            }
                        }
                    }
                }
            }
            match (activated_at, detected_at) {
                (Some(a), Some(d)) => {
                    out.exact.detect_rounds += u64::from(d - a + 1);
                    out.exact.detect_cases += 1;
                }
                // The drain round is the last chance; the verdict check
                // above has already failed the pairs if it was missed.
                _ => {
                    out.exact.detect_rounds += u64::from(rounds + 1);
                    out.exact.detect_cases += 1;
                }
            }
        }
        add_acct(&mut out.exact.acct, &counters);
        add_cluster(&mut out.exact.cluster, &acct.cluster_counters());
        out.exact.rounds += u64::from(rounds) + 1;
        out.exact.node_rounds += u64::from(FAULTS_NODES) * (u64::from(rounds) + 1);
        out.exact.nodes += u64::from(FAULTS_NODES);
    }
    out.failed = out.failed.min(out.attempted);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_outcome(workload: WorkloadId, seed: u64) -> (Outcome, Vec<u64>) {
        let mut tracer = Tracer::off();
        let mut units = Vec::new();
        let mut pass = Pass {
            tracer: &mut tracer,
            units_ns: &mut units,
        };
        let outcome = run_episode(workload, &Sizes::quick(), seed, &mut pass);
        (outcome, units)
    }

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        assert_ne!(episode_seed(1, 0), episode_seed(1, 1));
        assert_ne!(episode_seed(1, 0), episode_seed(2, 0));
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_exact_metrics() {
        for workload in WorkloadId::ALL {
            let (a, units_a) = quick_outcome(workload, 11);
            let (b, units_b) = quick_outcome(workload, 11);
            assert_eq!(a.exact, b.exact, "{}", workload.name());
            assert_eq!(a.attempted, b.attempted);
            assert_eq!(units_a.len(), units_b.len());
            assert_eq!(a.failed, 0, "{}: {:?}", workload.name(), a.notes);
            assert!(a.exact.ops > 0);
            let (c, _) = quick_outcome(workload, 12);
            assert_ne!(
                a.exact.input_digest,
                c.exact.input_digest,
                "{}: another seed must give other inputs",
                workload.name()
            );
        }
    }

    #[test]
    fn traced_and_untraced_passes_run_the_same_ops() {
        for workload in [
            WorkloadId::SendSmall,
            WorkloadId::AppsRw,
            WorkloadId::AcctSteady,
        ] {
            let (plain, _) = quick_outcome(workload, 5);
            let mut tracer = Tracer::on(1);
            let mut units = Vec::new();
            let traced = run_episode(
                workload,
                &Sizes::quick(),
                5,
                &mut Pass {
                    tracer: &mut tracer,
                    units_ns: &mut units,
                },
            );
            assert_eq!(plain.exact, traced.exact, "{}", workload.name());
            assert_eq!(tracer.aggregate(SpanKind::Unit).count, units.len() as u64);
            assert_eq!(tracer.aggregate(SpanKind::Episode).count, 1);
        }
    }

    #[test]
    fn fault_cycle_holds_every_class_and_keeps_disturbed_nodes_correct() {
        let ring = |n: u32| {
            (1..=4)
                .map(|k| (n + k) % FAULTS_NODES)
                .collect::<Vec<u32>>()
        };
        for seed in 0..20 {
            let cycle: Vec<FaultEpisode> = (0..12)
                .map(|i| FaultEpisode::generate(seed, i, 24, &ring))
                .collect();
            for group in cycle.chunks(4) {
                let mut labels: Vec<&str> = group.iter().map(|e| e.faults[0].1.label()).collect();
                labels.sort_unstable();
                assert_eq!(
                    labels,
                    [
                        "equivocate",
                        "suppress-audits",
                        "tamper-entry",
                        "truncate-log"
                    ]
                );
            }
            for (i, e) in cycle.iter().enumerate() {
                assert_eq!(e.faults.len(), 1 + i % 2);
                if let Some(&(liar, _)) = e.faults.get(1) {
                    assert!(ring(e.faults[0].0).contains(&liar));
                }
                assert_eq!(e.disturbance != Disturbance::None, i % 3 == 2);
                let byzantine: Vec<u32> = e.faults.iter().map(|&(n, _)| n).collect();
                match e.disturbance {
                    Disturbance::CrashRecover { node, .. }
                    | Disturbance::Partition { node, .. } => {
                        assert!(!byzantine.contains(&node));
                    }
                    _ => {}
                }
            }
            let again: Vec<FaultEpisode> = (0..12)
                .map(|i| FaultEpisode::generate(seed, i, 24, &ring))
                .collect();
            assert_eq!(cycle, again);
        }
    }
}
