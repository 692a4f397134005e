//! Cross-process sharding of a single measurement.
//!
//! With `Workload::shards > 1` (CLI: `run_experiments --shards N`) each
//! `measure_*` execution is partitioned across `N` **worker processes**: the
//! parent spawns `run_experiments --shard-worker` children connected by
//! length-prefixed pipes, hands each a [`MeasureKind`] + workload handshake,
//! and then drives the round protocol of [`dft_sim::shard`] — keeping the
//! crash-adversary phase and the fixed-chunk-order merge, so sharded tables
//! are **byte-identical** to `--jobs N` and serial ones.
//!
//! A worker rebuilds the experiment's nodes deterministically from the
//! workload (node construction is a pure function of `(kind, n, t, seed)`;
//! see the `build_*` functions in the crate root), keeps only its contiguous
//! node range, and serves it until shutdown.  Nothing protocol-specific
//! crosses the pipe except wire-encoded messages and outputs
//! ([`dft_sim::shard::Wire`]).
//!
//! The handshake is versioned ([`dft_sim::shard::WIRE_VERSION`]): a stale
//! worker binary is rejected loudly at spawn time, never silently
//! mis-decoded mid-run.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use dft_sim::shard::{
    self, frame, open_frame, shard_count, shard_range, ArmedPlan, ChannelTransport,
    DeadlineTransport, FaultPlan, Recovery, RecoveryStats, ShardTransport, StreamTransport,
    TransportFactory, Wire, WireStats,
};

pub use crate::MeasureKind;
use crate::{BuiltNodes, Measurement, RoundModel, Workload};

/// Handshake frame tags (distinct from the round-protocol tags of
/// `dft_sim::shard`, which start lower).
const TAG_HELLO: u8 = 200;
const TAG_HELLO_ACK: u8 = 201;

/// The `TAG_HELLO` body: which measurement to rebuild, its workload, and
/// the shard this worker serves.
#[derive(Debug, PartialEq)]
struct Hello {
    kind: u8,
    n: usize,
    t: usize,
    crashes: usize,
    seed: u64,
    shards: usize,
    index: usize,
}
dft_sim::shard::wire_struct!(Hello {
    kind: u8,
    n: usize,
    t: usize,
    crashes: usize,
    seed: u64,
    shards: usize,
    index: usize,
});

/// The `TAG_HELLO_ACK` body: the protocol round budget the worker derived
/// from its rebuilt nodes.
#[derive(Debug, PartialEq)]
struct HelloAck {
    rounds: u64,
}
dft_sim::shard::wire_struct!(HelloAck { rounds: u64 });

/// Default per-frame read deadline on worker pipes: a worker that stalls
/// longer than this trips `TimedOut` and enters the recovery ladder instead
/// of hanging the whole run.  Generous — at quick and paper scales one
/// round-phase response arrives within milliseconds to seconds; a spurious
/// trip costs only a respawn + replay, never correctness.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(120);

/// Default respawn budget per shard (`--max-worker-respawns`).
pub const DEFAULT_MAX_RESPAWNS: u32 = 2;

/// Process-wide fault/recovery configuration for sharded measurements.
#[derive(Clone, Debug)]
pub(crate) struct ShardFaults {
    plan: FaultPlan,
    max_respawns: u32,
    deadline: Duration,
}

impl Default for ShardFaults {
    fn default() -> Self {
        ShardFaults {
            plan: FaultPlan::default(),
            max_respawns: DEFAULT_MAX_RESPAWNS,
            deadline: DEFAULT_READ_DEADLINE,
        }
    }
}

static FAULT_CONFIG: OnceLock<ShardFaults> = OnceLock::new();

/// Configures fault injection and the respawn budget for every subsequent
/// sharded measurement in this process (first call wins) — the CLI's
/// `--fault-plan` / `--max-worker-respawns`.  Tests wanting isolation use
/// [`measure_sharded_faulty`] instead.
pub fn set_fault_config(plan: FaultPlan, max_respawns: u32) {
    let _ = FAULT_CONFIG.set(ShardFaults {
        plan,
        max_respawns,
        deadline: DEFAULT_READ_DEADLINE,
    });
}

fn global_faults() -> ShardFaults {
    FAULT_CONFIG.get().cloned().unwrap_or_default()
}

static TOTAL_RESPAWNS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static TOTAL_REPLAYED_FRAMES: AtomicU64 = AtomicU64::new(0);
static TOTAL_REPLAYED_ROUNDS: AtomicU64 = AtomicU64::new(0);

static TOTAL_WIRE: Mutex<WireStats> = Mutex::new(WireStats::new());

/// What one sharded execution's coordinator counted: the recovery ladder's
/// actions and the frames it exchanged.
pub(crate) struct ShardStats {
    pub(crate) recovery: RecoveryStats,
    pub(crate) wire: WireStats,
}

fn record_totals(stats: &ShardStats) {
    let recovery = stats.recovery;
    TOTAL_RESPAWNS.fetch_add(recovery.respawns, Ordering::Relaxed);
    TOTAL_FALLBACKS.fetch_add(recovery.fallbacks, Ordering::Relaxed);
    TOTAL_REPLAYED_FRAMES.fetch_add(recovery.replayed_frames, Ordering::Relaxed);
    TOTAL_REPLAYED_ROUNDS.fetch_add(recovery.replayed_rounds, Ordering::Relaxed);
    lock(&TOTAL_WIRE).absorb(&stats.wire);
}

/// Recovery actions accumulated over every sharded measurement this process
/// ran (reported in `--bench-json` and the diag stream).
pub fn recovery_totals() -> RecoveryStats {
    RecoveryStats {
        respawns: TOTAL_RESPAWNS.load(Ordering::Relaxed),
        fallbacks: TOTAL_FALLBACKS.load(Ordering::Relaxed),
        replayed_frames: TOTAL_REPLAYED_FRAMES.load(Ordering::Relaxed),
        replayed_rounds: TOTAL_REPLAYED_ROUNDS.load(Ordering::Relaxed),
    }
}

/// Frames and bytes per frame tag, accumulated over every sharded
/// measurement this process ran (printed under `--timings`; never gated).
pub fn wire_totals() -> WireStats {
    lock(&TOTAL_WIRE).clone()
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

static WORKER_BINARY: OnceLock<PathBuf> = OnceLock::new();

/// Overrides the binary spawned as `--shard-worker` (first call wins).
///
/// The default is this process's own executable, which is correct for
/// `run_experiments`; test harnesses point this at
/// `env!("CARGO_BIN_EXE_run_experiments")` because *their* executable is the
/// test runner.  The `DFT_SHARD_WORKER_BIN` environment variable has the
/// same effect without code.
pub fn set_worker_binary(path: PathBuf) {
    let _ = WORKER_BINARY.set(path);
}

fn worker_binary() -> &'static Path {
    WORKER_BINARY.get_or_init(|| {
        std::env::var_os("DFT_SHARD_WORKER_BIN")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::current_exe().expect("cannot resolve the shard worker binary path")
            })
    })
}

fn hello_frame(kind: MeasureKind, w: &Workload, index: usize) -> Vec<u8> {
    let mut out = frame(TAG_HELLO);
    Hello {
        kind: kind.code(),
        n: w.n,
        t: w.t,
        crashes: w.crashes,
        seed: w.seed,
        shards: w.shards,
        index,
    }
    .encode(&mut out);
    out
}

/// One spawned worker: the child process and its frame pipe.
struct Worker {
    child: Child,
    transport: Box<dyn ShardTransport>,
    /// The protocol round budget the worker derived from its rebuilt nodes.
    rounds: u64,
}

/// Spawns one worker process and completes the handshake over a
/// deadline-guarded pipe transport.  Used for both the initial generation
/// and every respawn, so a failure is an `io::Error` the recovery ladder
/// can climb past rather than a panic.
fn try_spawn_worker(
    kind: MeasureKind,
    w: &Workload,
    index: usize,
    deadline: Duration,
) -> io::Result<Worker> {
    let binary = worker_binary();
    let mut child = Command::new(binary)
        .arg("--shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|err| {
            io::Error::new(
                err.kind(),
                format!("cannot spawn shard worker {}: {err}", binary.display()),
            )
        })?;
    let Some(stdin) = child.stdin.take() else {
        return Err(bad_data("spawned worker has no piped stdin".to_string()));
    };
    let Some(stdout) = child.stdout.take() else {
        return Err(bad_data("spawned worker has no piped stdout".to_string()));
    };
    let mut transport: Box<dyn ShardTransport> =
        Box::new(DeadlineTransport::new(stdout, stdin, deadline));
    transport.send(&hello_frame(kind, w, index))?;
    let ack = transport.recv()?;
    let (tag, mut r) =
        open_frame(&ack).map_err(|err| bad_data(format!("malformed handshake ack: {err}")))?;
    if tag != TAG_HELLO_ACK {
        return Err(bad_data(format!("unexpected handshake ack tag {tag}")));
    }
    let HelloAck { rounds } = HelloAck::decode(&mut r)
        .map_err(|err| bad_data(format!("handshake ack round budget: {err}")))?;
    Ok(Worker {
        child,
        transport,
        rounds,
    })
}

/// The spawned children, one slot per shard.  Respawns replace the slot
/// (the previous generation is killed and waited inside the factory), so
/// reaping only ever sees each shard's final generation.
type ChildSlots = Arc<Mutex<Vec<Option<Child>>>>;

fn spawn_workers(
    kind: MeasureKind,
    w: &Workload,
    faults: &ShardFaults,
    armed: &ArmedPlan,
) -> (ChildSlots, Vec<Box<dyn ShardTransport>>, u64) {
    let count = shard_count(w.n, w.shards);
    let mut children = Vec::with_capacity(count);
    let mut transports = Vec::with_capacity(count);
    let mut rounds = None;
    for index in 0..count {
        let worker = try_spawn_worker(kind, w, index, faults.deadline)
            .unwrap_or_else(|err| panic!("shard worker {index} handshake failed: {err}"));
        if let Some(previous) = rounds {
            assert_eq!(
                previous, worker.rounds,
                "shard workers disagree on the round budget — mixed binaries?"
            );
        }
        rounds = Some(worker.rounds);
        children.push(Some(worker.child));
        transports.push(armed.wrap(index, worker.transport));
    }
    let rounds = rounds.expect("at least one worker");
    (Arc::new(Mutex::new(children)), transports, rounds)
}

/// Waits for each shard's final child generation.  `strict` additionally
/// asserts clean exits — disabled once the run recovered from a fault,
/// because a worker that really died (or was replaced and saw its pipe
/// close mid-request) legitimately exits non-zero while the run itself
/// still completed byte-identically.
fn reap(children: &ChildSlots, strict: bool) {
    for child in lock(children).iter_mut() {
        let Some(child) = child.as_mut() else {
            continue;
        };
        let status = child.wait().expect("waiting for shard worker");
        if strict {
            assert!(
                status.success(),
                "shard worker exited with {status} (its stderr above has the details)"
            );
        }
    }
}

/// Builds the respawn rung: kill + reap the shard's previous generation,
/// spawn a fresh worker, verify its round budget, and hand back its
/// transport (re-armed, so a recovered fault does not re-fire).
fn respawn_factory(
    kind: MeasureKind,
    w: &Workload,
    faults: &ShardFaults,
    armed: &ArmedPlan,
    children: &ChildSlots,
    expected_rounds: u64,
) -> TransportFactory {
    let w = *w;
    let deadline = faults.deadline;
    let armed = armed.clone();
    let children = Arc::clone(children);
    Box::new(move |index| {
        if let Some(mut old) = lock(&children).get_mut(index).and_then(Option::take) {
            let _ = old.kill();
            let _ = old.wait();
        }
        let worker = try_spawn_worker(kind, &w, index, deadline)?;
        if worker.rounds != expected_rounds {
            return Err(bad_data(format!(
                "respawned worker reports a round budget of {} (expected {expected_rounds}) — \
                 mixed binaries?",
                worker.rounds
            )));
        }
        if let Some(slot) = lock(&children).get_mut(index) {
            *slot = Some(worker.child);
        }
        Ok(armed.wrap(index, worker.transport))
    })
}

/// Builds the fallback rung: serve the dead shard's range in-process on a
/// fresh thread, over a channel transport.  No handshake ack is sent — the
/// coordinator's replay speaks only the round protocol.
fn fallback_factory(kind: MeasureKind, w: &Workload) -> TransportFactory {
    let w = *w;
    Box::new(move |index| {
        let (parent_end, mut worker_end) = ChannelTransport::pair();
        std::thread::spawn(move || {
            if let Err(err) = kind.serve(&w, index, false, &mut worker_end) {
                eprintln!("in-process shard fallback {index}: {err}");
            }
        });
        Ok(Box::new(parent_end) as Box<dyn ShardTransport>)
    })
}

/// Drives one sharded measurement: spawns the workers, arms the recovery
/// ladder, runs the model's sharded coordinator and reaps the children.
/// `_protocol` is the kind's node builder, here only to name the protocol
/// type — the parent never builds nodes.
pub(crate) fn drive<X: RoundModel<P>, P>(
    _protocol: fn(&Workload) -> BuiltNodes<P>,
    kind: MeasureKind,
    w: &Workload,
    faults: &ShardFaults,
) -> (Measurement, ShardStats) {
    let armed = faults.plan.arm();
    let (children, transports, rounds) = spawn_workers(kind, w, faults, &armed);
    let terms = kind.terms::<X, P>(w, rounds);
    let respawn = respawn_factory(kind, w, faults, &armed, &children, rounds);
    let recovery =
        Recovery::new(faults.max_respawns, respawn).with_fallback(fallback_factory(kind, w));
    let (report, stats) = X::run_sharded(w, terms, transports, recovery);
    reap(&children, !stats.recovery.any());
    (Measurement::from_report(&report), stats)
}

/// Runs one measurement partitioned across `w.shards` worker processes
/// under the process-wide fault/recovery configuration ([`set_fault_config`]).
/// Byte-identical to the local `measure_*` path for the same workload — in
/// every recovery path.
pub(crate) fn measure_sharded(kind: MeasureKind, w: &Workload) -> Measurement {
    let faults = global_faults();
    let (measurement, stats) = kind.drive(w, &faults);
    record_totals(&stats);
    measurement
}

/// Runs one sharded measurement under an explicit [`FaultPlan`] and respawn
/// budget, returning what the recovery ladder did.  The test-facing twin of
/// [`set_fault_config`]: no process-global state, safe under parallel tests.
/// `deadline` overrides the per-frame read deadline
/// ([`DEFAULT_READ_DEADLINE`] when `None`) — stall faults want it short.
pub fn measure_sharded_faulty(
    kind: MeasureKind,
    w: &Workload,
    plan: FaultPlan,
    max_respawns: u32,
    deadline: Option<Duration>,
) -> (Measurement, RecoveryStats) {
    let faults = ShardFaults {
        plan,
        max_respawns,
        deadline: deadline.unwrap_or(DEFAULT_READ_DEADLINE),
    };
    let (measurement, stats) = kind.drive(w, &faults);
    (measurement, stats.recovery)
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Serves one shard over stdin/stdout: the body of
/// `run_experiments --shard-worker`.
///
/// Reads the handshake, deterministically rebuilds the named measurement's
/// nodes, keeps this shard's node range, acknowledges with the protocol's
/// round budget, and then serves the round protocol until shutdown.
pub fn serve_stdio() -> std::process::ExitCode {
    let mut transport = StreamTransport::new(io::stdin(), io::stdout());
    match serve(&mut transport) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("run_experiments --shard-worker: {err}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn serve(transport: &mut dyn ShardTransport) -> io::Result<()> {
    let hello = transport.recv()?;
    let decode_err = |err: shard::WireError| bad_data(format!("malformed handshake: {err}"));
    let (tag, mut r) = open_frame(&hello).map_err(decode_err)?;
    if tag != TAG_HELLO {
        return Err(bad_data(format!("expected handshake, got frame tag {tag}")));
    }
    let Hello {
        kind,
        n,
        t,
        crashes,
        seed,
        shards,
        index,
    } = Hello::decode(&mut r).map_err(decode_err)?;
    let kind = MeasureKind::from_code(kind)
        .ok_or_else(|| bad_data(format!("unknown measurement kind {kind}")))?;
    if index >= shard_count(n, shards) {
        return Err(bad_data(format!(
            "shard index {index} out of range for n = {n}, shards = {shards}"
        )));
    }
    let w = Workload {
        n,
        t,
        crashes,
        seed,
        jobs: 1,
        shards,
    };
    kind.serve(&w, index, true, transport)
}

fn ack(transport: &mut dyn ShardTransport, rounds: u64) -> io::Result<()> {
    let mut out = frame(TAG_HELLO_ACK);
    HelloAck { rounds }.encode(&mut out);
    transport.send(&out)
}

/// Serves this shard's range of the deterministically rebuilt nodes.
/// `with_ack` controls whether the handshake ack precedes the round
/// protocol: worker processes ack, the in-process fallback does not (the
/// coordinator's replay log carries only round frames).
pub(crate) fn serve_chunk<X: RoundModel<P>, P>(
    built: BuiltNodes<P>,
    w: &Workload,
    index: usize,
    with_ack: bool,
    transport: &mut dyn ShardTransport,
) -> io::Result<()> {
    if with_ack {
        ack(transport, built.rounds)?;
    }
    let range = shard_range(w.n, w.shards, index);
    let chunk = built.nodes.into_iter().skip(range.start).take(range.len());
    X::serve(chunk.collect(), range.start, transport)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_kind_codes_round_trip() {
        for code in 0..12 {
            let kind = MeasureKind::from_code(code).expect("valid code");
            assert_eq!(kind.code(), code);
        }
        assert_eq!(MeasureKind::from_code(12), None);
    }

    #[test]
    fn hello_frame_parses_back() {
        let w = Workload::full_budget(60, 8, 3).with_shards(2);
        let hello = hello_frame(MeasureKind::Gossip, &w, 1);
        let (tag, mut r) = open_frame(&hello).expect("version header");
        assert_eq!(tag, TAG_HELLO);
        // The layout the handshake had when it was written field by field.
        assert_eq!(r.u8().unwrap(), MeasureKind::Gossip.code());
        assert_eq!(usize::decode(&mut r).unwrap(), 60);
        assert_eq!(usize::decode(&mut r).unwrap(), 8);
        assert_eq!(usize::decode(&mut r).unwrap(), 8, "crashes = full budget");
        assert_eq!(u64::decode(&mut r).unwrap(), 3);
        assert_eq!(usize::decode(&mut r).unwrap(), 2);
        assert_eq!(usize::decode(&mut r).unwrap(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn handshake_bodies_round_trip_and_reject_every_truncation() {
        use dft_sim::shard::{decode_error_path_violations, from_bytes, to_bytes};
        let hello = Hello {
            kind: MeasureKind::Gossip.code(),
            n: 60,
            t: 8,
            crashes: 8,
            seed: 3,
            shards: 2,
            index: 1,
        };
        assert_eq!(from_bytes::<Hello>(&to_bytes(&hello)).as_ref(), Ok(&hello));
        assert_eq!(decode_error_path_violations(&hello), Vec::<usize>::new());
        let ack = HelloAck { rounds: 12 };
        assert_eq!(to_bytes(&ack), 12u64.to_le_bytes());
        assert_eq!(from_bytes::<HelloAck>(&to_bytes(&ack)).as_ref(), Ok(&ack));
        assert_eq!(decode_error_path_violations(&ack), Vec::<usize>::new());
    }

    #[test]
    fn byzantine_kinds_run_fault_free() {
        let w = Workload::full_budget(60, 8, 3);
        for (kind, budget) in [
            (MeasureKind::AbConsensus, 0),
            (MeasureKind::ParallelDs, 0),
            (MeasureKind::Gossip, w.t),
        ] {
            let terms = kind.terms::<crate::MultiPort, dft_core::Gossip>(&w, 10);
            assert_eq!((terms.budget, terms.max_rounds), (budget, 12), "{kind:?}");
        }
        let terms = MeasureKind::LinearConsensus
            .terms::<crate::SinglePort, dft_core::LinearConsensus<bool>>(&w, 10);
        assert_eq!(terms.max_rounds, 14, "single-port slack");
    }
}
