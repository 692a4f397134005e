//! `dft-node` — one OS process per protocol node, speaking the versioned
//! wire format over real TCP sockets.
//!
//! Each process runs the one multi-port round loop of `dft-sim`'s
//! coordinator over a [`MeshRunner`]: its own single-node round core, with a
//! TCP link to every peer.  This binary only brings the sockets.  Two modes:
//!
//! * `dft-node --cluster N …` — the launcher: spawns `N` copies of itself as
//!   node processes on localhost, collects their results into a decision
//!   table, runs the same workload through the serial in-process [`Runner`],
//!   judges that reference run with `dft_sim::check` (exit 1 if it breaks
//!   consensus), and diffs the two tables byte-for-byte (exit 0 only when
//!   identical).
//! * `dft-node --me ID --peers …` — one node: builds a full TCP mesh
//!   (connect down to lower ids, take connections from higher ids), then
//!   runs the mesh's lock step (see `dft_sim::shard::mesh`).
//!
//! Every node runs the serial run's own adversary, [`RandomCrashes`] from
//! `--crashes` and `--seed`: it plans from the seed and the round alone, so
//! every process derives the same crashes without being sent them.
//!
//! Exit is a half-close: shut down the write side of every link (FIN), then
//! drain reads to EOF, so a departing node can never reset a connection
//! while its last frames are still in flight.
//!
//! # Graceful degradation
//!
//! Every socket carries a read deadline ([`READ_DEADLINE`]), and the mesh
//! suspects a peer that misses too many or whose link dies: from then on it
//! is treated like a peer crashed with an empty filter, so survivors keep
//! lock step and still reach the serial decision table.  The launcher's
//! `--kill NODE@ROUND` knob exercises this end to end: the victim process
//! exits at the top of round `ROUND` (node flag `--die-at`), the survivors
//! discover the death through their links (no adversary of theirs plans
//! it), and the serial comparison run adds the same crash to a
//! [`FixedCrashSchedule`] — the tables must stay byte-identical.  Each node
//! reports how many peers it suspected (`suspected=` in its `RESULT` line).

#![expect(
    clippy::disallowed_types,
    reason = "dft-node is where sockets exist: the TCP mesh is this binary's job, and the wall \
              clock only bounds the bind/connect/listen retry loops, never protocol state"
)]

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use dft_baselines::FloodingConsensus;
use dft_bench::{Table, Workload};
use dft_sim::shard::mesh::{MeshRunner, Suspicion, TAG_HELLO};
use dft_sim::shard::{frame, open_frame, read_frame, write_frame, StreamTransport, Wire};
use dft_sim::{
    check, CrashDirective, FixedCrashSchedule, NodeId, Participant, RandomCrashes, Round, Runner,
    Spec,
};

/// Per-read socket deadline.  Generous — healthy localhost frames arrive in
/// microseconds; the deadline only exists so a hung peer degrades into a
/// suspicion instead of hanging the whole cluster.
const READ_DEADLINE: Duration = Duration::from_secs(10);

/// How long a node waits for its peers to connect, either way round.
const MESH_WAIT: Duration = Duration::from_secs(10);

const USAGE: &str = "\
usage: dft-node --cluster N [--t T] [--crashes C] [--seed S] [--kill NODE@ROUND]
                [--out PATH] [--serial-out PATH]
       dft-node --me ID --peers ADDR,ADDR,... --t T --crashes C --seed S
                [--die-at ROUND]

cluster mode (launcher):
  --cluster N        node processes to spawn on localhost (N >= 2)
  --t T              fault bound, < N (default 2)
  --crashes C        crashes to inject, <= T (default min(2, T))
  --seed S           seed for inputs and the crash schedule (default 7)
  --kill NODE@ROUND  additionally kill NODE's process at the top of ROUND;
                     survivors must discover the death through their links
                     (needs crash budget: crashes + 1 <= t)
  --out PATH         also write the cluster decision table to PATH
  --serial-out PATH  also write the serial decision table to PATH

node mode (one process per node; normally spawned by the launcher):
  --me ID            this node's index into --peers
  --peers LIST       every node's host:port in node-id order (includes own)
  --t T              fault bound (default 2)
  --crashes C        crashes the seeded schedule plans, <= T (default min(2, T))
  --seed S           seed the inputs and the crash schedule derive from
                     (default 7)
  --die-at ROUND     exit cleanly at the top of ROUND, simulating a crash
                     the peers were never told about";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("dft-node: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("dft-node: {msg}");
    ExitCode::from(1)
}

// ---------------------------------------------------------------------------
// CLI parsing

struct ClusterArgs {
    n: usize,
    t: usize,
    crashes: usize,
    seed: u64,
    /// `--kill NODE@ROUND`: the victim and the round its process dies at.
    kill: Option<(usize, u64)>,
    out: Option<String>,
    serial_out: Option<String>,
}

struct WorkerArgs {
    me: usize,
    peers: Vec<SocketAddr>,
    t: usize,
    crashes: usize,
    seed: u64,
    /// `--die-at ROUND`: exit at the top of this round.
    die_at: Option<u64>,
}

enum Mode {
    Cluster(ClusterArgs),
    Worker(Box<WorkerArgs>),
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse::<T>()
        .map_err(|_| format!("{flag} needs a non-negative integer, got `{value}`"))
}

fn parse_path(flag: &str, value: Option<String>) -> Result<String, String> {
    value.ok_or_else(|| format!("{flag} needs a path"))
}

/// Parses `--kill NODE@ROUND` into its parts (range checks happen once `n`,
/// `t` and `crashes` are settled).
fn parse_kill_spec(value: Option<String>) -> Result<(usize, u64), String> {
    let value = value.ok_or("--kill needs NODE@ROUND")?;
    let (node, round) = value
        .split_once('@')
        .ok_or_else(|| format!("--kill `{value}` is missing '@' (want NODE@ROUND)"))?;
    let node = node
        .parse::<usize>()
        .map_err(|_| format!("--kill `{value}` has a non-numeric node `{node}`"))?;
    let round = round
        .parse::<u64>()
        .map_err(|_| format!("--kill `{value}` has a non-numeric round `{round}`"))?;
    Ok((node, round))
}

fn parse_args(args: Vec<String>) -> Result<Mode, String> {
    let mut cluster: Option<usize> = None;
    let mut me: Option<usize> = None;
    let mut peers: Option<String> = None;
    let mut t: usize = 2;
    let mut crashes: Option<usize> = None;
    let mut seed: u64 = 7;
    let mut kill: Option<(usize, u64)> = None;
    let mut die_at: Option<u64> = None;
    let mut out = None;
    let mut serial_out = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cluster" => cluster = Some(parse_number("--cluster", it.next())?),
            "--me" => me = Some(parse_number("--me", it.next())?),
            "--peers" => peers = Some(it.next().ok_or("--peers needs an address list")?),
            "--t" => t = parse_number("--t", it.next())?,
            "--crashes" => crashes = Some(parse_number("--crashes", it.next())?),
            "--seed" => seed = parse_number("--seed", it.next())?,
            "--kill" => kill = Some(parse_kill_spec(it.next())?),
            "--die-at" => die_at = Some(parse_number("--die-at", it.next())?),
            "--out" => out = Some(parse_path("--out", it.next())?),
            "--serial-out" => serial_out = Some(parse_path("--serial-out", it.next())?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let crashes = crashes.unwrap_or_else(|| t.min(2));
    let parse_addr = |addr: &str| {
        addr.parse::<SocketAddr>()
            .map_err(|_| format!("bad peer address `{addr}` (want host:port)"))
    };
    let peers = match (cluster, me, peers) {
        (Some(_), Some(_), _) => return Err("--cluster and --me are mutually exclusive".into()),
        (None, None, _) => return Err("pick a mode: --cluster N or --me ID".to_string()),
        (None, Some(_), None) => return Err("node mode needs --peers".to_string()),
        (None, Some(_), Some(list)) => list.split(',').map(parse_addr).collect::<Result<_, _>>()?,
        (Some(_), None, _) => Vec::new(),
    };
    let n = cluster.unwrap_or(peers.len());
    if n < 2 {
        return Err(format!("a cluster needs at least 2 nodes, got {n}"));
    }
    if t >= n {
        return Err(format!("--t must be < n ({n}), got {t}"));
    }
    if crashes > t {
        return Err(format!("--crashes must be <= t ({t}), got {crashes}"));
    }
    if let Some(me) = me {
        if kill.is_some() {
            return Err("--kill is a cluster-mode flag; use --die-at ROUND".to_string());
        }
        if me >= n {
            return Err(format!("--me {me} is out of range for {n} peers"));
        }
        let worker = WorkerArgs {
            me,
            peers,
            t,
            crashes,
            seed,
            die_at,
        };
        return Ok(Mode::Worker(Box::new(worker)));
    }
    if die_at.is_some() {
        return Err("--die-at is a node-mode flag; use --kill NODE@ROUND".to_string());
    }
    if let Some((victim, round)) = kill {
        if victim >= n {
            return Err(format!("--kill node {victim} is out of range for n = {n}"));
        }
        let horizon = FloodingConsensus::total_rounds(t);
        if round >= horizon {
            return Err(format!(
                "--kill round {round} is past the protocol's {horizon}-round horizon"
            ));
        }
        if crashes + 1 > t {
            return Err(format!(
                "--kill needs crash budget: crashes + 1 must be <= t, \
                 got crashes = {crashes}, t = {t}"
            ));
        }
    }
    Ok(Mode::Cluster(ClusterArgs {
        n,
        t,
        crashes,
        seed,
        kill,
        out,
        serial_out,
    }))
}

// ---------------------------------------------------------------------------
// Shared: the workload and the decision table

/// The inputs both the nodes and the serial run derive from the seed.
fn inputs(n: usize, t: usize, crashes: usize, seed: u64) -> Vec<bool> {
    Workload {
        n,
        t,
        crashes,
        seed,
        shards: 1,
    }
    .mixed_inputs()
}

/// Everything one decision table needs; built identically from the cluster's
/// `RESULT` lines and from a serial [`Runner`] report so the two renderings
/// can be compared byte-for-byte.
struct DecisionData {
    n: usize,
    t: usize,
    crashes: usize,
    seed: u64,
    inputs: Vec<bool>,
    outputs: Vec<Option<bool>>,
    crashed_at: Vec<Option<u64>>,
    halted_at: Vec<Option<u64>>,
    rounds: u64,
    messages: u64,
    bits: u64,
}

fn opt_bool(value: Option<bool>) -> String {
    value.map_or_else(|| "-".to_string(), |v| u8::from(v).to_string())
}

fn opt_u64(value: Option<u64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| v.to_string())
}

fn decision_table(data: &DecisionData) -> String {
    let DecisionData {
        n,
        t,
        crashes,
        seed,
        ..
    } = data;
    let mut table = Table::new(
        "EC1 cluster_flooding",
        &format!(
            "flooding consensus, n={n} t={t} crashes={crashes} seed={seed}: \
             every surviving node decides the OR of inputs that reached it"
        ),
        &["node", "input", "output", "crashed@", "halted@"],
    );
    let columns = data.inputs.iter().zip(&data.outputs);
    let columns = columns.zip(data.crashed_at.iter().zip(&data.halted_at));
    for (i, ((input, output), (crashed_at, halted_at))) in columns.enumerate() {
        table.push_row(vec![
            i.to_string(),
            u8::from(*input).to_string(),
            opt_bool(*output),
            opt_u64(*crashed_at),
            opt_u64(*halted_at),
        ]);
    }
    format!(
        "{}rounds    {}\nmessages  {}\nbits      {}\n",
        table.render(),
        data.rounds,
        data.messages,
        data.bits
    )
}

// ---------------------------------------------------------------------------
// Node mode: a MeshRunner over TCP links

/// Readies one mesh socket: no Nagle delay, blocking reads (a socket taken
/// from the non-blocking listener may inherit its mode) bounded by
/// [`READ_DEADLINE`] — what turns a hung peer into a suspicion instead of a
/// hung cluster.
fn open_link(sock: TcpStream) -> Result<TcpStream, String> {
    sock.set_nodelay(true).ok();
    sock.set_nonblocking(false)
        .and_then(|()| sock.set_read_timeout(Some(READ_DEADLINE)))
        .map_err(|err| format!("set read deadline: {err}"))?;
    Ok(sock)
}

/// Retries `op` under bounded exponential backoff (doubling from
/// `first_delay`, capped at 500 ms) until it succeeds or `total` elapses.
/// The error reports how many attempts were burned, so a log line
/// distinguishes "raced the listener once" from "nothing ever listened".
fn retry_with_backoff<T>(
    what: &str,
    total: Duration,
    first_delay: Duration,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<T, String> {
    let deadline = Instant::now() + total;
    let mut delay = first_delay;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match op() {
            Ok(value) => return Ok(value),
            Err(err) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(format!(
                        "{what}: {err} (gave up after {attempts} attempts over {total:?})"
                    ));
                }
                std::thread::sleep(delay.min(deadline - now));
                delay = (delay * 2).min(Duration::from_millis(500));
            }
        }
    }
}

fn bind_with_retry(addr: SocketAddr) -> Result<TcpListener, String> {
    retry_with_backoff(
        &format!("bind {addr}"),
        Duration::from_secs(5),
        Duration::from_millis(5),
        || TcpListener::bind(addr),
    )
}

fn connect_with_retry(addr: SocketAddr) -> Result<TcpStream, String> {
    retry_with_backoff(
        &format!("connect {addr}"),
        MESH_WAIT,
        Duration::from_millis(5),
        || TcpStream::connect(addr),
    )
}

/// Builds the full mesh: listen on `peers[me]`, connect down to every lower
/// id (announcing ourselves with a `HELLO` frame), take one connection from
/// every higher id.  Connect direction is strictly downwards, so the
/// handshake cannot deadlock.  Returns one socket per peer, in node order.
fn build_mesh(me: usize, peers: &[SocketAddr]) -> Result<Vec<TcpStream>, String> {
    let n = peers.len();
    let own = peers
        .get(me)
        .ok_or_else(|| format!("--me {me} is out of range for {n} peers"))?;
    let listener = bind_with_retry(*own)?;
    let mut links: Vec<Option<TcpStream>> = Vec::with_capacity(n);
    for (p, addr) in peers.iter().enumerate().take(me) {
        let mut sock = open_link(connect_with_retry(*addr)?)?;
        let mut hello = frame(TAG_HELLO);
        me.encode(&mut hello);
        write_frame(&mut sock, &hello).map_err(|err| format!("hello to node {p}: {err}"))?;
        links.push(Some(sock));
    }
    links.resize_with(n, || None);
    take_higher_peers(&listener, me, &mut links, MESH_WAIT)?;
    Ok(links.into_iter().flatten().collect())
}

/// Fills the slot of every node above `me` with its connection, each
/// announced by a `HELLO` frame, within `wait` in all: a peer that never
/// dials fails this node, naming who is missing, instead of hanging it.
fn take_higher_peers(
    listener: &TcpListener,
    me: usize,
    links: &mut [Option<TcpStream>],
    wait: Duration,
) -> Result<(), String> {
    listener
        .set_nonblocking(true)
        .map_err(|err| format!("listen: {err}"))?;
    let deadline = Instant::now() + wait;
    let mut incoming = listener.incoming();
    for _ in me + 1..links.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        let dialled = retry_with_backoff("listen", left, Duration::from_millis(5), || {
            incoming
                .next()
                .unwrap_or_else(|| Err(io::ErrorKind::NotConnected.into()))
        });
        let Ok(sock) = dialled else {
            let missing = links
                .iter()
                .enumerate()
                .skip(me + 1)
                .filter(|(_, slot)| slot.is_none());
            let missing: Vec<String> = missing.map(|(p, _)| p.to_string()).collect();
            let missing = missing.join(", ");
            return Err(format!("node(s) {missing} never connected within {wait:?}"));
        };
        let mut sock = open_link(sock)?;
        let buf = read_frame(&mut sock).map_err(|err| format!("read hello: {err}"))?;
        let (tag, mut reader) =
            open_frame(&buf).map_err(|err| format!("bad hello frame: {err}"))?;
        if tag != TAG_HELLO {
            return Err(format!("expected HELLO, got tag {tag}"));
        }
        let peer = usize::decode(&mut reader).map_err(|err| format!("bad hello body: {err}"))?;
        let slot = links
            .get_mut(peer)
            .filter(|_| peer > me)
            .ok_or_else(|| format!("hello from unexpected node {peer}"))?;
        if slot.is_some() {
            return Err(format!("duplicate hello from node {peer}"));
        }
        *slot = Some(sock);
    }
    Ok(())
}

fn run_worker(args: &WorkerArgs) -> Result<(), String> {
    let (n, me, t) = (args.peers.len(), args.me, args.t);
    let horizon = FloodingConsensus::total_rounds(t);
    let node = FloodingConsensus::for_all_nodes(n, t, &inputs(n, t, args.crashes, args.seed))
        .into_iter()
        .nth(me)
        .ok_or_else(|| format!("--me {me} is out of range for {n} peers"))?;
    let socks = build_mesh(me, &args.peers)?;
    let mut links = Vec::with_capacity(socks.len());
    for sock in &socks {
        let clone = || {
            sock.try_clone()
                .map_err(|err| format!("clone socket: {err}"))
        };
        links.push(Box::new(StreamTransport::new(clone()?, clone()?)) as _);
    }
    let adversary = Box::new(RandomCrashes::new(n, args.crashes, horizon, args.seed));
    let mut runner = MeshRunner::connect(Participant::Honest(node), me, links, adversary, t)
        .map_err(|err| err.to_string())?;
    // `--die-at` stops the node before that round's sends.
    let report = runner
        .run(args.die_at.unwrap_or(horizon))
        .map_err(|err| err.to_string())?;
    for Suspicion { node, round, cause } in runner.suspicions() {
        eprintln!("dft-node {me}: no round-{round} frame from node {node}: {cause}; suspecting it");
    }
    let halted = report.halted_at.get(me).copied().flatten();
    println!(
        "RESULT me={me} output={} halted={} msgs={} bits={} suspected={}",
        opt_bool(report.outputs.get(me).copied().flatten()),
        opt_u64(halted.map(Round::as_u64)),
        report.metrics.messages,
        report.metrics.bits,
        runner.suspicions().len(),
    );

    // Half-close: FIN everything first, then drain to EOF.  Because every
    // process FINs before it blocks on a drain read, the drains cannot
    // deadlock, and no process can reset a socket that still carries
    // unread frames.
    for sock in &socks {
        sock.shutdown(Shutdown::Write).ok();
    }
    for mut sock in &socks {
        io::copy(&mut sock, &mut io::sink()).ok();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Cluster mode: launcher, collector, differ

struct NodeResult {
    output: Option<bool>,
    halted_at: Option<u64>,
    messages: u64,
    bits: u64,
    /// Peers this node suspected (deadline misses or dead links); absent in
    /// RESULT lines from older binaries, which parses as 0.
    suspected: u64,
}

fn parse_result_line(me: usize, stdout: &str) -> Result<NodeResult, String> {
    let line = stdout
        .lines()
        .find_map(|line| line.strip_prefix("RESULT "))
        .ok_or_else(|| format!("node {me} printed no RESULT line"))?;
    let mut result = NodeResult {
        output: None,
        halted_at: None,
        messages: 0,
        bits: 0,
        suspected: 0,
    };
    let mut seen_me = None;
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("node {me}: bad RESULT token `{token}`"))?;
        let parsed = match (key, value) {
            ("me", _) => {
                seen_me = value.parse::<usize>().ok();
                seen_me.is_some()
            }
            ("output", "-") => true,
            ("output", _) => {
                result.output = match value {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
                result.output.is_some()
            }
            ("halted", "-") => true,
            ("halted", _) => {
                result.halted_at = value.parse::<u64>().ok();
                result.halted_at.is_some()
            }
            ("msgs", _) => value.parse::<u64>().map(|v| result.messages = v).is_ok(),
            ("bits", _) => value.parse::<u64>().map(|v| result.bits = v).is_ok(),
            ("suspected", _) => value.parse::<u64>().map(|v| result.suspected = v).is_ok(),
            _ => false,
        };
        if !parsed {
            return Err(format!("node {me}: bad RESULT token `{token}`"));
        }
    }
    if seen_me != Some(me) {
        return Err(format!("node {me}: RESULT line identifies {seen_me:?}"));
    }
    Ok(result)
}

/// Picks a contiguous localhost port range that is currently free, derived
/// deterministically from the seed so reruns collide rarely and CI logs are
/// reproducible.  The probe binds all `n` ports at once before releasing
/// them; the small bind-to-spawn race is covered by the workers' bind retry.
fn pick_base_port(n: usize, seed: u64) -> Option<u16> {
    for attempt in 0..64u64 {
        let offset = seed
            .wrapping_mul(2_654_435_761)
            .wrapping_add(attempt.wrapping_mul(653))
            % 30_000;
        let base = 20_000 + offset as u16;
        if usize::from(base) + n > usize::from(u16::MAX) {
            continue;
        }
        let held: Result<Vec<TcpListener>, _> = (0..n)
            .map(|i| TcpListener::bind(("127.0.0.1", base + i as u16)))
            .collect();
        if held.is_ok() {
            return Some(base);
        }
    }
    None
}

/// Runs the serial comparison under a [`FixedCrashSchedule`] of the
/// adversary's planned crashes **plus** any `--kill` entry, which is, to the
/// protocol, one more crash with an empty filter.
fn serial_decision_data(
    args: &ClusterArgs,
    horizon: u64,
    adversary: &RandomCrashes,
    inputs: &[bool],
) -> Result<DecisionData, String> {
    let nodes = FloodingConsensus::for_all_nodes(args.n, args.t, inputs);
    let planned = adversary.planned();
    let mut fixed = planned.fold(FixedCrashSchedule::new(), |fixed, (round, crash)| {
        fixed.crash_at(round, crash.clone())
    });
    if let Some((victim, round)) = args.kill {
        fixed = fixed.crash_at(round, CrashDirective::silent(NodeId::new(victim)));
    }
    let mut runner =
        Runner::with_adversary(nodes, Box::new(fixed), args.t).map_err(|err| err.to_string())?;
    let report = runner.run(horizon + 2);
    // A cluster that matches a wrong reference proves nothing: the serial
    // run must itself be consensus.
    check(&report, &Spec::consensus(inputs))
        .map_err(|violation| format!("the serial reference run breaks its spec: {violation}"))?;
    let as_u64 = |rounds: &[Option<Round>]| rounds.iter().map(|r| r.map(Round::as_u64)).collect();
    Ok(DecisionData {
        n: args.n,
        t: args.t,
        crashes: args.crashes,
        seed: args.seed,
        inputs: inputs.to_vec(),
        outputs: report.outputs.clone(),
        crashed_at: as_u64(&report.crashed_at),
        halted_at: as_u64(&report.halted_at),
        rounds: report.metrics.rounds,
        messages: report.metrics.messages,
        bits: report.metrics.bits,
    })
}

fn write_table(path: &str, table: &str) -> Result<(), String> {
    std::fs::write(path, table).map_err(|err| format!("write {path}: {err}"))
}

fn run_cluster(args: &ClusterArgs) -> Result<ExitCode, String> {
    let horizon = FloodingConsensus::total_rounds(args.t);
    let adversary = RandomCrashes::new(args.n, args.crashes, horizon, args.seed);
    let crash_round = |node: usize| {
        let mut planned = adversary.planned();
        planned.find_map(|(round, crash)| (crash.node.index() == node).then_some(round))
    };
    if let Some((victim, round)) = args.kill {
        // The kill must be a *new* death — a victim the schedule already
        // crashes would never reach its --die-at round.
        if crash_round(victim).is_some() {
            return Err(format!(
                "--kill node {victim} already crashes in the derived schedule \
                 (seed {}); pick another node or seed",
                args.seed
            ));
        }
        eprintln!("dft-node: will kill node {victim}'s process at the top of round {round}");
    }
    let inputs = inputs(args.n, args.t, args.crashes, args.seed);
    let base =
        pick_base_port(args.n, args.seed).ok_or("no free localhost port range for the cluster")?;
    let peers: Vec<String> = (0..args.n)
        .map(|i| format!("127.0.0.1:{}", base + i as u16))
        .collect();
    let peers_arg = peers.join(",");
    let exe = std::env::current_exe().map_err(|err| format!("current_exe: {err}"))?;

    eprintln!(
        "dft-node: spawning {} node processes on 127.0.0.1:{}..{} ({} scheduled crashes)",
        args.n,
        base,
        usize::from(base) + args.n - 1,
        adversary.planned().count()
    );
    let mut children = Vec::new();
    for i in 0..args.n {
        let mut command = Command::new(&exe);
        command
            .arg("--me")
            .arg(i.to_string())
            .arg("--peers")
            .arg(&peers_arg)
            .arg("--t")
            .arg(args.t.to_string())
            .arg("--crashes")
            .arg(args.crashes.to_string())
            .arg("--seed")
            .arg(args.seed.to_string());
        // Only the victim learns about the kill — its peers must discover
        // the death through their links, not through their adversary.
        if let Some((victim, round)) = args.kill {
            if victim == i {
                command.arg("--die-at").arg(round.to_string());
            }
        }
        let child = command
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|err| format!("spawn node {i}: {err}"))?;
        children.push(child);
    }
    let mut results = Vec::new();
    for (i, child) in children.into_iter().enumerate() {
        let output = child
            .wait_with_output()
            .map_err(|err| format!("wait for node {i}: {err}"))?;
        if !output.status.success() {
            return Err(format!("node {i} exited with {:?}", output.status.code()));
        }
        results.push(parse_result_line(
            i,
            &String::from_utf8_lossy(&output.stdout),
        )?);
    }

    let mut crashed_at: Vec<Option<u64>> = (0..args.n).map(crash_round).collect();
    if let Some((victim, round)) = args.kill {
        // In range: `parse_args` checked the victim against `n`.
        if let Some(slot) = crashed_at.get_mut(victim) {
            *slot = Some(round);
        }
    }
    let total_suspected: u64 = results.iter().map(|r| r.suspected).sum();
    if total_suspected > 0 {
        eprintln!("dft-node: {total_suspected} peer suspicion(s) recorded across the cluster");
    }
    let cluster = DecisionData {
        n: args.n,
        t: args.t,
        crashes: args.crashes,
        seed: args.seed,
        inputs: inputs.clone(),
        outputs: results.iter().map(|r| r.output).collect(),
        crashed_at,
        halted_at: results.iter().map(|r| r.halted_at).collect(),
        rounds: results
            .iter()
            .filter_map(|r| r.halted_at)
            .map(|halted| halted + 1)
            .max()
            .unwrap_or(horizon),
        messages: results.iter().map(|r| r.messages).sum(),
        bits: results.iter().map(|r| r.bits).sum(),
    };
    let cluster_table = decision_table(&cluster);
    let serial_table = decision_table(&serial_decision_data(args, horizon, &adversary, &inputs)?);

    if let Some(path) = &args.out {
        write_table(path, &cluster_table)?;
    }
    if let Some(path) = &args.serial_out {
        write_table(path, &serial_table)?;
    }
    print!("{cluster_table}");
    if cluster_table == serial_table {
        println!("cluster and serial decision tables are byte-identical");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("cluster and serial decision tables DIFFER; serial says:");
        print!("{serial_table}");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(args) {
        Ok(Mode::Cluster(cluster)) => match run_cluster(&cluster) {
            Ok(code) => code,
            Err(err) => fail(&err),
        },
        Ok(Mode::Worker(worker)) => match run_worker(&worker) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => fail(&err),
        },
        Err(err) => usage_error(&err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let parsed =
            parse_result_line(3, "RESULT me=3 output=1 halted=2 msgs=15 bits=15\n").expect("parse");
        assert_eq!(parsed.output, Some(true));
        assert_eq!(parsed.halted_at, Some(2));
        assert_eq!(parsed.messages, 15);
        assert_eq!(parsed.bits, 15);
        // RESULT lines without a suspected token (older binaries) parse as
        // "suspected nobody".
        assert_eq!(parsed.suspected, 0);

        let crashed =
            parse_result_line(0, "RESULT me=0 output=- halted=- msgs=5 bits=5\n").expect("parse");
        assert_eq!(crashed.output, None);
        assert_eq!(crashed.halted_at, None);

        let survivor = parse_result_line(
            2,
            "RESULT me=2 output=1 halted=8 msgs=40 bits=40 suspected=1\n",
        )
        .expect("parse");
        assert_eq!(survivor.suspected, 1);

        assert!(parse_result_line(1, "no result here\n").is_err());
        assert!(parse_result_line(1, "RESULT me=2 output=- halted=- msgs=0 bits=0\n").is_err());
        assert!(parse_result_line(
            1,
            "RESULT me=1 output=- halted=- msgs=0 bits=0 suspected=no\n"
        )
        .is_err());
    }

    fn cluster_of(args: &[&str]) -> Result<Mode, String> {
        parse_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn kill_specs_parse_and_validate() {
        let mode = cluster_of(&[
            "--cluster",
            "5",
            "--t",
            "3",
            "--crashes",
            "2",
            "--kill",
            "2@3",
        ])
        .expect("valid kill spec");
        match mode {
            Mode::Cluster(cluster) => assert_eq!(cluster.kill, Some((2, 3))),
            Mode::Worker(_) => panic!("parsed as worker"),
        }
        // Malformed specs.
        for bad in ["2", "x@3", "2@x", "@3", "2@", "2@3@4"] {
            assert!(
                cluster_of(&["--cluster", "5", "--t", "3", "--kill", bad]).is_err(),
                "`{bad}` should not parse"
            );
        }
        // Out-of-range node, past-horizon round, exhausted crash budget.
        assert!(cluster_of(&["--cluster", "5", "--t", "3", "--kill", "5@3"]).is_err());
        assert!(cluster_of(&["--cluster", "5", "--t", "3", "--kill", "2@999"]).is_err());
        assert!(
            cluster_of(&[
                "--cluster",
                "5",
                "--t",
                "2",
                "--crashes",
                "2",
                "--kill",
                "2@3"
            ])
            .is_err(),
            "crashes + 1 > t must be rejected"
        );
        // Mode mix-ups.
        assert!(cluster_of(&["--cluster", "5", "--die-at", "3"]).is_err());
        assert!(cluster_of(&[
            "--me",
            "0",
            "--peers",
            "127.0.0.1:9001,127.0.0.1:9002",
            "--kill",
            "1@2"
        ])
        .is_err());
    }

    #[test]
    fn retry_backoff_reports_attempts_and_recovers() {
        // Succeeds on the third attempt: the caller sees the value, not the
        // transient errors.
        let mut failures = 2;
        let value = retry_with_backoff(
            "probe",
            Duration::from_secs(5),
            Duration::from_millis(1),
            || {
                if failures > 0 {
                    failures -= 1;
                    Err(io::Error::new(io::ErrorKind::AddrInUse, "busy"))
                } else {
                    Ok(42)
                }
            },
        )
        .expect("recovers after transient failures");
        assert_eq!(value, 42);

        // Never succeeds: the error names the attempt count and the budget.
        let err = retry_with_backoff(
            "probe",
            Duration::from_millis(30),
            Duration::from_millis(4),
            || -> io::Result<()> { Err(io::Error::new(io::ErrorKind::AddrInUse, "busy")) },
        )
        .expect_err("deadline must expire");
        assert!(err.contains("probe"), "{err}");
        assert!(err.contains("attempts"), "{err}");
    }

    /// A node whose higher peers never dial gives up after its wait and
    /// names them, instead of waiting in the listen loop for ever.
    #[test]
    fn peers_that_never_connect_fail_the_node_by_name() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut links: Vec<Option<TcpStream>> = (0..4).map(|_| None).collect();
        let err = take_higher_peers(&listener, 1, &mut links, Duration::from_millis(50))
            .expect_err("nobody dials");
        assert!(err.contains("node(s) 2, 3 never connected"), "{err}");
    }

    #[test]
    fn decision_table_renders_placeholders() {
        let table = decision_table(&DecisionData {
            n: 2,
            t: 1,
            crashes: 1,
            seed: 7,
            inputs: vec![true, false],
            outputs: vec![Some(true), None],
            crashed_at: vec![None, Some(0)],
            halted_at: vec![Some(1), None],
            rounds: 2,
            messages: 6,
            bits: 6,
        });
        assert!(table.contains("EC1 cluster_flooding"));
        assert!(table.contains("rounds    2"));
        assert!(table.contains("messages  6"));
        let row: Vec<&str> = table
            .lines()
            .find(|line| line.starts_with('1'))
            .expect("row for node 1")
            .split_whitespace()
            .collect();
        assert_eq!(row, ["1", "0", "-", "0", "-"]);
    }
}
