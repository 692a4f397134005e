//! `dft-node` — one OS process per protocol node, speaking the versioned
//! wire format over real TCP sockets.
//!
//! This binary is the third execution backend for `dft-sim`'s sans-I/O
//! round cores: the same [`RoundCore`] that the in-process runners and the
//! shard workers drive is driven here by a per-node TCP event loop.  Two
//! modes:
//!
//! * `dft-node --cluster N …` — the launcher: derives the effective crash
//!   schedule from the same seeded [`RandomCrashes`] adversary the
//!   simulators use, spawns `N` copies of itself as node processes on
//!   localhost, collects their results into a decision table, runs the same
//!   workload through the serial in-process [`Runner`], and diffs the two
//!   tables byte-for-byte (exit 0 only when identical).
//! * `dft-node --me ID --peers …` — one node: builds a full TCP mesh
//!   (connect down to lower ids, accept from higher ids), then runs the
//!   lock-step round synchronizer described below.
//!
//! # Round synchronizer
//!
//! Every process executes the same loop: `begin_round` on its single-node
//! core, apply its own crash directive (every process knows the full
//! schedule, so the central crash phase of the simulators is replayed
//! identically everywhere), `deliver` through its own filter, send exactly
//! one `ROUND` frame to every peer it still owes one (a sync marker even
//! when the payload is empty), then read exactly one frame from every peer
//! it still expects one from, merge inboxes in ascending sender order, and
//! `finalize`.  A node expects a round-`r` frame from peer `p` iff `p` has
//! not announced a voluntary halt (`GOODBYE`) and `p`'s scheduled crash
//! round is absent or `>= r` — a peer crashing *at* `r` still owes its
//! final, filter-limited frame.  All sends complete before any read, so the
//! lock step cannot deadlock (frames park in kernel socket buffers).
//!
//! Exit is a half-close: shut down the write side of every link (FIN), then
//! drain reads to EOF, so a departing node can never reset a connection
//! while its last frames are still in flight.
//!
//! # Graceful degradation
//!
//! Every socket carries a read deadline ([`READ_DEADLINE`]).  A peer that
//! misses [`MAX_READ_MISSES`] consecutive deadlines on one frame — or whose
//! link reports EOF / reset / broken pipe — is **suspected**: treated
//! exactly like a peer whose schedule crashed it at the current round with
//! an empty delivery filter, so survivors keep lock step and still reach
//! the serial decision table.  The launcher's `--kill NODE@ROUND` knob
//! exercises this end to end: the victim process exits at the top of round
//! `ROUND` (worker flag `--die-at`), the survivors discover the death
//! dynamically through their links (the kill is deliberately *not* in the
//! `--schedule` they receive), and the serial comparison run adds the same
//! crash to a [`FixedCrashSchedule`] — the tables must stay byte-identical.
//! Each node reports how many peers it suspected (`suspected=` in its
//! `RESULT` line).

#![expect(
    clippy::disallowed_types,
    reason = "dft-node is where sockets exist: the TCP mesh is this binary's job, and the wall \
              clock only bounds the bind/connect retry loop, never protocol state"
)]

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use dft_baselines::FloodingConsensus;
use dft_bench::{Table, Workload};
use dft_sim::shard::{
    frame, from_bytes, open_frame, to_bytes, ShardTransport, StreamTransport, Wire, WireReader,
};
use dft_sim::{
    AdversaryView, CrashAdversary, CrashDirective, Delivered, DeliveryFilter, FixedCrashSchedule,
    NodeId, NodeSet, Participant, RandomCrashes, Round, RoundCore, Runner,
};

/// Frame tags of the node-to-node protocol (the shard protocol uses low tag
/// numbers; this range is disjoint so a misdirected frame fails loudly).
const TAG_HELLO: u8 = 110;
const TAG_ROUND: u8 = 111;
const TAG_GOODBYE: u8 = 112;

/// Per-read socket deadline.  Generous — healthy localhost frames arrive in
/// microseconds; the deadline only exists so a hung peer degrades into a
/// suspicion instead of hanging the whole cluster.
const READ_DEADLINE: Duration = Duration::from_secs(10);

/// Consecutive deadline misses on one expected frame before the peer is
/// suspected.  EOF, reset and broken pipe suspect immediately.
const MAX_READ_MISSES: u32 = 2;

/// The effective crash schedule: `(round, node, filter)` triples, already
/// passed through the engine's budget/acceptance rules by the launcher, so
/// every process can replay the central crash phase without an adversary.
type Schedule = Vec<(Round, usize, DeliveryFilter)>;

const USAGE: &str = "\
usage: dft-node --cluster N [--t T] [--crashes C] [--seed S] [--kill NODE@ROUND]
                [--out PATH] [--serial-out PATH]
       dft-node --me ID --peers ADDR,ADDR,... --t T --seed S [--schedule HEX]
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
  --seed S           seed the inputs derive from (default 7)
  --schedule HEX     hex-encoded wire bytes of the effective crash schedule
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
    seed: u64,
    schedule: Schedule,
    /// `--die-at ROUND`: exit at the top of this round.
    die_at: Option<u64>,
}

enum Mode {
    Cluster(ClusterArgs),
    Worker(Box<WorkerArgs>),
}

fn parse_count(flag: &str, value: Option<String>) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse::<usize>()
        .map_err(|_| format!("{flag} needs a non-negative integer, got `{value}`"))
}

fn parse_seed(value: Option<String>) -> Result<u64, String> {
    let value = value.ok_or("--seed needs a value")?;
    value
        .parse::<u64>()
        .map_err(|_| format!("--seed needs a non-negative integer, got `{value}`"))
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

#[expect(
    clippy::disallowed_methods,
    reason = "--schedule bytes are a bare Wire value the same binary's launcher just encoded; \
              version agreement is by construction"
)]
fn parse_args(args: Vec<String>) -> Result<Mode, String> {
    let mut cluster: Option<usize> = None;
    let mut me: Option<usize> = None;
    let mut peers: Option<String> = None;
    let mut t: usize = 2;
    let mut crashes: Option<usize> = None;
    let mut seed: u64 = 7;
    let mut schedule_hex: Option<String> = None;
    let mut kill: Option<(usize, u64)> = None;
    let mut die_at: Option<u64> = None;
    let mut out = None;
    let mut serial_out = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cluster" => cluster = Some(parse_count("--cluster", it.next())?),
            "--me" => me = Some(parse_count("--me", it.next())?),
            "--peers" => peers = Some(it.next().ok_or("--peers needs an address list")?),
            "--t" => t = parse_count("--t", it.next())?,
            "--crashes" => crashes = Some(parse_count("--crashes", it.next())?),
            "--seed" => seed = parse_seed(it.next())?,
            "--schedule" => schedule_hex = Some(it.next().ok_or("--schedule needs hex bytes")?),
            "--kill" => kill = Some(parse_kill_spec(it.next())?),
            "--die-at" => die_at = Some(parse_count("--die-at", it.next())? as u64),
            "--out" => out = Some(parse_path("--out", it.next())?),
            "--serial-out" => serial_out = Some(parse_path("--serial-out", it.next())?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    match (cluster, me) {
        (Some(_), Some(_)) => Err("--cluster and --me are mutually exclusive".to_string()),
        (Some(n), None) => {
            if n < 2 {
                return Err(format!("--cluster needs at least 2 nodes, got {n}"));
            }
            if t >= n {
                return Err(format!("--t must be < n ({n}), got {t}"));
            }
            let crashes = crashes.unwrap_or_else(|| t.min(2));
            if crashes > t {
                return Err(format!("--crashes must be <= t ({t}), got {crashes}"));
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
        (None, Some(me)) => {
            if kill.is_some() {
                return Err("--kill is a cluster-mode flag; use --die-at ROUND".to_string());
            }
            let peers = peers.ok_or("node mode needs --peers")?;
            if peers.is_empty() {
                return Err("--peers must list at least two addresses, got none".to_string());
            }
            let peers = peers
                .split(',')
                .map(|addr| {
                    addr.parse::<SocketAddr>()
                        .map_err(|_| format!("bad peer address `{addr}` (want host:port)"))
                })
                .collect::<Result<Vec<SocketAddr>, String>>()?;
            if peers.len() < 2 {
                return Err(format!(
                    "--peers must list at least two addresses, got {}",
                    peers.len()
                ));
            }
            if me >= peers.len() {
                return Err(format!(
                    "--me {me} is out of range for {} peers",
                    peers.len()
                ));
            }
            if t >= peers.len() {
                return Err(format!("--t must be < n ({}), got {t}", peers.len()));
            }
            let schedule = match schedule_hex {
                None => Vec::new(),
                Some(hex) => {
                    let bytes = hex_decode(&hex)
                        .ok_or_else(|| format!("--schedule is not hex: `{hex}`"))?;
                    from_bytes::<Schedule>(&bytes)
                        .map_err(|err| format!("--schedule does not decode: {err}"))?
                }
            };
            Ok(Mode::Worker(Box::new(WorkerArgs {
                me,
                peers,
                t,
                seed,
                schedule,
                die_at,
            })))
        }
        (None, None) => Err("pick a mode: --cluster N or --me ID".to_string()),
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(hex.get(i..i + 2)?, 16).ok())
        .collect()
}

// ---------------------------------------------------------------------------
// Shared: schedule extraction and the decision table

/// Replays the crash adversary against synthetic views and the engine's
/// acceptance rules ([`dft_sim`]'s budget `break`, out-of-range /
/// already-crashed `continue`) to obtain the *effective* schedule — exactly
/// the crashes a serial run applies.  Sound because [`RandomCrashes`] plans
/// from `(seed, round)` alone, never from the view's intents; the launcher
/// passes the result to every node process so all of them replay the same
/// central crash phase.
fn extract_schedule(n: usize, t: usize, crashes: usize, horizon: u64, seed: u64) -> Schedule {
    let mut accepted: Schedule = Vec::new();
    if crashes == 0 {
        return accepted;
    }
    let mut adversary = RandomCrashes::new(n, crashes, horizon, seed);
    let mut alive = NodeSet::full(n);
    let mut crashed = NodeSet::empty(n);
    let send_intents: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let poll_intents: Vec<Option<NodeId>> = vec![None; n];
    for r in 0..horizon {
        let round = Round::new(r);
        let directives = adversary.plan_round(&AdversaryView {
            round,
            alive: &alive,
            crashed: &crashed,
            send_intents: &send_intents,
            poll_intents: &poll_intents,
            remaining_budget: t - accepted.len(),
        });
        for directive in directives {
            if accepted.len() >= t {
                break;
            }
            let idx = directive.node.index();
            if idx >= n || crashed.contains(directive.node) {
                continue;
            }
            alive.remove(directive.node);
            crashed.insert(directive.node);
            accepted.push((round, idx, directive.deliver));
        }
    }
    accepted
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
// Node mode: the TCP event loop around one single-node RoundCore

/// One mesh link: the framed transport plus the raw socket handle kept for
/// the half-close at exit.
struct Link {
    transport: StreamTransport<TcpStream, TcpStream>,
    sock: TcpStream,
}

fn make_link(sock: TcpStream) -> Result<Link, String> {
    sock.set_nodelay(true).ok();
    // The read deadline is what turns a hung peer into a suspicion instead
    // of a hung cluster; see the module docs.
    sock.set_read_timeout(Some(READ_DEADLINE))
        .map_err(|err| format!("set read deadline: {err}"))?;
    let reader = sock
        .try_clone()
        .map_err(|err| format!("clone socket: {err}"))?;
    let writer = sock
        .try_clone()
        .map_err(|err| format!("clone socket: {err}"))?;
    Ok(Link {
        transport: StreamTransport::new(reader, writer),
        sock,
    })
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
        Duration::from_secs(10),
        Duration::from_millis(5),
        || TcpStream::connect(addr),
    )
}

/// Builds the full mesh: listen on `peers[me]`, connect down to every lower
/// id (announcing ourselves with a `HELLO` frame), accept one connection
/// from every higher id.  Connect direction is strictly downwards, so the
/// handshake cannot deadlock.
fn build_mesh(me: usize, peers: &[SocketAddr]) -> Result<Vec<Option<Link>>, String> {
    let n = peers.len();
    let own = peers
        .get(me)
        .ok_or_else(|| format!("--me {me} is out of range for {n} peers"))?;
    let listener = bind_with_retry(*own)?;
    let mut links: Vec<Option<Link>> = Vec::with_capacity(n);
    for (p, addr) in peers.iter().enumerate().take(me) {
        let mut link = make_link(connect_with_retry(*addr)?)?;
        let mut hello = frame(TAG_HELLO);
        me.encode(&mut hello);
        link.transport
            .send(&hello)
            .map_err(|err| format!("hello to node {p}: {err}"))?;
        links.push(Some(link));
    }
    links.resize_with(n, || None);
    for _ in me + 1..n {
        let (sock, _) = listener.accept().map_err(|err| format!("accept: {err}"))?;
        let mut link = make_link(sock)?;
        let buf = link
            .transport
            .recv()
            .map_err(|err| format!("read hello: {err}"))?;
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
        *slot = Some(link);
    }
    Ok(links)
}

/// What this node tracks about one peer.  Its own slot has no `link`
/// ([`build_mesh`] fills every other), so every per-peer loop passes over
/// it.
struct Peer {
    link: Option<Link>,
    /// The round the schedule crashes the peer at.
    crash_round: Option<u64>,
    goodbyed: bool,
    /// The round the peer was suspected in (deadline misses or a dead
    /// link).  From the next round on it is treated exactly like one whose
    /// schedule crashed it: no sends to it, no frames expected from it.
    suspected_at: Option<u64>,
}

impl Peer {
    /// The link a frame goes out on or is read from — unless the peer said
    /// `GOODBYE`, was suspected, or its schedule crashed it before round
    /// `crashed_before`.
    fn live_link(&mut self, crashed_before: u64) -> Option<&mut Link> {
        let gone = self.goodbyed
            || self.suspected_at.is_some()
            || self.crash_round.is_some_and(|cr| cr < crashed_before);
        self.link.as_mut().filter(|_| !gone)
    }
}

/// Reads the body of a `TAG_ROUND` frame that arrived on the link to peer
/// `p` during `round`.  In the paper's model the link *is* the sender's
/// identity, so the body is refused unless it is for this round, has no
/// trailing bytes, and every message in it names `p` as its sender — a
/// forged `from` would otherwise pass for another node's message (or, out
/// of range, index a protocol's per-sender state).
fn round_body(
    p: usize,
    round: Round,
    reader: &mut WireReader<'_>,
) -> Result<Vec<Delivered<bool>>, String> {
    let (sent_round, msgs): (Round, Vec<Delivered<bool>>) =
        Wire::decode(reader).map_err(|err| format!("bad round body from node {p}: {err}"))?;
    if !reader.is_empty() {
        return Err(format!("trailing bytes in round frame from node {p}"));
    }
    if sent_round != round {
        return Err(format!(
            "node {p} sent a round-{} frame during round {}",
            sent_round.as_u64(),
            round.as_u64()
        ));
    }
    if let Some(forged) = msgs.iter().find(|msg| msg.from.index() != p) {
        return Err(format!(
            "node {p} sent a message claiming node {} as its sender",
            forged.from.index()
        ));
    }
    Ok(msgs)
}

fn run_worker(args: &WorkerArgs) -> Result<(), String> {
    let n = args.peers.len();
    let me = args.me;
    let rounds = FloodingConsensus::total_rounds(args.t);
    let inputs = Workload {
        n,
        t: args.t,
        crashes: 0,
        seed: args.seed,
        shards: 1,
    }
    .mixed_inputs();
    let node = FloodingConsensus::for_all_nodes(n, args.t, &inputs)
        .into_iter()
        .nth(me)
        .ok_or_else(|| format!("--me {me} is out of range for {n} peers"))?;
    let mut core: RoundCore<FloodingConsensus> =
        RoundCore::new(me, vec![Participant::Honest(node)]);

    let my_crash = args
        .schedule
        .iter()
        .find(|(_, victim, _)| *victim == me)
        .map(|(round, _, filter)| (round.as_u64(), filter.clone()));
    let crash_round_of = |p: usize| {
        args.schedule
            .iter()
            .find(|(_, victim, _)| *victim == p)
            .map(|(round, _, _)| round.as_u64())
    };

    let mut peers: Vec<Peer> = build_mesh(me, &args.peers)?
        .into_iter()
        .enumerate()
        .map(|(p, link)| Peer {
            link,
            crash_round: crash_round_of(p),
            goodbyed: false,
            suspected_at: None,
        })
        .collect();
    let mut suspected = 0u64;
    let mut halted_at: Option<u64> = None;
    let mut messages = 0u64;
    let mut bits = 0u64;

    for r in 0..rounds {
        if args.die_at == Some(r) {
            // Simulated crash: stop before this round's sends, exactly like
            // a scheduled crash at `r` with an empty delivery filter.  The
            // peers were never told — they must discover it on their links.
            break;
        }
        let round = Round::new(r);
        core.begin_round(round);

        // Replay of the central crash phase: my own verdict only — peers
        // apply theirs, so the filters seen across the cluster are exactly
        // the serial engine's.
        let crash_filter = my_crash
            .as_ref()
            .filter(|(cr, _)| *cr == r)
            .map(|(_, filter)| filter);
        let crashing = crash_filter.is_some();
        let filters: Vec<(usize, DeliveryFilter)> = match crash_filter {
            Some(filter) => {
                core.set_crashed(0, round);
                vec![(me, filter.clone())]
            }
            None => Vec::new(),
        };
        core.deliver(&filters);

        // Stage this round's surviving messages per destination.
        let mut per_dest: Vec<Vec<Delivered<bool>>> = (0..n).map(|_| Vec::new()).collect();
        for (dest, msg) in core.delivered() {
            if let Some(staged) = per_dest.get_mut(*dest) {
                staged.push(msg.clone());
            }
        }

        // Send phase: one ROUND frame to every peer that still expects one
        // (a sync marker even when empty).  Peers that crashed at a round
        // <= r or said GOODBYE are gone — the serial merge drops messages
        // to them too.
        for (p, (peer, staged)) in peers.iter_mut().zip(&mut per_dest).enumerate() {
            let Some(link) = peer.live_link(r + 1) else {
                continue;
            };
            let mut buf = frame(TAG_ROUND);
            (round, std::mem::take(staged)).encode(&mut buf);
            if let Err(err) = link.transport.send(&buf) {
                // A peer that just died may already refuse writes; the read
                // phase below is what confirms the death and records the
                // suspicion.  The counters are unaffected — `deliver`
                // already accounted these sends, exactly as the serial
                // engine counts sends to crashed destinations.
                eprintln!(
                    "dft-node {me}: round {r} frame to node {p} failed ({err}); \
                     the read phase decides its fate"
                );
            }
        }

        if crashing {
            // A crashed node never receives or halts; `finalize` only
            // surfaces the counters `deliver` recorded for the filtered
            // final sends.
            let outcome = core.finalize(round);
            messages += outcome.messages;
            bits += outcome.bits;
            break;
        }

        // Read phase: exactly one frame from every peer still owing one.
        // A dead or deadline-missing link suspects the peer instead of
        // failing the node: its inbox entry stays empty — the same empty
        // delivery the serial engine produces for a crash with
        // `DeliveryFilter::None` — and it is skipped from here on.
        let mut from_peer: Vec<Vec<Delivered<bool>>> = (0..n).map(|_| Vec::new()).collect();
        for (p, (peer, inbox)) in peers.iter_mut().zip(&mut from_peer).enumerate() {
            let Some(link) = peer.live_link(r) else {
                continue;
            };
            let mut misses = 0u32;
            let buf = loop {
                match link.transport.recv() {
                    Ok(buf) => break Some(buf),
                    Err(err) => match err.kind() {
                        // Unix reports a timed-out read as WouldBlock.
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
                            misses += 1;
                            if misses >= MAX_READ_MISSES {
                                eprintln!(
                                    "dft-node {me}: node {p} missed {misses} read deadlines \
                                     in round {r}; suspecting it"
                                );
                                break None;
                            }
                        }
                        io::ErrorKind::UnexpectedEof
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::BrokenPipe => {
                            eprintln!(
                                "dft-node {me}: node {p} is gone in round {r} ({err}); \
                                 suspecting it"
                            );
                            break None;
                        }
                        _ => return Err(format!("round {r} frame from node {p}: {err}")),
                    },
                }
            };
            let Some(buf) = buf else {
                peer.suspected_at = Some(r);
                suspected += 1;
                continue;
            };
            let (tag, mut reader) =
                open_frame(&buf).map_err(|err| format!("bad frame from node {p}: {err}"))?;
            match tag {
                TAG_ROUND => *inbox = round_body(p, round, &mut reader)?,
                TAG_GOODBYE => peer.goodbyed = true,
                other => return Err(format!("unexpected tag {other} from node {p}")),
            }
        }

        // Merge in ascending sender order — the exact order the serial
        // engine's fixed-chunk merge produces.
        for (p, (own, received)) in per_dest.iter_mut().zip(&mut from_peer).enumerate() {
            for msg in std::mem::take(if p == me { own } else { received }) {
                core.accept(0, msg);
            }
        }

        let (halted, round_messages, round_bits) = {
            let outcome = core.finalize(round);
            (
                outcome.events.iter().any(|event| event.halted),
                outcome.messages,
                outcome.bits,
            )
        };
        messages += round_messages;
        bits += round_bits;
        if halted {
            core.set_halted(0);
            halted_at = Some(r);
            if r + 1 < rounds {
                // Early halt (not taken by fixed-length flooding, but the
                // synchronizer supports it): release peers from expecting
                // further frames.
                for (p, peer) in peers.iter_mut().enumerate() {
                    let Some(link) = peer.live_link(r + 1) else {
                        continue;
                    };
                    let mut buf = frame(TAG_GOODBYE);
                    round.encode(&mut buf);
                    if let Err(err) = link.transport.send(&buf) {
                        eprintln!("dft-node {me}: goodbye to node {p} failed ({err})");
                    }
                }
            }
            break;
        }
    }

    println!(
        "RESULT me={me} output={} halted={} msgs={messages} bits={bits} suspected={suspected}",
        opt_bool(core.output(0).copied()),
        opt_u64(halted_at),
    );

    // Half-close: FIN everything first, then drain to EOF.  Because every
    // process FINs before it blocks on a drain read, the drains cannot
    // deadlock, and no process can reset a socket that still carries
    // undelivered frames.
    for link in peers.iter().filter_map(|peer| peer.link.as_ref()) {
        link.sock.shutdown(Shutdown::Write).ok();
    }
    for link in peers.iter_mut().filter_map(|peer| peer.link.as_mut()) {
        while link.transport.recv().is_ok() {}
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

/// Runs the serial comparison under a [`FixedCrashSchedule`] built from the
/// effective schedule **plus** any `--kill` entry — sound because replaying
/// the extracted schedule reproduces the `RandomCrashes` run exactly (the
/// `effective_schedule_reproduces_the_random_run` test pins this), and the
/// kill is, to the protocol, one more crash with an empty delivery filter.
fn serial_decision_data(
    args: &ClusterArgs,
    horizon: u64,
    schedule: &Schedule,
    inputs: &[bool],
) -> Result<DecisionData, String> {
    let nodes = FloodingConsensus::for_all_nodes(args.n, args.t, inputs);
    let mut fixed = FixedCrashSchedule::new();
    for (round, victim, filter) in schedule {
        fixed = fixed.crash_at(
            round.as_u64(),
            CrashDirective {
                node: NodeId::new(*victim),
                deliver: filter.clone(),
            },
        );
    }
    if let Some((victim, round)) = args.kill {
        fixed = fixed.crash_at(
            round,
            CrashDirective {
                node: NodeId::new(victim),
                deliver: DeliveryFilter::None,
            },
        );
    }
    let adversary: Box<dyn CrashAdversary> = Box::new(fixed);
    let mut runner =
        Runner::with_adversary(nodes, adversary, args.t).map_err(|err| err.to_string())?;
    let report = runner.run(horizon + 2);
    Ok(DecisionData {
        n: args.n,
        t: args.t,
        crashes: args.crashes,
        seed: args.seed,
        inputs: inputs.to_vec(),
        outputs: report.outputs.clone(),
        crashed_at: report
            .crashed_at
            .iter()
            .map(|round| round.map(Round::as_u64))
            .collect(),
        halted_at: report
            .halted_at
            .iter()
            .map(|round| round.map(Round::as_u64))
            .collect(),
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
    let schedule = extract_schedule(args.n, args.t, args.crashes, horizon, args.seed);
    if let Some((victim, round)) = args.kill {
        // The kill must be a *new* death — a victim the schedule already
        // crashes would never reach its --die-at round.
        if schedule.iter().any(|(_, v, _)| *v == victim) {
            return Err(format!(
                "--kill node {victim} already crashes in the derived schedule \
                 (seed {}); pick another node or seed",
                args.seed
            ));
        }
        eprintln!("dft-node: will kill node {victim}'s process at the top of round {round}");
    }
    let inputs = Workload {
        n: args.n,
        t: args.t,
        crashes: args.crashes,
        seed: args.seed,
        shards: 1,
    }
    .mixed_inputs();

    let base =
        pick_base_port(args.n, args.seed).ok_or("no free localhost port range for the cluster")?;
    let peers: Vec<String> = (0..args.n)
        .map(|i| format!("127.0.0.1:{}", base + i as u16))
        .collect();
    let peers_arg = peers.join(",");
    let schedule_hex = hex_encode(&to_bytes(&schedule));
    let exe = std::env::current_exe().map_err(|err| format!("current_exe: {err}"))?;

    eprintln!(
        "dft-node: spawning {} node processes on 127.0.0.1:{}..{} ({} scheduled crashes)",
        args.n,
        base,
        usize::from(base) + args.n - 1,
        schedule.len()
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
            .arg("--seed")
            .arg(args.seed.to_string())
            .arg("--schedule")
            .arg(&schedule_hex);
        // Only the victim learns about the kill — its peers must discover
        // the death through their links, not through the schedule.
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

    let mut crashed_at: Vec<Option<u64>> = (0..args.n)
        .map(|i| {
            schedule
                .iter()
                .find(|(_, victim, _)| *victim == i)
                .map(|(round, _, _)| round.as_u64())
        })
        .collect();
    if let Some((victim, round)) = args.kill {
        *crashed_at
            .get_mut(victim)
            .ok_or_else(|| format!("--kill node {victim} is out of range for n = {}", args.n))? =
            Some(round);
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
    let serial_table = decision_table(&serial_decision_data(args, horizon, &schedule, &inputs)?);

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
    #![expect(
        clippy::disallowed_methods,
        reason = "the hex round trip decodes the bare schedule the way `--schedule` does"
    )]

    use super::*;

    #[test]
    fn hex_round_trips() {
        let bytes = vec![0u8, 1, 0xab, 0xff, 16];
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode(""), Some(Vec::new()));
    }

    #[test]
    fn schedule_wire_round_trips_through_hex() {
        let schedule: Schedule = vec![
            (Round::new(0), 3, DeliveryFilter::None),
            (Round::new(2), 1, DeliveryFilter::Prefix(4)),
            (Round::new(2), 4, DeliveryFilter::Only(vec![NodeId::new(0)])),
        ];
        let hex = hex_encode(&to_bytes(&schedule));
        let bytes = hex_decode(&hex).expect("valid hex");
        let decoded: Schedule = from_bytes(&bytes).expect("valid wire bytes");
        assert_eq!(decoded, schedule);
    }

    #[test]
    fn round_frames_must_name_their_link_as_the_sender() {
        let round = Round::new(4);
        let body_of = |sent: Round, from: usize| {
            let mut buf = frame(TAG_ROUND);
            (sent, vec![Delivered::new(NodeId::new(from), true)]).encode(&mut buf);
            buf
        };
        let read = |buf: &[u8]| {
            let (tag, mut reader) = open_frame(buf).expect("version header");
            assert_eq!(tag, TAG_ROUND);
            round_body(1, round, &mut reader)
        };
        assert_eq!(
            read(&body_of(round, 1)),
            Ok(vec![Delivered::new(NodeId::new(1), true)])
        );
        // Another node's identity, or one outside the system, on link 1.
        for forged in [0, 2, usize::MAX] {
            let err = read(&body_of(round, forged)).expect_err("forged sender");
            assert!(err.contains("as its sender"), "{err}");
        }
        let err = read(&body_of(Round::new(3), 1)).expect_err("wrong round");
        assert!(err.contains("round-3 frame during round 4"), "{err}");
        let mut trailing = body_of(round, 1);
        trailing.push(0);
        assert!(read(&trailing).is_err());
    }

    /// The extraction replica must agree with what a real serial run
    /// applies: same victims, same rounds.
    #[test]
    fn extracted_schedule_matches_serial_crash_bookkeeping() {
        for seed in [0u64, 7, 42, 1337] {
            let (n, t, crashes) = (9, 4, 4);
            let horizon = FloodingConsensus::total_rounds(t);
            let schedule = extract_schedule(n, t, crashes, horizon, seed);
            let inputs: Vec<bool> = (0..n)
                .map(|i| (i + seed as usize).is_multiple_of(2))
                .collect();
            let nodes = FloodingConsensus::for_all_nodes(n, t, &inputs);
            let adversary = Box::new(RandomCrashes::new(n, crashes, horizon, seed));
            let mut runner = Runner::with_adversary(nodes, adversary, t).expect("runner");
            let report = runner.run(horizon + 2);
            let mut expected: Vec<Option<u64>> = vec![None; n];
            for (round, victim, _) in &schedule {
                expected[*victim] = Some(round.as_u64());
            }
            let actual: Vec<Option<u64>> = report
                .crashed_at
                .iter()
                .map(|round| round.map(Round::as_u64))
                .collect();
            assert_eq!(actual, expected, "seed {seed}");
        }
    }

    /// Replaying the effective schedule through a [`FixedCrashSchedule`]
    /// must reproduce the RandomCrashes run exactly — this is the identity
    /// node processes rely on when they apply their own directive locally.
    #[test]
    fn effective_schedule_reproduces_the_random_run() {
        let (n, t, crashes, seed) = (7, 3, 3, 11);
        let horizon = FloodingConsensus::total_rounds(t);
        let schedule = extract_schedule(n, t, crashes, horizon, seed);
        let inputs: Vec<bool> = (0..n)
            .map(|i| (i + seed as usize).is_multiple_of(2))
            .collect();

        let mut random = Runner::with_adversary(
            FloodingConsensus::for_all_nodes(n, t, &inputs),
            Box::new(RandomCrashes::new(n, crashes, horizon, seed)),
            t,
        )
        .expect("runner");
        let random_report = random.run(horizon + 2);

        let mut fixed_schedule = FixedCrashSchedule::new();
        for (round, victim, filter) in &schedule {
            fixed_schedule = fixed_schedule.crash_at(
                round.as_u64(),
                dft_sim::CrashDirective {
                    node: NodeId::new(*victim),
                    deliver: filter.clone(),
                },
            );
        }
        let mut fixed = Runner::with_adversary(
            FloodingConsensus::for_all_nodes(n, t, &inputs),
            Box::new(fixed_schedule),
            t,
        )
        .expect("runner");
        let fixed_report = fixed.run(horizon + 2);
        assert_eq!(random_report, fixed_report);
    }

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
