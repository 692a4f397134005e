//! Measurement plumbing for the traced run: spans, the protocol wrapper and
//! its sampling profiler, the timing transport wrapper and the counting
//! allocator.
//!
//! Everything here wraps a *public* interface of the program under test
//! (`SyncProtocol`, `SinglePortProtocol`, `ShardTransport`, `GlobalAlloc`),
//! so the traced run needs no hook inside the program.  The untraced run
//! uses none of it except the allocator, whose counting is switched off.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dft_sim::shard::ShardTransport;
use dft_sim::{Delivered, NodeId, Outgoing, Round, SinglePortProtocol, SyncProtocol};

/// The counting global allocator behind `alloc.per_round`.
///
/// Always installed (an allocator cannot be swapped at run time), the same
/// arrangement as `run_experiments --alloc-stats`.  Counting is gated by a
/// flag that only the traced run sets, so the untraced run pays one relaxed
/// load per allocation and never writes a shared cache line — with the
/// counters always on, the three threads of `gossip_sharded` would contend
/// for it on every frame buffer.
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static COUNTING: AtomicBool = AtomicBool::new(false);
    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    impl Counting {
        fn count(size: usize) {
            if COUNTING.load(Ordering::Relaxed) {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
                BYTES.fetch_add(size as u64, Ordering::Relaxed);
            }
        }
    }

    // SAFETY: every method forwards verbatim to `System`, which upholds the
    // `GlobalAlloc` contract; the counters are relaxed atomics that never
    // influence what is returned.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::count(layout.size());
            // SAFETY: same layout contract as our own caller's.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::count(layout.size());
            // SAFETY: same layout contract as our own caller's.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` via the methods here.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            Self::count(new_size);
            // SAFETY: `ptr` came from `System`; layout/new_size forwarded.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    /// Switches counting on or off (the traced run switches it on once).
    pub fn set_counting(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// `(allocations, bytes requested)` counted so far.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

/// One span: a named interval with the span that caused it and the
/// execution it belongs to.  Times are nanoseconds since the recorder's
/// origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub exec: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store, written out once when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        exec: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            exec,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Reserves the id of a span that is still open (an execution's root),
    /// so its children can name it as their parent; [`Recorder::close`]
    /// fills in the end.
    pub fn open(&mut self, name: &'static str, exec: u32, start: Instant) -> u32 {
        self.push(name, None, exec, start, start)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end_ns = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name` below `parent`.
    pub fn total_s(&self, parent: u32, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Seconds from start to end of span `id`.
    pub fn duration_s(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }
}

/// Times phase bodies into a [`Recorder`] below one parent span — or runs
/// them bare, which is how the reference coordinators run untimed.
pub struct PhaseClock<'r> {
    target: Option<(&'r mut Recorder, u32, u32)>,
}

impl<'r> PhaseClock<'r> {
    /// A clock that records nothing and reads no time.
    pub fn off() -> Self {
        PhaseClock { target: None }
    }

    /// A clock recording children of span `parent` of execution `exec`.
    pub fn on(recorder: &'r mut Recorder, parent: u32, exec: u32) -> Self {
        PhaseClock {
            target: Some((recorder, parent, exec)),
        }
    }

    pub fn time<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        match &mut self.target {
            None => body(),
            Some((recorder, parent, exec)) => {
                let start = Instant::now();
                let value = body();
                recorder.push(name, Some(*parent), *exec, start, Instant::now());
                value
            }
        }
    }
}

/// Where the thread driving a set of [`Timed`] state machines is right now,
/// and exact counts of what passed through them.
///
/// One probe serves the state machines of one execution — or of one shard
/// worker, each of which gets its own — so every probe has a single writer
/// at a time and its counters are bumped with a plain load and store.
#[derive(Default)]
pub struct Probe {
    state: AtomicU8,
    send_calls: AtomicU64,
    msgs_sent: AtomicU64,
    inbox_msgs: AtomicU64,
}

const OUTSIDE: u8 = 0;
const IN_SEND: u8 = 1;
const IN_RECEIVE: u8 = 2;

impl Probe {
    fn bump(cell: &AtomicU64, by: u64) {
        cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    }

    fn within<T>(&self, state: u8, call: impl FnOnce() -> T) -> T {
        self.state.store(state, Ordering::Relaxed);
        let value = call();
        self.state.store(OUTSIDE, Ordering::Relaxed);
        value
    }
}

/// What a probe's state machines cost over a sampled interval.
pub struct ProbeReading {
    pub send_s: f64,
    pub receive_s: f64,
    pub send_calls: f64,
    pub msgs_sent: f64,
    pub inbox_msgs: f64,
}

/// A sampling profiler over probes: a thread that wakes at a fixed interval,
/// notes the state of each probe, and at the end turns the share of samples
/// found inside `send` / `receive` into seconds.
///
/// Clocking the calls themselves does not work where it matters: the 30 M
/// node-rounds of `crash_sparse` take about 10 ns each, a pair of clock
/// reads takes 25 ns, and clocking one call in 64 and subtracting the
/// clock's cost put `core.send_s` anywhere between 0.14 s and 0.47 s of a
/// 0.40 s phase.  Two relaxed stores per call cost a nanosecond, need no
/// correction, and a few thousand samples per execution resolve the share to
/// about a percent.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(Vec<[u64; 3]>, f64)>,
    probes: Vec<Arc<Probe>>,
}

impl Sampler {
    pub fn start(probes: &[Arc<Probe>], every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (stopped, watched) = (Arc::clone(&stop), probes.to_vec());
        let thread = std::thread::spawn(move || {
            let started = Instant::now();
            let mut tallies = vec![[0u64; 3]; watched.len()];
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                for (tally, probe) in tallies.iter_mut().zip(&watched) {
                    tally[usize::from(probe.state.load(Ordering::Relaxed))] += 1;
                }
            }
            (tallies, started.elapsed().as_secs_f64())
        });
        Sampler {
            stop,
            thread,
            probes: probes.to_vec(),
        }
    }

    /// Stops sampling and returns one reading per probe.
    pub fn finish(self) -> Vec<ProbeReading> {
        self.stop.store(true, Ordering::Relaxed);
        let (tallies, elapsed_s) = self.thread.join().expect("the sampler does not panic");
        tallies
            .iter()
            .zip(&self.probes)
            .map(|(tally, probe)| {
                let samples = tally.iter().sum::<u64>().max(1) as f64;
                let share = |state: u8| tally[usize::from(state)] as f64 / samples;
                let count = |cell: &AtomicU64| cell.load(Ordering::Relaxed) as f64;
                ProbeReading {
                    send_s: share(IN_SEND) * elapsed_s,
                    receive_s: share(IN_RECEIVE) * elapsed_s,
                    send_calls: count(&probe.send_calls),
                    msgs_sent: count(&probe.msgs_sent),
                    inbox_msgs: count(&probe.inbox_msgs),
                }
            })
            .collect()
    }
}

/// A protocol state machine that tells its [`Probe`] when the driving
/// thread is inside its `send` / `receive` (and `poll`), and counts the
/// messages going in and out.  It changes nothing the protocol sees or does.
pub struct Timed<P> {
    inner: P,
    probe: Arc<Probe>,
}

impl<P> Timed<P> {
    pub fn new(inner: P, probe: Arc<Probe>) -> Self {
        Timed { inner, probe }
    }
}

impl<P: SyncProtocol> SyncProtocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round, out: &mut Vec<Outgoing<P::Msg>>) {
        self.probe.within(IN_SEND, || self.inner.send(round, out));
        Probe::bump(&self.probe.send_calls, 1);
        Probe::bump(&self.probe.msgs_sent, out.len() as u64);
    }

    fn receive(&mut self, round: Round, inbox: &[Delivered<P::Msg>]) {
        self.probe
            .within(IN_RECEIVE, || self.inner.receive(round, inbox));
        Probe::bump(&self.probe.inbox_msgs, inbox.len() as u64);
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn has_halted(&self) -> bool {
        self.inner.has_halted()
    }
}

impl<P: SinglePortProtocol> SinglePortProtocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round) -> Option<Outgoing<P::Msg>> {
        let out = self.probe.within(IN_SEND, || self.inner.send(round));
        Probe::bump(&self.probe.send_calls, 1);
        Probe::bump(&self.probe.msgs_sent, u64::from(out.is_some()));
        out
    }

    /// The poll intent is part of the send side of a single-port round (the
    /// core collects both in `begin_round`), so it is booked there.
    fn poll(&mut self, round: Round) -> Option<NodeId> {
        self.probe.within(IN_SEND, || self.inner.poll(round))
    }

    fn receive(&mut self, round: Round, from: NodeId, msgs: &mut Vec<P::Msg>) {
        Probe::bump(&self.probe.inbox_msgs, msgs.len() as u64);
        self.probe
            .within(IN_RECEIVE, || self.inner.receive(round, from, msgs));
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn has_halted(&self) -> bool {
        self.inner.has_halted()
    }
}

/// What one end of a shard transport carried and how long its calls took.
#[derive(Default)]
pub struct TransportStats {
    pub frames: AtomicU64,
    pub bytes: AtomicU64,
    pub send_ns: AtomicU64,
    pub recv_ns: AtomicU64,
}

fn add_elapsed(cell: &AtomicU64, since: Instant) {
    cell.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// A [`ShardTransport`] that counts frames and bytes in both directions and
/// clocks its own calls.  On the coordinator's end `recv_ns` is the time the
/// coordinator waited for a worker (the worker's decode, phase body and
/// encode all happen inside it); `send_ns` is the hand-over of a frame.
pub struct TimedTransport<T> {
    inner: T,
    stats: Arc<TransportStats>,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T, stats: Arc<TransportStats>) -> Self {
        TimedTransport { inner, stats }
    }
}

impl<T: ShardTransport> ShardTransport for TimedTransport<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.send(frame);
        add_elapsed(&self.stats.send_ns, start);
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        result
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let result = self.inner.recv();
        add_elapsed(&self.stats.recv_ns, start);
        if let Ok(frame) = &result {
            self.stats.frames.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        result
    }
}
