//! `serve-read` and `serve-mutate`: open-loop traffic against an in-process
//! resident `Server` holding a frozen Lasagne(Weighted) cora model.
//!
//! The load generator is one thread driving `nproc` pipelined connections:
//! it writes each request at its due time and timestamps each response
//! line. Latency is timed from the due time, so a stall charges every
//! request queued behind it, and the generator's own lateness is reported.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lasagne_obs::TraceSink;
use lasagne_serve::{
    mutation_response, predict_response, top_k_response, Client, Engine, FrozenModel, Mutation,
    Request, Server, ServerConfig,
};
use lasagne_testkit::rng::Rng;

use crate::common::{ms_since, peak_rss_mb, timed, Outcome, Stopwatch, WorkDir};
use crate::stats::{
    fastest, fixed_tail, median, percentile, search_max_rate, summarize, windowed_quantile,
    windowed_tail, PhaseVerdict,
};
use crate::train::{self, prepare, COLD_REPS, SETUP_REPS};
use crate::Args;

/// Latency limit on the p99 of reads, from due time.
const LIMIT_US: f64 = 10_000.0;
/// Offered read rate of the reference phases, requests per second: a light
/// load, about 15 % of the median `read_max_rps` (53.6k req/s) and 12 % of
/// the median `saturation_rps` (69k req/s) of 20 serve-read runs on a
/// two-vCPU Xeon virtual machine. There the batcher holds one request at a
/// time and a read's latency is its own path: parse, engine, encode and the
/// socket and batcher hops (47 of a 49 µs round trip). Queueing is measured
/// apart from it, by the overload phases and the rate search.
const REF_READ_RATE: f64 = 8_000.0;
/// Offered write rate on serve-mutate, requests per second. A depth-2
/// toggle takes about 1.7 ms to apply (`serve.streaming.apply_us`), so the
/// writes keep the single batcher busy about 7 % of the time: enough to
/// hold up reads queued behind them, far from saturating it. A 15 s run
/// sends 480 writes, which leaves 24 beyond their p95.
const WRITE_RATE: f64 = 40.0;
/// Range of offered read rates the capacity search bisects, and its steps:
/// a final bracket of 32^(1/256), about 1.4 %, before interpolation.
const SEARCH_LO: f64 = 4_000.0;
const SEARCH_HI: f64 = 128_000.0;
const SEARCH_STEPS: usize = 8;
/// Fresh-connection phases the reference and saturation measurements are
/// each split into.
const SUB_PHASES: usize = 5;
/// Shares of `--seconds`: serve-read gives 0.5 to the reference phases,
/// 0.2 to saturation and 0.3 to the knee search; serve-mutate has no knee
/// search and gives its 0.3 to the reference, for more writes.
const SATURATION_SHARE: f64 = 0.2;
const KNEE_SHARE: f64 = 0.3;
/// Seconds of traffic before the first measured phase.
const WARMUP_S: f64 = 0.5;
/// Epochs the served model is trained for during set-up.
const SERVE_TRAIN_EPOCHS: usize = 2;
/// Depth of the serve-mutate model: shallow enough that dirty sets stay
/// local and mutations take the incremental path.
const MUTATE_DEPTH: usize = 2;
/// `k` of the `top_k` reads, and the share of reads that are `top_k`
/// rather than `predict`. No traffic trace exists to take them from; they
/// are assumptions that send most reads to the primary verb and run both
/// response encoders. Both verbs are row lookups in the propagation cache.
const TOP_K: usize = 3;
const TOP_K_SHARE: f64 = 0.2;

/// One scheduled request.
#[derive(Clone, Debug)]
struct Item {
    /// Due time, µs after the phase's start.
    due_us: f64,
    request: Request,
}

impl Item {
    fn is_write(&self) -> bool {
        matches!(
            self.request,
            Request::AddEdge { .. } | Request::RemoveEdge { .. }
        )
    }
}

/// What happened to one scheduled request.
#[derive(Clone, Debug)]
struct Done {
    /// How late the sender wrote it, µs.
    late_us: f64,
    /// Response time from due time, µs; infinite when it failed, was
    /// refused or answered wrongly.
    latency_us: f64,
    /// FNV-1a hash of the response line (0 when none arrived): answers
    /// are compared by hash so a phase's memory does not grow with the
    /// rate it offers.
    response: u64,
    /// The server answered with a typed error (`"ok":false`).
    refused: bool,
}

/// When a response line arrived, its hash, and whether it was a typed
/// error; `None` if it never came.
type Answer = Option<(Instant, u64, bool)>;

/// FNV-1a over a response line's bytes.
fn line_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Deterministic edge toggles against the served graph: each picks a
/// random pair and removes it if present, adds it otherwise, so no
/// mutation is ever refused.
struct Toggler {
    rng: Rng,
    present: BTreeSet<(usize, usize)>,
    n: usize,
}

impl Toggler {
    fn new(frozen: &FrozenModel, seed: u64) -> Result<Toggler, String> {
        let adj = &frozen
            .graph
            .as_ref()
            .ok_or("served artifact has no graph binding")?
            .adjacency;
        let mut present = BTreeSet::new();
        for u in 0..adj.rows() {
            for &v in adj.row_indices(u) {
                let v = v as usize;
                present.insert((u.min(v), u.max(v)));
            }
        }
        Ok(Toggler {
            rng: Rng::seed_from_u64(seed ^ 0x70661e),
            present,
            n: adj.rows(),
        })
    }

    fn next(&mut self) -> Request {
        loop {
            let (u, v) = (self.rng.index(self.n), self.rng.index(self.n));
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            return if self.present.remove(&key) {
                Request::RemoveEdge { u: key.0, v: key.1 }
            } else {
                self.present.insert(key);
                Request::AddEdge { u: key.0, v: key.1 }
            };
        }
    }
}

/// Seeded read traffic.
struct Reads {
    rng: Rng,
    n: usize,
}

impl Reads {
    fn next(&mut self) -> Request {
        let node = self.rng.index(self.n);
        if self.rng.range_f64(0.0, 1.0) < TOP_K_SHARE {
            Request::TopK { node, k: TOP_K }
        } else {
            Request::Predict { node }
        }
    }
}

/// A schedule of `seconds` of reads at `read_rate` and, when a toggler is
/// given, writes at [`WRITE_RATE`], both evenly spaced.
fn schedule(
    seconds: f64,
    read_rate: f64,
    reads: &mut Reads,
    writes: Option<&mut Toggler>,
) -> Vec<Item> {
    let mut items: Vec<Item> = (0..(seconds * read_rate) as usize)
        .map(|i| Item {
            due_us: i as f64 * 1e6 / read_rate,
            request: reads.next(),
        })
        .collect();
    if let Some(t) = writes {
        let period = 1e6 / WRITE_RATE;
        items.extend((0..(seconds * WRITE_RATE) as usize).map(|i| Item {
            due_us: (i as f64 + 0.5) * period,
            request: t.next(),
        }));
        items.sort_by(|a, b| a.due_us.total_cmp(&b.due_us));
    }
    items
}

/// Run one schedule open-loop over [`crate::common::nproc`] fresh
/// connections, writes on the first and reads in turn on all, from one
/// generator thread that sends each request at its due time and
/// timestamps each response line. The server answers each connection in
/// order, so responses map back to requests. The thread spins (yielding)
/// rather than sleeping or blocking: a sleeping thread on an idle virtual
/// CPU can take milliseconds to wake, which would measure the host rather
/// than the server. When `queue_max` is given (traced runs only:
/// `Server::stats` sorts the latency ring), the calling thread samples the
/// server's queue depth meanwhile.
fn open_loop(
    server: &Server,
    items: &[Item],
    queue_max: Option<&mut u64>,
) -> Result<Vec<Done>, String> {
    struct Conn {
        stream: TcpStream,
        outbox: Vec<u8>,
        inbox: Vec<u8>,
        /// Items sent on this connection and not yet answered, in order.
        waiting: std::collections::VecDeque<usize>,
    }
    let addr: SocketAddr = server.local_addr();
    let lines: Vec<String> = items.iter().map(|it| it.request.to_line()).collect();
    // Every buffer the generator fills is allocated here, up front: memory
    // a short-lived thread allocates lands in a per-thread malloc arena and
    // would make peak RSS depend on which arena each phase drew.
    let k = crate::common::nproc();
    let bytes = lines.iter().map(|l| l.len() + 1).sum::<usize>();
    let mut conns = Vec::new();
    for _ in 0..k {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        conns.push(Conn {
            stream,
            outbox: Vec::with_capacity(bytes / k + 1),
            inbox: Vec::with_capacity(1 << 16),
            waiting: std::collections::VecDeque::with_capacity(items.len() / k + 1),
        });
    }
    let mut late = Vec::with_capacity(items.len());
    let mut got: Vec<Answer> = vec![None; items.len()];
    let start = Instant::now() + Duration::from_millis(2);
    let due = |us: f64| start + Duration::from_secs_f64(us / 1e6);
    let generator = move || -> Result<(Vec<f64>, Vec<Answer>), String> {
        let (mut answered, mut reads_sent) = (0, 0);
        let mut chunk = [0u8; 64 * 1024];
        let mut next = 0;
        while answered < items.len() {
            // Queue every request that is due.
            let now = Instant::now();
            while next < items.len() && due(items[next].due_us) <= now {
                late.push(now.duration_since(due(items[next].due_us)).as_secs_f64() * 1e6);
                // Writes keep their order on one connection; reads take
                // turns on all of them.
                let k = if items[next].is_write() {
                    0
                } else {
                    reads_sent % conns.len()
                };
                reads_sent += usize::from(!items[next].is_write());
                let c = &mut conns[k];
                c.outbox.extend_from_slice(lines[next].as_bytes());
                c.outbox.push(b'\n');
                c.waiting.push_back(next);
                next += 1;
            }
            let mut idle = true;
            for c in &mut conns {
                if !c.outbox.is_empty() {
                    match c.stream.write(&c.outbox) {
                        Ok(n) => {
                            c.outbox.drain(..n);
                            idle = false;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => return Err(format!("send: {e}")),
                    }
                }
                match c.stream.read(&mut chunk) {
                    Ok(0) => return Err("server closed a connection".into()),
                    Ok(n) => {
                        let at = Instant::now();
                        c.inbox.extend_from_slice(&chunk[..n]);
                        let mut from = 0;
                        while let Some(p) = c.inbox[from..].iter().position(|&b| b == b'\n') {
                            let i = c.waiting.pop_front().ok_or("response to no request")?;
                            let line = &c.inbox[from..from + p];
                            got[i] =
                                Some((at, line_hash(line), line.starts_with(b"{\"ok\":false")));
                            answered += 1;
                            from += p + 1;
                        }
                        c.inbox.drain(..from);
                        idle = false;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
            if idle {
                std::thread::yield_now();
            }
        }
        Ok((late, got))
    };
    let (sent, received) = std::thread::scope(|s| {
        let run = s.spawn(generator);
        if let Some(max) = queue_max {
            while !run.is_finished() {
                *max = (*max).max(server.stats().queue_depth);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        run.join()
            .map_err(|_| "generator thread panicked".to_string())
    })??;
    Ok(items
        .iter()
        .zip(sent)
        .zip(received)
        .map(|((item, late_us), answer)| match answer {
            Some((at, response, refused)) => Done {
                late_us,
                latency_us: at.saturating_duration_since(due(item.due_us)).as_secs_f64() * 1e6,
                response,
                refused,
            },
            None => Done {
                late_us,
                latency_us: f64::INFINITY,
                response: 0,
                refused: false,
            },
        })
        .collect())
}

/// A local engine replaying the same requests in the same order: the
/// expected answer of every served request, bit for bit.
struct Mirror {
    engine: Engine,
    /// `(apply µs, dirty rows, full recompute)` per replayed write.
    applies: Vec<(f64, usize, bool)>,
}

impl Mirror {
    fn expected(&mut self, request: &Request) -> Result<String, String> {
        let e = |x: lasagne_serve::ServeError| x.to_string();
        Ok(match *request {
            Request::Predict { node } => {
                predict_response(&self.engine.predict(node).map_err(e)?, 1)
            }
            Request::TopK { node, k } => {
                top_k_response(node, &self.engine.top_k(node, k).map_err(e)?, 1)
            }
            Request::AddEdge { u, v } => self.apply("add_edge", Mutation::AddEdge { u, v })?,
            Request::RemoveEdge { u, v } => {
                self.apply("remove_edge", Mutation::RemoveEdge { u, v })?
            }
            ref other => return Err(format!("unexpected request {other:?}")),
        })
    }

    fn apply(&mut self, op: &str, m: Mutation) -> Result<String, String> {
        let t = Instant::now();
        let report = self.engine.apply_mutation(&m).map_err(|e| e.to_string())?;
        self.applies.push((
            t.elapsed().as_secs_f64() * 1e6,
            report.dirty_rows,
            report.full,
        ));
        Ok(mutation_response(op, &report, 1))
    }

    /// Check every answer of a phase; wrong answers become failures.
    ///
    /// Writes travel in order on one connection and reads on all of them,
    /// so a read may see any state between the writes answered before it
    /// was sent and the writes sent before it was answered. It must equal
    /// the mirror's answer in one of those states; each write's answer must
    /// equal the mirror's, applying the writes in order.
    fn check(&mut self, items: &[Item], done: &mut [Done]) -> Result<u64, String> {
        let sent = |i: usize| items[i].due_us + done[i].late_us;
        let answered = |i: usize| items[i].due_us + done[i].latency_us;
        let writes: Vec<usize> = (0..items.len()).filter(|&i| items[i].is_write()).collect();
        // For each read, the range of write counts it may have seen.
        let mut pending: Vec<(usize, usize, usize)> = (0..items.len())
            .filter(|&i| !items[i].is_write())
            .map(|r| {
                let lo = writes
                    .iter()
                    .take_while(|&&w| answered(w) < sent(r))
                    .count();
                let hi = writes
                    .iter()
                    .take_while(|&&w| sent(w) < answered(r))
                    .count();
                (r, lo, hi.max(lo))
            })
            .collect();
        let mut ok = vec![false; items.len()];
        for state in 0..=writes.len() {
            for &(r, lo, hi) in &pending {
                if lo <= state && state <= hi && !ok[r] {
                    ok[r] =
                        line_hash(self.expected(&items[r].request)?.as_bytes()) == done[r].response;
                }
            }
            pending.retain(|&(r, _, hi)| !ok[r] && hi > state);
            if let Some(&w) = writes.get(state) {
                ok[w] = line_hash(self.expected(&items[w].request)?.as_bytes()) == done[w].response;
            }
        }
        let mut wrong = 0;
        for (i, d) in done.iter_mut().enumerate() {
            if !ok[i] {
                d.latency_us = f64::INFINITY;
                wrong += 1;
            }
        }
        Ok(wrong)
    }
}

/// Reads per window of the windowed statistics (p50 and p95 per window).
const READ_WINDOW: usize = 200;
/// Percentile of all writes of the reference phases printed as
/// serve-mutate's write tail. The write count is fixed by the schedule
/// (`WRITE_RATE` × seconds), so the percentile is the same on every commit.
const WRITE_TAIL: f64 = 0.95;
/// Time windows a phase is judged in.
const WINDOWS: usize = 12;

/// The rate search's view of a phase: the share of reads within the limit
/// in each of [`WINDOWS`] equal time windows, as the median over all
/// windows and over the last half. One stall of the machine spoils one
/// window and moves neither median; a growing backlog spoils every window
/// after it starts, the last half first.
fn verdict(rate: f64, items: &[Item], done: &[Done]) -> PhaseVerdict {
    let span = items.last().map_or(0.0, |it| it.due_us) + 1.0;
    let mut hits = [0usize; WINDOWS];
    let mut totals = [0usize; WINDOWS];
    let mut last_half = Vec::new();
    for (it, d) in items.iter().zip(done).filter(|(it, _)| !it.is_write()) {
        let w = ((it.due_us / span * WINDOWS as f64) as usize).min(WINDOWS - 1);
        totals[w] += 1;
        hits[w] += usize::from(d.latency_us <= LIMIT_US);
        if w >= WINDOWS / 2 {
            last_half.push(d.latency_us);
        }
    }
    last_half.sort_by(f64::total_cmp);
    let shares: Vec<f64> = hits
        .iter()
        .zip(&totals)
        .map(|(&h, &t)| h as f64 / t.max(1) as f64)
        .collect();
    PhaseVerdict {
        rate,
        within: median(&shares),
        within_last: median(&shares[WINDOWS / 2..]),
        p99_last_us: percentile(&last_half, 0.99),
    }
}

fn latencies(items: &[Item], done: &[Done], writes: bool) -> Vec<f64> {
    items
        .iter()
        .zip(done)
        .filter(|(it, _)| it.is_write() == writes)
        .map(|(_, d)| d.latency_us)
        .collect()
}

/// Cold start: load the artifact, build the engine, start the server and
/// get the first answer over TCP, [`COLD_REPS`] times. Returns the running
/// server and the fastest cold start.
fn cold_start(path: &Path, out: &mut Outcome) -> Result<(Server, f64), String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let (mut loads, mut builds, mut starts, mut firsts, mut colds) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut server = None;
    for _ in 0..COLD_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let t0 = Stopwatch::start();
        let (frozen, load_ms) = timed(|| FrozenModel::load(path));
        let frozen = frozen.map_err(|e| format!("load: {e}"))?;
        let (engine, build_ms) = timed(|| Engine::new(frozen));
        let engine = engine.map_err(|e| format!("engine: {e}"))?;
        let (started, start_ms) = timed(|| Server::start(engine, config.clone()));
        let started = started.map_err(|e| format!("server: {e}"))?;
        let t1 = Instant::now();
        let mut client =
            Client::connect(&started.local_addr().to_string()).map_err(|e| e.to_string())?;
        let first = client
            .roundtrip_raw(&Request::Predict { node: 0 }.to_line())
            .map_err(|e| e.to_string())?;
        firsts.push(t1.elapsed().as_secs_f64() * 1e6);
        colds.push(t0.ms());
        if !first.starts_with("{\"ok\":true") {
            return Err(format!("first answer failed: {first}"));
        }
        loads.push(load_ms);
        builds.push(build_ms);
        starts.push(start_ms);
        server = Some(started);
    }
    out.set("serve.load_ms", median(&loads));
    out.set("serve.engine_build_ms", median(&builds));
    out.set("serve.server_start_ms", median(&starts));
    out.set("serve.first_answer_us", median(&firsts));
    out.set("serve.frozen_mb", train::file_mb(path)?);
    Ok((server.expect("COLD_REPS >= 1"), fastest(&colds)))
}

/// Set-up, repeated [`SETUP_REPS`] times: generate cora, train the served
/// model briefly, and export it. Afterwards, outside the timed set-ups,
/// gates frozen ≡ training eval forward on the last export.
fn setup(
    args: &Args,
    dir: &WorkDir,
    depth: usize,
    out: &mut Outcome,
) -> Result<(PathBuf, f64), String> {
    let path = dir.file("model.frozen.json");
    let (mut setups, mut gens, mut ctxs, mut freezes, mut saves) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Stopwatch::start();
        let p = prepare(args.seed);
        let (model, _, _, _) = train::fit_once(&p, depth, SERVE_TRAIN_EPOCHS, args.seed);
        let (freeze_ms, save_ms) = train::export(&model, &p.ctx, &path)?;
        setups.push(t0.ms() / 1e3);
        gens.push(p.generate_ms);
        ctxs.push(p.context_ms);
        freezes.push(freeze_ms);
        saves.push(save_ms);
        last = Some((p, model));
    }
    let (p, model) = last.expect("SETUP_REPS >= 1");
    let engine = Engine::load_path(&path).map_err(|e| e.to_string())?;
    train::gate_frozen(&model, &p.ctx, &engine, out);
    out.set("datasets.generate_ms", median(&gens));
    out.set("gnn.context_ms", median(&ctxs));
    out.set("serve.freeze_ms", median(&freezes));
    out.set("serve.save_ms", median(&saves));
    Ok((path, median(&setups)))
}

/// Per-stage costs of one read, by direct calls: parse, engine, encode,
/// and the closed-loop round trip minus those three (the hops).
fn read_stages(
    server: &Server,
    engine: &Engine,
    reads: &mut Reads,
    out: &mut Outcome,
) -> Result<(), String> {
    const N: usize = 2_000;
    let requests: Vec<Request> = (0..N).map(|_| reads.next()).collect();
    let lines: Vec<String> = requests.iter().map(Request::to_line).collect();
    let per_call = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6 / N as f64
    };
    let parse_us = per_call(&mut || {
        for l in &lines {
            std::hint::black_box(Request::parse(l).ok());
        }
    });
    let mut answers = Vec::with_capacity(N);
    let engine_us = per_call(&mut || {
        for r in &requests {
            answers.push(match *r {
                Request::TopK { node, k } => Err(engine.top_k(node, k).ok()),
                Request::Predict { node } => Ok(engine.predict(node).ok()),
                _ => unreachable!("reads only"),
            });
        }
    });
    let encode_us = per_call(&mut || {
        for (r, a) in requests.iter().zip(&answers) {
            let line = match (r, a) {
                (_, Ok(Some(p))) => predict_response(p, 1),
                (Request::TopK { node, .. }, Err(Some(ranked))) => top_k_response(*node, ranked, 1),
                _ => String::new(),
            };
            std::hint::black_box(line);
        }
    });
    let mut client =
        Client::connect(&server.local_addr().to_string()).map_err(|e| e.to_string())?;
    let mut rtts = Vec::with_capacity(N);
    for l in &lines {
        let t = Instant::now();
        std::hint::black_box(client.roundtrip_raw(l).map_err(|e| e.to_string())?);
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let rtt = median(&rtts);
    out.set("serve.parse_us", parse_us);
    out.set("serve.engine_us", engine_us);
    out.set("serve.encode_us", encode_us);
    out.set("serve.hop_us", rtt - parse_us - engine_us - encode_us);
    out.line(format!("closed-loop round trip p50 = {rtt:.1} us"));
    Ok(())
}

/// The served model's session: server, mirror and traffic sources.
struct Session {
    server: Server,
    mirror: Mirror,
    reads: Reads,
    toggler: Option<Toggler>,
    /// Every write sent so far, in order.
    writes: Vec<Request>,
}

impl Session {
    /// One checked open-loop phase of reads at `rate` (plus writes on
    /// serve-mutate).
    fn phase(
        &mut self,
        seconds: f64,
        rate: f64,
        out: &mut Outcome,
        queue_max: Option<&mut u64>,
    ) -> Result<(Vec<Item>, Vec<Done>), String> {
        let items = schedule(seconds, rate, &mut self.reads, self.toggler.as_mut());
        self.writes.extend(
            items
                .iter()
                .filter(|it| it.is_write())
                .map(|it| it.request.clone()),
        );
        let mut done = open_loop(&self.server, &items, queue_max)?;
        let refused = done.iter().filter(|d| d.refused).count() as u64;
        // Every answer that is not the mirror's fails the check: missing
        // ones, typed refusals and wrong ones alike.
        let failed = self.mirror.check(&items, &mut done)?;
        out.attempted += items.len() as u64;
        out.failed += failed;
        let mut late: Vec<f64> = done.iter().map(|d| d.late_us).collect();
        late.sort_by(f64::total_cmp);
        out.line(format!(
            "  phase {seconds:.2} s at {rate:.0} req/s: sent {}, succeeded {}, failed {}, refused {}; \
             generator late p50 {:.1} us, p99 {:.1} us, max {:.1} us",
            items.len(),
            items.len() as u64 - failed,
            failed - refused,
            refused,
            percentile(&late, 0.5),
            percentile(&late, 0.99),
            late.last().copied().unwrap_or(0.0),
        ));
        Ok((items, done))
    }
}

/// Shared body of both serving workloads.
fn run_serving(args: &Args, dir: &WorkDir, mutate: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let depth = if mutate { MUTATE_DEPTH } else { train::DEPTH };
    let (path, setup_s) = setup(args, dir, depth, &mut out)?;
    out.set("setup_s", setup_s);

    let traced_from = Instant::now();
    let sink = args.trace.then(|| TraceSink::start(false));
    let (server, cold_ms) = cold_start(&path, &mut out)?;
    out.set("cold_start_ms", cold_ms);
    let frozen = FrozenModel::load(&path).map_err(|e| e.to_string())?;
    let n = frozen.meta.num_nodes;
    let toggler = if mutate {
        Some(Toggler::new(&frozen, args.seed)?)
    } else {
        None
    };
    let mirror = Mirror {
        engine: Engine::new(frozen).map_err(|e| e.to_string())?,
        applies: Vec::new(),
    };
    let reads = Reads {
        rng: Rng::seed_from_u64(args.seed ^ 0x7ead),
        n,
    };
    let mut session = Session {
        server,
        mirror,
        reads,
        toggler,
        writes: Vec::new(),
    };

    // A short unmeasured phase first, so that connection threads, caches
    // and thread placement have settled before anything is timed.
    session.phase(WARMUP_S, REF_READ_RATE, &mut out, None)?;
    if let Some(sink) = sink {
        // Traced: one reference phase under the sink, then the per-layer
        // probes.
        let (items, done) = session.phase(args.seconds / 4.0, REF_READ_RATE, &mut out, None)?;
        let traced = summarize(&latencies(&items, &done, false))?;
        let report = sink.finish();
        train::record_kernels(&report, ms_since(traced_from), 1.0, &mut out);
        traced_serving(args, &mut session, traced.p50, &mut out)?;
    } else {
        let knee_share = if mutate { 0.0 } else { KNEE_SHARE };
        reference(
            args,
            1.0 - SATURATION_SHARE - knee_share,
            &mut session,
            mutate,
            &mut out,
        )?;
        saturation(args, &mut session, &mut out)?;
        if !mutate {
            knee(args, &mut session, &mut out)?;
        }
    }

    let stats = session.server.stats();
    out.set("serve.mean_batch", stats.mean_batch);
    out.set("serve.shed", stats.shed as f64);
    out.set("serve.expired", stats.expired as f64);
    if mutate {
        final_state_gate(&session.server, &path, &session.writes, &mut out)?;
    }
    Server::shutdown(session.server);
    out.set("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Reference phases at a fixed read rate (plus writes on serve-mutate),
/// each on fresh connections: the operation's p50 and tail. Reads are read
/// per window of 200 (see [`windowed_tail`]): the median over windows of
/// each window's p50 and of each window's p95. A virtual CPU that the host
/// preempts for milliseconds spoils the windows it falls in, and sets a
/// whole-phase p99 by itself; a median over windows moves only when most
/// windows do. Writes: the p50 and p95 of all writes.
fn reference(
    args: &Args,
    share: f64,
    session: &mut Session,
    mutate: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut reads, mut writes, mut p99s) = (vec![], vec![], vec![]);
    for _ in 0..SUB_PHASES {
        let seconds = args.seconds * share / SUB_PHASES as f64;
        let (items, done) = session.phase(seconds, REF_READ_RATE, out, None)?;
        let r = latencies(&items, &done, false);
        p99s.push(summarize(&r)?.tail);
        reads.extend(r);
        writes.extend(latencies(&items, &done, true));
    }
    let read_p50 = windowed_quantile(&reads, READ_WINDOW, 0.5, 0.5);
    let (q, read_tail) = windowed_tail(&reads, READ_WINDOW)?;
    out.line(format!(
        "reads at {REF_READ_RATE} req/s{} in {SUB_PHASES} phases (n={}): read_p50_us = {read_p50} us; \
         read_p{}_us = {read_tail} us (median over windows of {READ_WINDOW}); \
         read_p99_us = {} us (whole phase, median over phases)",
        if mutate { format!(" with writes at {WRITE_RATE} req/s") } else { String::new() },
        reads.len(),
        q * 100.0,
        median(&p99s),
    ));
    let p50 = if mutate {
        let (p50, tail) = (median(&writes), fixed_tail(&writes, WRITE_TAIL)?);
        out.line(format!(
            "write_p50_us = {p50} us, write_p{}_us = {tail} us (all {} writes)",
            WRITE_TAIL * 100.0,
            writes.len()
        ));
        p50
    } else {
        read_p50
    };
    out.set("op_p50_us", p50);
    Ok(())
}

/// Completed reads per second under overload: reads offered at
/// [`SEARCH_HI`] in short phases on fresh connections, each counting the
/// completions between its 20th and 90th percentile completion times (the
/// steady part), median over phases.
fn saturation(args: &Args, session: &mut Session, out: &mut Outcome) -> Result<(), String> {
    let mut rates = Vec::new();
    for _ in 0..SUB_PHASES {
        let seconds = args.seconds * SATURATION_SHARE / SUB_PHASES as f64;
        let (items, done) = session.phase(seconds, SEARCH_HI, out, None)?;
        let mut at: Vec<f64> = items
            .iter()
            .zip(&done)
            .filter(|(it, _)| !it.is_write())
            .map(|(it, d)| it.due_us + d.latency_us)
            .collect();
        at.sort_by(f64::total_cmp);
        let (a, b) = (percentile(&at, 0.2), percentile(&at, 0.9));
        rates.push(0.7 * at.len() as f64 / ((b - a) / 1e6));
    }
    out.line(format!(
        "saturation_rps = {} req/s (median of {SUB_PHASES} overload phases)",
        median(&rates)
    ));
    out.set("ops_per_s", median(&rates));
    Ok(())
}

/// The highest read rate meeting the latency limit (`read_max_rps`).
fn knee(args: &Args, session: &mut Session, out: &mut Outcome) -> Result<(), String> {
    let phase_s = args.seconds * KNEE_SHARE / SEARCH_STEPS as f64;
    let mut failure = None;
    let search = search_max_rate(
        SEARCH_LO,
        SEARCH_HI,
        SEARCH_STEPS,
        LIMIT_US,
        |rate| match session.phase(phase_s, rate, out, None) {
            Ok((items, done)) => verdict(rate, &items, &done),
            Err(e) => {
                failure = Some(e);
                PhaseVerdict {
                    rate,
                    within: 0.0,
                    within_last: 0.0,
                    p99_last_us: f64::INFINITY,
                }
            }
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }
    for v in &search.phases {
        out.line(format!(
            "  rate {:>8.0} req/s: share within {LIMIT_US} us, window median {:.4} (second half {:.4}); \
             second-half p99 {:.0} us",
            v.rate, v.within, v.within_last, v.p99_last_us
        ));
    }
    out.line(format!("read_max_rps = {} req/s", search.max_rate));
    Ok(())
}

/// Per-layer metrics of the serving workloads' traced run, after the
/// traced reference phase whose read p50 is `traced_p50`.
fn traced_serving(
    args: &Args,
    session: &mut Session,
    traced_p50: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // The same reference phase untraced: tracing's overhead on read p50,
    // and the read side of the traffic.
    let (items, done) = session.phase(args.seconds / 4.0, REF_READ_RATE, out, None)?;
    let plain = summarize(&latencies(&items, &done, false))?;
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_p50 - plain.p50) / plain.p50,
    );
    out.set("serve.read_p50_us", plain.p50);
    out.set("serve.read_p99_us", plain.tail);
    let mut late: Vec<f64> = done.iter().map(|d| d.late_us).collect();
    late.sort_by(f64::total_cmp);
    out.set("serve.generator_late_p99_us", percentile(&late, 0.99));
    // Reads that were due while a write was outstanding.
    let mut outstanding: Vec<(f64, f64)> = Vec::new();
    let mut behind = Vec::new();
    for (it, d) in items.iter().zip(&done) {
        if it.is_write() {
            outstanding.push((it.due_us, it.due_us + d.latency_us));
        } else if outstanding
            .iter()
            .any(|&(from, to)| from <= it.due_us && it.due_us < to)
        {
            behind.push(d.latency_us);
        }
    }
    if let Ok(b) = summarize(&behind) {
        out.line(format!(
            "reads due behind an outstanding write: n={} p{} = {:.1} us",
            b.n,
            b.tail_q * 100.0,
            b.tail
        ));
        out.set("serve.read_behind_write_p99_us", b.tail);
    }
    streaming_layer(&session.mirror, out);
    // The queue, sampled from Server::stats during one more phase. Kept
    // apart because `stats` sorts the latency ring under the lock the
    // batcher takes, which would disturb the phases above.
    let mut queue_max = 0u64;
    session.phase(1.0, REF_READ_RATE, out, Some(&mut queue_max))?;
    out.set("serve.queue_depth_max", queue_max as f64);
    read_stages(
        &session.server,
        &session.mirror.engine,
        &mut session.reads,
        out,
    )
}

/// After all phases, every node's served prediction must equal a cold
/// engine that replays the whole write script with `compact_every = 1`.
fn final_state_gate(
    server: &Server,
    path: &Path,
    writes: &[Request],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut cold = Engine::new(FrozenModel::load(path).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    cold.set_compact_every(1);
    for w in writes {
        let m = match *w {
            Request::AddEdge { u, v } => Mutation::AddEdge { u, v },
            Request::RemoveEdge { u, v } => Mutation::RemoveEdge { u, v },
            _ => unreachable!("writes only"),
        };
        let r = cold
            .apply_mutation(&m)
            .map_err(|e| format!("cold replay: {e}"))?;
        if !r.full {
            out.gate("cold replay takes the full path on every mutation", false);
        }
    }
    let items: Vec<Item> = (0..cold.num_nodes())
        .map(|node| Item {
            due_us: 0.0,
            request: Request::Predict { node },
        })
        .collect();
    let done = open_loop(server, &items, None)?;
    let equal = items.iter().zip(&done).all(|(it, d)| match it.request {
        Request::Predict { node } => cold
            .predict(node)
            .is_ok_and(|p| line_hash(predict_response(&p, 1).as_bytes()) == d.response),
        _ => false,
    });
    out.gate(
        &format!(
            "served predictions after {} writes == cold compact_every=1 replay (every node)",
            writes.len()
        ),
        equal,
    );
    Ok(())
}

/// Streaming metrics from the mirror's direct `Engine::apply_mutation`
/// replay of the served write script.
fn streaming_layer(mirror: &Mirror, out: &mut Outcome) {
    let a = &mirror.applies;
    if a.is_empty() {
        return;
    }
    let us: Vec<f64> = a.iter().map(|x| x.0).collect();
    let rows: Vec<f64> = a.iter().map(|x| x.1 as f64).collect();
    let total_us: f64 = us.iter().sum();
    let total_rows: f64 = rows.iter().sum();
    out.set("serve.streaming.apply_us", median(&us));
    out.set("serve.streaming.dirty_rows", median(&rows));
    out.set(
        "serve.streaming.full_frac",
        a.iter().filter(|x| x.2).count() as f64 / a.len() as f64,
    );
    out.set(
        "serve.streaming.us_per_dirty_row",
        total_us / total_rows.max(1.0),
    );
}

pub fn run_read(args: &Args, dir: &WorkDir) -> Result<Outcome, String> {
    run_serving(args, dir, false)
}

pub fn run_mutate(args: &Args, dir: &WorkDir) -> Result<Outcome, String> {
    run_serving(args, dir, true)
}
