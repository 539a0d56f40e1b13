//! `lab`: a reactive lab workflow under an in-process `td serve`. One
//! connection streams `sample(S)` / `result(S, Q)` events with explicit
//! logical timestamps (`event … at <ts>`, one tick per event). Each result
//! follows its sample by `LAG` pairs, and the trigger
//! `on within(seq(sample(S), result(S, Q)), WINDOW) do handle(S, Q)` runs
//! one counter-and-record transaction per pair. Events are not consumed,
//! so every sample stays a live partial match until the watermark passes
//! its window: about `WINDOW / 2` partials at any time, the same in every
//! run. The reads are periodic `run processed(N)` polls. The measured phase
//! ends when every trigger is durable.
//!
//! The traced run sends the same stream through what `td serve` calls for
//! an `event` request (`td_parser::parse_event`, the append as a
//! `ConcurrentStore::transaction`, `Reactor::ingest`) and runs the triggers
//! on a scheduler thread of its own (`ConcurrentStore::transaction` around
//! `Engine::solve`), with spans around each call.

use crate::checks::check_lab;
use crate::ledger::{log_store, run_in_process, serve_metrics, store_counters};
use crate::trace::{SpanSet, Tracer};
use crate::util::{self, median_setup, percentile, LiveServer, Rng};
use crate::{Opts, Report};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use td_core::{Symbol, Value};
use td_db::{Delta, DeltaOp, ReadSet, Tuple};
use td_engine::{Engine, EngineConfig, Outcome};
use td_events::Reactor;
use td_serve::Reply;
use td_store::{ConcurrentStore, Store, TxDecision, TxOptions};

/// Pairs between a sample and its result.
const LAG: u64 = 256;
/// The `within` bound, in timestamp ticks (one tick per event).
const WINDOW: u64 = 4_000;
/// Pairs per round; a status poll follows every `POLL_EVERY` pairs.
const ROUND_PAIRS: u64 = 16;
const POLL_EVERY: u64 = 8;
const SETUPS: usize = 15;
/// Timestamp of the first event.
const T0: u64 = 1_000_000;

fn program_text() -> String {
    format!(
        "\
base handled/2.
base fired/1.
init fired(0).
event sample/1.
event result/2.
handle(S, Q) <- fired(N) * del.fired(N) * M is N + 1 * ins.fired(M)
              * ins.handled(S, Q).
processed(N) <- fired(N).
on within(seq(sample(S), result(S, Q)), {WINDOW}) do handle(S, Q).
"
    )
}

#[derive(Clone)]
enum Op {
    Event { text: String, is_result: bool },
    Poll,
}

/// The event stream: at step `j` the sample of pair `j` and the result of
/// pair `j - LAG`; the quality `Q` of each pair comes from the seed.
struct Stream {
    rng: Rng,
    next_pair: u64,
    ts: u64,
    /// Qualities of pairs whose result is still to come.
    pending: std::collections::VecDeque<(u64, i64)>,
    /// Every pair generated so far (sample and result both sent).
    pairs: BTreeSet<(i64, i64)>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(seed, 31),
            next_pair: 0,
            ts: T0,
            pending: Default::default(),
            pairs: BTreeSet::new(),
        }
    }

    fn event(&mut self, text: String, is_result: bool) -> Op {
        let text = format!("{text} at {}", self.ts);
        self.ts += 1;
        Op::Event { text, is_result }
    }

    fn result(&mut self) -> Option<Op> {
        let (s, q) = self.pending.pop_front()?;
        self.pairs.insert((s as i64, q));
        Some(self.event(format!("result({s}, {q})"), true))
    }

    fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for k in 0..ROUND_PAIRS {
            let s = self.next_pair;
            self.next_pair += 1;
            self.pending.push_back((s, self.rng.below(5) as i64));
            ops.push(self.event(format!("sample({s})"), false));
            if self.pending.len() as u64 > LAG {
                ops.extend(self.result());
            }
            if (k + 1) % POLL_EVERY == 0 {
                ops.push(Op::Poll);
            }
        }
        ops
    }

    /// The results still owed once the run stops starting pairs.
    fn flush(&mut self) -> Vec<Op> {
        std::iter::from_fn(|| self.result()).collect()
    }
}

#[derive(Default)]
struct Log {
    attempted: u64,
    failed: u64,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    matched: u64,
    last_processed: i64,
    errors: Vec<String>,
}

impl Log {
    fn record(&mut self, op: &Op, reply: Result<Reply, String>, ms: f64) {
        self.attempted += 1;
        match (op, reply) {
            (Op::Event { text, is_result }, Ok(r @ Reply::Committed { .. })) => {
                self.write_ms.push(ms);
                let m = r.binding("matched").and_then(|m| m.parse::<u64>().ok());
                if m != Some(u64::from(*is_result)) {
                    self.errors
                        .push(format!("lab: event {text} reported matched={m:?}"));
                }
                self.matched += m.unwrap_or(0);
            }
            (Op::Poll, Ok(r @ Reply::ReadOnly { .. })) => {
                self.read_ms.push(ms);
                match r.binding("N").and_then(|n| n.parse::<i64>().ok()) {
                    Some(n) if n >= self.last_processed && n as u64 <= self.matched => {
                        self.last_processed = n
                    }
                    n => self.errors.push(format!(
                        "lab: processed({n:?}) after processed({}) with {} matched",
                        self.last_processed, self.matched
                    )),
                }
            }
            (op, other) => {
                self.failed += 1;
                if let Op::Event { text, .. } = op {
                    eprintln!("lab: event {text} failed: {other:?}");
                }
            }
        }
    }
}

/// `handled` and the `fired` counter of a store directory, read by a cold
/// `Store::open` after a strict `Store::verify`.
fn recovered(dir: &Path) -> Result<(BTreeSet<(i64, i64)>, i64), String> {
    Store::verify(dir).map_err(|e| format!("lab: Store::verify failed: {e}"))?;
    let store = Store::open(dir).map_err(|e| format!("lab: cold open failed: {e}"))?;
    let tuples = |name: &str, arity: u32| {
        store
            .db()
            .relation(td_core::Pred::new(name, arity))
            .map(|r| r.to_sorted_vec())
            .unwrap_or_default()
    };
    let mut handled = BTreeSet::new();
    for t in tuples("handled", 2) {
        if let [Value::Int(s), Value::Int(q)] = t.values() {
            handled.insert((*s, *q));
        }
    }
    let fired = match tuples("fired", 1).as_slice() {
        [t] => match t.values() {
            [Value::Int(n)] => *n,
            _ => -1,
        },
        _ => -1,
    };
    Ok((handled, fired))
}

fn stats_field(line: &str, field: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|f| f.strip_prefix(field)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

struct ServePhase {
    setup_s: f64,
    log: Log,
    elapsed: f64,
    drain_ms: f64,
    stats: td_store::ConcurrentStats,
    conflicted: u64,
    wal_bytes: u64,
    rss_mb: f64,
}

/// The untraced run: the real server over its Unix socket.
fn serve_phase(opts: &Opts, seconds: f64, report: &mut Report) -> Result<ServePhase, String> {
    let src = program_text();
    let (setup_s, (server, mut client)) = median_setup(
        SETUPS,
        || {
            let server = LiveServer::start(&src, util::fresh_dir("lab"))?;
            let client = server.connect()?;
            Ok((server, client))
        },
        |(server, client)| {
            drop(client);
            let dir = server.dir.clone();
            server.stop()?;
            let _ = std::fs::remove_dir_all(dir);
            Ok(())
        },
    )?;
    let store_dir = server.dir.join("db");
    let wal_before = util::wal_bytes(&store_dir);
    let mut stream = Stream::new(opts.seed);
    let mut log = Log::default();
    let mut send = |op: &Op, log: &mut Log| {
        let t0 = Instant::now();
        let reply = match op {
            Op::Event { text, .. } => client.event(text),
            Op::Poll => client.run("processed(N)"),
        };
        log.record(op, reply.map_err(|e| e.to_string()), util::ms(t0.elapsed()));
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        for op in stream.round() {
            send(&op, &mut log);
        }
    }
    for op in stream.flush() {
        send(&op, &mut log);
    }
    let last_ack = Instant::now();
    let pairs = stream.pairs.len() as u64;
    let drain_deadline = last_ack + Duration::from_secs(60);
    loop {
        let line = client.stats().map_err(|e| e.to_string())?;
        if stats_field(&line, "triggers_fired") >= Some(pairs) {
            break;
        }
        if Instant::now() > drain_deadline {
            return Err(format!("lab: triggers not drained: {line}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let drained = Instant::now();
    // Peak memory of the workload itself, before the recovery checks.
    let rss_mb = util::peak_rss_mb();
    let final_n = client
        .run("processed(N)")
        .map_err(|e| e.to_string())?
        .binding("N")
        .and_then(|n| n.parse::<i64>().ok())
        .unwrap_or(-1);
    drop(client);
    let dir = server.dir.clone();
    let summary = server.stop()?;
    let (stats, events) = (summary.stats, summary.events.clone());
    log_store(&summary.stats);
    drop(summary);
    // Once with the server's own counts and the last poll, once with the
    // counts the client saw and the recovered `fired(N)`.
    match recovered(&store_dir) {
        Ok((handled, fired)) => {
            let pairs = &stream.pairs;
            report.check(check_lab(
                pairs,
                &handled,
                final_n,
                events.matched,
                events.fired,
            ));
            report.check(check_lab(pairs, &handled, fired, log.matched, events.fired));
        }
        Err(e) => report.check(Err(e)),
    }
    let wal_bytes = util::wal_bytes(&store_dir) - wal_before;
    let _ = std::fs::remove_dir_all(dir);
    Ok(ServePhase {
        setup_s,
        log,
        elapsed: (drained - start).as_secs_f64(),
        drain_ms: util::ms(drained - last_ack),
        stats,
        conflicted: events.conflicted,
        wal_bytes,
        rss_mb,
    })
}

struct Traced {
    spans: SpanSet,
    log: Log,
    partials: f64,
}

/// `td serve`'s `event` request, minus the socket.
fn ingest_in_process(
    tr: &mut Tracer,
    cs: &ConcurrentStore,
    program: &td_core::Program,
    reactor: &mut Reactor,
    jobs: &mpsc::Sender<td_events::Fired>,
    src: &str,
) -> Result<Reply, String> {
    let (name, args, ts) = tr
        .span("parser.event", |_| td_parser::parse_event(src))
        .map_err(|e| e.to_string())?;
    let stored = program
        .event_by_name(Symbol::intern(&name))
        .ok_or_else(|| format!("`{name}` is not an event"))?;
    let ts = ts.ok_or("the benchmark always sends a timestamp")?;
    let mut values = args.clone();
    values.push(Value::Int(ts as i64));
    let tuple = Tuple::new(values);
    let receipt = tr
        .tagged("store.transaction", "write", |_| {
            cs.transaction(|db| {
                if db.contains(stored, &tuple) {
                    Ok::<_, std::convert::Infallible>(TxDecision::ReadOnly(()))
                } else {
                    let mut delta = Delta::new();
                    delta.push(DeltaOp::Ins(stored, tuple.clone()));
                    let mut reads = ReadSet::new();
                    reads.record(stored);
                    Ok(TxDecision::commit(delta, reads, ()))
                }
            })
        })
        .map_err(|e| e.to_string())?;
    let fires = tr.span("events.ingest", |_| reactor.ingest(stored.name, &args, ts));
    let matched = fires.len();
    for f in fires {
        jobs.send(f).map_err(|_| "trigger scheduler gone")?;
    }
    let bindings = vec![("matched".to_owned(), matched.to_string())];
    Ok(match receipt.seq {
        Some(seq) => Reply::Committed {
            seq,
            attempts: receipt.attempts,
            bindings,
        },
        None => Reply::ReadOnly {
            attempts: receipt.attempts,
            bindings,
        },
    })
}

/// The trigger scheduler of the traced run: one thread, match order.
fn scheduler(
    rx: mpsc::Receiver<td_events::Fired>,
    cs: ConcurrentStore,
    program: td_core::Program,
    epoch: Instant,
) -> (Tracer, u64, u64) {
    let engine = Engine::with_config(program, EngineConfig::default());
    let mut tr = Tracer::new(epoch, 2);
    let (mut fired, mut conflicts) = (0, 0);
    for job in rx {
        tr.request();
        let result =
            tr.tagged("store.transaction", "trigger", |tr| {
                cs.transaction(|db| {
                    match tr.tagged("engine.solve", "trigger", |_| engine.solve(&job.goal, db)) {
                        Ok(Outcome::Success(sol)) if !sol.delta.is_empty() => Ok(
                            TxDecision::commit(sol.delta.clone(), sol.reads.clone(), true),
                        ),
                        Ok(Outcome::Success(_)) => Ok(TxDecision::ReadOnly(true)),
                        Ok(Outcome::Failure { .. }) => Ok(TxDecision::Abort(false)),
                        Err(e) => Err(e.to_string()),
                    }
                })
            });
        if let Ok(receipt) = result {
            conflicts += u64::from(receipt.attempts - 1);
            fired += u64::from(receipt.value);
        }
    }
    (tr, fired, conflicts)
}

fn traced_phase(opts: &Opts, seconds: f64, report: &mut Report) -> Result<Traced, String> {
    let parsed = td_parser::parse_program(&program_text()).map_err(|e| e.to_string())?;
    let dir = util::fresh_dir("lab-traced");
    let store = td_serve::open_or_init_store(&dir, &parsed).map_err(|e| e.to_string())?;
    let cs = ConcurrentStore::new(store).with_options(TxOptions::default());
    let mut reactor = Reactor::new(&parsed.program, &parsed.triggers);
    let engine = Engine::with_config(parsed.program.clone(), EngineConfig::default());
    let epoch = Instant::now();
    let (jobs, rx) = mpsc::channel();
    let sched = {
        let (cs, program) = (cs.clone(), parsed.program.clone());
        std::thread::spawn(move || scheduler(rx, cs, program, epoch))
    };
    let mut tr = Tracer::new(epoch, 1);
    let mut stream = Stream::new(opts.seed);
    let mut log = Log::default();
    let mut partials = Vec::new();
    let program = &parsed.program;
    let send = |op: &Op, tr: &mut Tracer, reactor: &mut Reactor, log: &mut Log| {
        tr.request();
        let t0 = Instant::now();
        let reply = match op {
            Op::Event { text, .. } => tr.tagged("serve.request", "write", |tr| {
                ingest_in_process(tr, &cs, program, reactor, &jobs, text)
            }),
            Op::Poll => tr.tagged("serve.request", "read", |tr| {
                run_in_process(tr, "read", &engine, &cs, program, "processed(N)")
            }),
        };
        log.record(op, reply, util::ms(t0.elapsed()));
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        for op in stream.round() {
            send(&op, &mut tr, &mut reactor, &mut log);
        }
        partials.push(reactor.partials() as f64);
    }
    for op in stream.flush() {
        send(&op, &mut tr, &mut reactor, &mut log);
    }
    drop(jobs);
    let (sched_tr, fired, conflicts) = sched.join().map_err(|_| "scheduler panicked")?;
    let mut spans = SpanSet::default();
    spans.absorb(tr);
    spans.absorb(sched_tr);
    let pairs = stream.pairs.len() as u64;
    cs.close().map_err(|e| format!("lab: close: {e}"))?;
    match recovered(&dir) {
        Ok((handled, n)) => report.check(check_lab(&stream.pairs, &handled, n, log.matched, fired)),
        Err(e) => report.check(Err(e)),
    }
    if reactor.stats().matched != pairs {
        report.check(Err(format!(
            "lab: reactor matched {} of {pairs} pairs",
            reactor.stats().matched
        )));
    }
    if conflicts > 0 {
        eprintln!("lab: traced triggers conflicted {conflicts} times");
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Traced {
        spans,
        log,
        partials: util::median(&mut partials),
    })
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let serve_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let phase = serve_phase(opts, serve_seconds, &mut report)?;
    let log = &phase.log;
    report.attempted = log.attempted;
    report.failed = log.failed;
    report.errors.extend(log.errors.iter().cloned());
    let done = (log.attempted - log.failed) as f64;
    report.e2e.insert("ops_per_s", done / phase.elapsed);
    report
        .e2e
        .insert("write_p50_ms", percentile(&mut log.write_ms.clone(), 0.5));
    report
        .e2e
        .insert("read_p50_ms", percentile(&mut log.read_ms.clone(), 0.5));
    report.e2e.insert("setup_s", phase.setup_s);
    report.e2e.insert("peak_rss_mb", phase.rss_mb);
    if opts.trace {
        let mut t = traced_phase(opts, opts.seconds / 2.0, &mut report)?;
        report.attempted += t.log.attempted;
        report.failed += t.log.failed;
        report.errors.extend(t.log.errors.iter().cloned());
        let spans = &mut t.spans;
        serve_metrics(&mut report, &log.write_ms, &log.read_ms, spans);
        report.layer(
            "store.tx_self_us",
            spans.self_p50_us("store.transaction", Some("write")),
        );
        store_counters(&mut report, &phase.stats, phase.wal_bytes);
        report.layer("events.ingest_us", spans.p50_us("events.ingest", None));
        report.layer("events.partials_live", t.partials);
        report.layer(
            "events.trigger_tx_us",
            spans.p50_us("store.transaction", Some("trigger")),
        );
        report.layer("events.drain_ms", phase.drain_ms);
        report.layer("events.trigger_conflicts", phase.conflicted as f64);
        report.layer("parser.event_us", spans.p50_us("parser.event", None));
        report.layer("parser.goal_us", spans.p50_us("parser.goal", None));
        let busy_s = spans.total_us("serve.request", None) / 1e6;
        spans.finish("lab", busy_s, &mut report)?;
    }
    Ok(report)
}
