//! `ledger`: Example 2.2 banking under an in-process `td serve` with the
//! default `TxOptions`. Two closed-loop connections send a seeded 3:1 mix
//! of `run transfer(1, A, B)` writes and `run balance(A, B)` read-only
//! queries over 64 funded accounts; a quarter of the transfers touch a
//! 4-account hot set. This is the serve → store commit path: OCC
//! validation, group commit, WAL fsync.
//!
//! The traced run sends the same request streams through the functions
//! `td serve` calls for a `run` request (`td_parser::parse_goal`, then
//! `ConcurrentStore::transaction` around `Engine::solve`) with spans
//! around each call.

use crate::checks::check_ledger;
use crate::trace::{SpanSet, Tracer};
use crate::util::{self, median_setup, percentile, LiveServer, Rng};
use crate::{Opts, Report};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use td_core::Value;
use td_engine::{Engine, EngineConfig, Outcome};
use td_serve::Reply;
use td_store::{ConcurrentStore, Store, TxDecision, TxOptions};

const ACCOUNTS: u64 = 64;
const HOT: u64 = 4;
const CLIENTS: u64 = 2;
/// One round per client: three transfers and one balance query.
const ROUND: usize = 4;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

const RULES: &str = "\
base balance/2.
withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt
                       * del.balance(Acct, Bal)
                       * NB is Bal - Amt * ins.balance(Acct, NB).
deposit(Amt, Acct)  <- balance(Acct, Bal) * del.balance(Acct, Bal)
                       * NB is Bal + Amt * ins.balance(Acct, NB).
transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).
";

fn account(i: u64) -> String {
    format!("acct{i}")
}

/// Seed balances: large enough that no run can overdraw an account, so
/// every transfer is executable.
fn seed_balances(seed: u64) -> BTreeMap<String, i64> {
    let mut rng = Rng::new(seed, 1);
    (0..ACCOUNTS)
        .map(|i| (account(i), 1_000_000 + rng.below(1_000) as i64))
        .collect()
}

fn program_text(balances: &BTreeMap<String, i64>) -> String {
    let mut src = RULES.to_owned();
    for (a, b) in balances {
        src.push_str(&format!("init balance({a}, {b}).\n"));
    }
    src
}

/// A request, by account index.
#[derive(Clone)]
enum Op {
    Transfer { from: u64, to: u64 },
    Balance { acct: u64 },
}

impl Op {
    fn goal(&self) -> String {
        match self {
            Op::Transfer { from, to } => {
                format!("transfer(1, {}, {})", account(*from), account(*to))
            }
            Op::Balance { acct } => format!("balance({}, B)", account(*acct)),
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, Op::Transfer { .. })
    }
}

/// One client's request stream, generated a round at a time.
struct Stream(Rng);

impl Stream {
    fn new(seed: u64, client: u64) -> Stream {
        Stream(Rng::new(seed, 100 + client))
    }

    fn pick_pair(&mut self) -> (u64, u64) {
        let rng = &mut self.0;
        loop {
            let (a, b) = if rng.chance(1, 4) {
                (rng.below(HOT), rng.below(ACCOUNTS))
            } else {
                (rng.below(ACCOUNTS), rng.below(ACCOUNTS))
            };
            if a != b {
                return if rng.chance(1, 2) { (a, b) } else { (b, a) };
            }
        }
    }

    fn round(&mut self) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..ROUND - 1)
            .map(|_| {
                let (from, to) = self.pick_pair();
                Op::Transfer { from, to }
            })
            .collect();
        ops.push(Op::Balance {
            acct: self.0.below(ACCOUNTS),
        });
        self.0.shuffle(&mut ops);
        ops
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// Acked transfers (of 1) by account index: kept compact, since the
    /// log grows with the run and counts towards the peak resident set.
    acked: Vec<(u64, u64)>,
    seqs: Vec<u64>,
    errors: Vec<String>,
    end: Option<Instant>,
}

impl ClientLog {
    /// Account for one reply of `op`, as the protocol client sees it.
    fn record(&mut self, op: &Op, reply: Result<Reply, String>, ms: f64) {
        self.attempted += 1;
        match (op, reply) {
            (Op::Transfer { from, to }, Ok(Reply::Committed { seq, .. })) => {
                self.write_ms.push(ms);
                self.acked.push((*from, *to));
                self.seqs.push(seq);
            }
            (Op::Balance { acct }, Ok(r @ Reply::ReadOnly { .. })) => {
                self.read_ms.push(ms);
                if r.binding("B").and_then(|b| b.parse::<i64>().ok()).is_none() {
                    self.errors.push(format!(
                        "ledger: balance({}) answered without a value: {r:?}",
                        account(*acct)
                    ));
                }
            }
            (op, other) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("ledger: {} failed: {other:?}", op.goal());
                }
            }
        }
    }
}

impl ClientLog {
    /// Check a recovered store against the acked transfers.
    fn check(
        &self,
        balances: &BTreeMap<String, i64>,
        first_seq: u64,
        dir: &Path,
    ) -> Result<(), String> {
        let acked: Vec<(String, String, i64)> = self
            .acked
            .iter()
            .map(|&(f, t)| (account(f), account(t), 1))
            .collect();
        check_ledger(
            balances,
            &acked,
            &self.seqs,
            first_seq,
            &recovered_balances(dir)?,
        )
    }
}

fn merge(logs: Vec<ClientLog>) -> ClientLog {
    let mut all = ClientLog::default();
    for l in logs {
        all.attempted += l.attempted;
        all.failed += l.failed;
        all.write_ms.extend(l.write_ms);
        all.read_ms.extend(l.read_ms);
        all.acked.extend(l.acked);
        all.seqs.extend(l.seqs);
        all.errors.extend(l.errors);
        all.end = all.end.max(l.end);
    }
    all
}

/// Balances of a store directory, read by a cold `Store::open` after a
/// strict `Store::verify`.
fn recovered_balances(dir: &Path) -> Result<BTreeMap<String, i64>, String> {
    Store::verify(dir).map_err(|e| format!("ledger: Store::verify failed: {e}"))?;
    let store = Store::open(dir).map_err(|e| format!("ledger: cold open failed: {e}"))?;
    let pred = td_core::Pred::new("balance", 2);
    let rel = store
        .db()
        .relation(pred)
        .ok_or("ledger: no balance relation after recovery")?;
    let mut out = BTreeMap::new();
    for t in rel.to_sorted_vec() {
        match t.values() {
            [Value::Sym(a), Value::Int(b)] => {
                if out.insert(a.to_string(), *b).is_some() {
                    return Err(format!("ledger: two balances for {a}"));
                }
            }
            other => return Err(format!("ledger: odd balance tuple {other:?}")),
        }
    }
    Ok(out)
}

struct ServePhase {
    setup_s: f64,
    log: ClientLog,
    elapsed: f64,
    stats: td_store::ConcurrentStats,
    wal_bytes: u64,
    rss_mb: f64,
}

/// The untraced run: the real server over its Unix socket.
fn serve_phase(opts: &Opts, seconds: f64, report: &mut Report) -> Result<ServePhase, String> {
    let balances = seed_balances(opts.seed);
    let src = program_text(&balances);
    let (setup_s, (server, clients)) = median_setup(
        SETUPS,
        || {
            let server = LiveServer::start(&src, util::fresh_dir("ledger"))?;
            let clients = (0..CLIENTS)
                .map(|_| server.connect())
                .collect::<Result<Vec<_>, _>>()?;
            Ok((server, clients))
        },
        |(server, clients)| {
            drop(clients);
            let dir = server.dir.clone();
            server.stop()?;
            let _ = std::fs::remove_dir_all(dir);
            Ok(())
        },
    )?;
    let store_dir = server.dir.join("db");
    let first_seq = {
        let line = server.connect()?.stats().map_err(|e| e.to_string())?;
        line.split_whitespace()
            .find_map(|f| f.strip_prefix("durable="))
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or("ledger: stats without durable=")?
    };
    let wal_before = util::wal_bytes(&store_dir);
    let barrier = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            let barrier = barrier.clone();
            let seed = opts.seed;
            std::thread::spawn(move || {
                let mut stream = Stream::new(seed, c as u64);
                let mut log = ClientLog::default();
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                while Instant::now() < deadline {
                    for op in stream.round() {
                        let t0 = Instant::now();
                        let reply = client.run(&op.goal()).map_err(|e| e.to_string());
                        log.record(&op, reply, util::ms(t0.elapsed()));
                    }
                }
                log.end = Some(Instant::now());
                log
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let logs = workers
        .into_iter()
        .map(|w| w.join().map_err(|_| "ledger client panicked".to_owned()))
        .collect::<Result<Vec<_>, _>>()?;
    let log = merge(logs);
    let elapsed = log.end.map_or(0.0, |e| (e - start).as_secs_f64());
    // Peak memory of the workload itself, before the recovery checks.
    let rss_mb = util::peak_rss_mb();
    let dir = server.dir.clone();
    let summary = server.stop()?;
    let stats = summary.stats;
    log_store(&summary.stats);
    drop(summary);
    let wal_bytes = util::wal_bytes(&store_dir) - wal_before;
    report.check(log.check(&balances, first_seq, &store_dir));
    let _ = std::fs::remove_dir_all(dir);
    Ok(ServePhase {
        setup_s,
        log,
        elapsed,
        stats,
        wal_bytes,
        rss_mb,
    })
}

/// The traced run: the same streams through the functions `td serve`
/// calls for `run`, in this process, with a span around each call.
fn traced_phase(
    opts: &Opts,
    seconds: f64,
    report: &mut Report,
) -> Result<(SpanSet, ClientLog), String> {
    let balances = seed_balances(opts.seed);
    let parsed = td_parser::parse_program(&program_text(&balances)).map_err(|e| e.to_string())?;
    let dir = util::fresh_dir("ledger-traced");
    let store = td_serve::open_or_init_store(&dir, &parsed).map_err(|e| e.to_string())?;
    let first_seq = store.wal_records();
    let cs = ConcurrentStore::new(store).with_options(TxOptions::default());
    let program = Arc::new(parsed.program);
    let epoch = Instant::now();
    let barrier = Arc::new(Barrier::new(CLIENTS as usize));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (cs, program, barrier) = (cs.clone(), program.clone(), barrier.clone());
            let seed = opts.seed;
            std::thread::spawn(move || {
                let engine = Engine::with_config((*program).clone(), EngineConfig::default());
                let mut tr = Tracer::new(epoch, c + 1);
                let mut stream = Stream::new(seed, c);
                let mut log = ClientLog::default();
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                while Instant::now() < deadline {
                    for op in stream.round() {
                        let kind = if op.is_write() { "write" } else { "read" };
                        tr.request();
                        let t0 = Instant::now();
                        let reply = tr.tagged("serve.request", kind, |tr| {
                            run_in_process(tr, kind, &engine, &cs, &program, &op.goal())
                        });
                        log.record(&op, reply, util::ms(t0.elapsed()));
                    }
                }
                (tr, log)
            })
        })
        .collect();
    let mut spans = SpanSet::default();
    let mut logs = Vec::new();
    for w in workers {
        let (tr, log) = w
            .join()
            .map_err(|_| "ledger traced client panicked".to_owned())?;
        spans.absorb(tr);
        logs.push(log);
    }
    let log = merge(logs);
    cs.close().map_err(|e| format!("ledger: close: {e}"))?;
    report.check(log.check(&balances, first_seq, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    Ok((spans, log))
}

/// `td serve`'s `run` request, minus the socket: parse, solve inside an
/// OCC transaction, commit through group commit.
pub fn run_in_process(
    tr: &mut Tracer,
    kind: &'static str,
    engine: &Engine,
    cs: &ConcurrentStore,
    program: &td_core::Program,
    goal: &str,
) -> Result<Reply, String> {
    let parsed = tr
        .tagged("parser.goal", kind, |_| {
            td_parser::parse_goal(goal, program)
        })
        .map_err(|e| e.to_string())?;
    let result = tr.tagged("store.transaction", kind, |tr| {
        cs.transaction(|db| {
            let out = tr.tagged("engine.solve", kind, |_| engine.solve(&parsed.goal, db));
            match out {
                Ok(Outcome::Success(sol)) => {
                    let bindings: Vec<(String, String)> = parsed
                        .var_names
                        .iter()
                        .zip(&sol.answer)
                        .map(|(n, v)| (n.to_string(), v.to_string()))
                        .collect();
                    if sol.delta.is_empty() {
                        Ok(TxDecision::ReadOnly(Some(bindings)))
                    } else {
                        Ok(TxDecision::commit(
                            sol.delta.clone(),
                            sol.reads.clone(),
                            Some(bindings),
                        ))
                    }
                }
                Ok(Outcome::Failure { .. }) => Ok(TxDecision::Abort(None)),
                Err(e) => Err(e.to_string()),
            }
        })
    });
    match result {
        Ok(receipt) => Ok(match (receipt.value, receipt.seq) {
            (Some(bindings), Some(seq)) => Reply::Committed {
                seq,
                attempts: receipt.attempts,
                bindings,
            },
            (Some(bindings), None) => Reply::ReadOnly {
                attempts: receipt.attempts,
                bindings,
            },
            (None, _) => Reply::No {
                attempts: receipt.attempts,
            },
        }),
        Err(e) => Err(e.to_string()),
    }
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
    let mut write_ms = log.write_ms.clone();
    let mut read_ms = log.read_ms.clone();
    report.e2e.insert("ops_per_s", done / phase.elapsed);
    report
        .e2e
        .insert("write_p50_ms", percentile(&mut write_ms, 0.5));
    report
        .e2e
        .insert("read_p50_ms", percentile(&mut read_ms, 0.5));
    report.e2e.insert("setup_s", phase.setup_s);
    report.e2e.insert("peak_rss_mb", phase.rss_mb);
    if opts.trace {
        layer_metrics(opts, &phase, &mut report)?;
    }
    Ok(report)
}

fn layer_metrics(opts: &Opts, phase: &ServePhase, report: &mut Report) -> Result<(), String> {
    let (mut spans, tlog) = traced_phase(opts, opts.seconds / 2.0, report)?;
    report.attempted += tlog.attempted;
    report.failed += tlog.failed;
    report.errors.extend(tlog.errors);
    serve_metrics(report, &phase.log.write_ms, &phase.log.read_ms, &spans);
    report.layer(
        "store.tx_self_us",
        spans.self_p50_us("store.transaction", Some("write")),
    );
    report.layer(
        "store.readonly_tx_us",
        spans.self_p50_us("store.transaction", Some("read")),
    );
    store_counters(report, &phase.stats, phase.wal_bytes);
    report.layer(
        "machine.serve_solve_us",
        spans.p50_us("engine.solve", Some("write")),
    );
    report.layer("parser.goal_us", spans.p50_us("parser.goal", None));
    let busy_s = spans.total_us("serve.request", None) / 1e6;
    spans.finish("ledger", busy_s, report)
}

/// The serve layer's figures: the untraced request latencies as the
/// client saw them, and how much the socket and dispatch add over the
/// traced in-process requests of the same stream.
pub fn serve_metrics(report: &mut Report, write_ms: &[f64], read_ms: &[f64], spans: &SpanSet) {
    let mut all: Vec<f64> = write_ms.iter().chain(read_ms).copied().collect();
    let serve_p50_us = percentile(&mut all, 0.5) * 1e3;
    report.layer(
        "serve.overhead_us",
        serve_p50_us - spans.p50_us("serve.request", None),
    );
    report.layer(
        "serve.write_p99_ms",
        percentile(&mut write_ms.to_vec(), 0.99),
    );
    report.layer("serve.read_p99_ms", percentile(&mut read_ms.to_vec(), 0.99));
    report.layer("serve.write_n", write_ms.len() as f64);
    report.layer("serve.read_n", read_ms.len() as f64);
}

/// One line of store counters on standard error, for every serve run.
pub fn log_store(s: &td_store::ConcurrentStats) {
    eprintln!(
        "store: commits={} conflicts={} fsyncs={} records/fsync={:.3} max_group={}",
        s.commits,
        s.conflicts,
        s.groups,
        s.mean_group(),
        s.max_group
    );
}

/// The store layer's counters over a serve phase.
pub fn store_counters(report: &mut Report, s: &td_store::ConcurrentStats, wal_bytes: u64) {
    let commits = s.commits.max(1) as f64;
    report.layer(
        "store.attempts_per_commit",
        (s.commits + s.conflicts) as f64 / commits,
    );
    report.layer("store.conflicts", s.conflicts as f64);
    report.layer("store.records_per_fsync", s.mean_group());
    report.layer("store.max_group", s.max_group as f64);
    report.layer("store.fsyncs", s.groups as f64);
    report.layer("store.wal_bytes_per_commit", wal_bytes as f64 / commits);
}
