//! `search`: in-process `td run` / `td decide`, no store. A fixed cycle of
//! paper workloads runs through the sequential machine (the writes: each
//! solve commits a transaction to its own copy of the database) and
//! through the explicit-state decider (the reads). Each solve builds a
//! fresh engine, as `td run` does. The traced phase also runs every goal
//! through the 2-thread parallel backend, for the `parallel.*` metrics.
//! The untraced phase leaves it out: on a 2-vCPU guest whose host steals
//! CPU in stretches of minutes, a 2-thread solve waits for whichever
//! worker lost its vCPU, and in such a stretch the parallel solves ran
//! 2–3× slower where the single-threaded drivers ran 1.2× slower, which
//! moved every end-to-end figure by more than any bound could allow.
//!
//! One cycle: 2 × E1 serializable transfers, 5 × Example 3.1 over three
//! work items, 1 × the failure-heavy concurrent refutation (e13), and
//! 1 × the iterated protocol with the subgoal cache — each once through
//! the machine (and, traced, the parallel backend) and once through the
//! decider. The protocol is first tried
//! under a guard no schedule satisfies, so the search backtracks over
//! states it has seen and the cache has work to share; the second branch
//! then runs it.
//!
//! A write sample is one goal's solve, and a read sample its decide.
//! Both ways the transfers are the fastest goals, the refutation and the
//! protocol the slowest, and Example 3.1 between:
//! with 2 fast, 5 middle and 2 slow samples per cycle, the median is the
//! middle Example 3.1 sample, at the centre of one goal kind's spread
//! rather than on the edge between two kinds.

use crate::checks::check_search;
use crate::trace::{SpanSet, Tracer};
use crate::util::{self, percentile, timed_setups, Rng, SetupSampler};
use crate::{Opts, Report};
use std::sync::Arc;
use std::time::{Duration, Instant};
use td_core::{Goal, Program, Value};
use td_db::Database;
use td_engine::decider::{decide_with_cache, DeciderConfig};
use td_engine::{Engine, EngineConfig, Outcome, SearchBackend, SubgoalCache};

/// Set-ups timed before the measured phase, and about how many more are
/// timed during it; `setup_s` is the median of all of them.
const SETUPS: usize = 5;
const RUN_SETUPS: f64 = 20.0;
/// Parallel backend width: the sandbox has two CPUs.
const THREADS: usize = 2;

const BANK: &str = "\
base balance/2.
withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt
                       * del.balance(Acct, Bal)
                       * NB is Bal - Amt * ins.balance(Acct, NB).
deposit(Amt, Acct)  <- balance(Acct, Bal) * del.balance(Acct, Bal)
                       * NB is Bal + Amt * ins.balance(Acct, NB).
transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).
";

const WORKFLOW: &str = "\
base item/1.
base done/2.
init item(w1). init item(w2). init item(w3).
workflow(W) <- task1(W) * (task2(W) | subflow(W)) * task5(W).
subflow(W)  <- task3(W) * task4(W).
task1(W) <- item(W) * ins.done(W, t1).
task2(W) <- ins.done(W, t2).
task3(W) <- ins.done(W, t3).
task4(W) <- ins.done(W, t4).
task5(W) <- done(W, t2) * done(W, t4) * ins.done(W, t5).
";

const PROTOCOL: &str = "\
base quality/2.
base result/2.
base mapped/1.
init quality(s1, 0). init quality(s2, 0).
protocol(W) <- quality(W, Q) * Q >= 3 * ins.mapped(W).
protocol(W) <- quality(W, Q) * Q < 3 * del.quality(W, Q)
               * Q2 is Q + 1 * ins.quality(W, Q2)
               * ins.result(W, Q2) * protocol(W).
";

/// The parsed programs and their initial databases.
struct Programs {
    bank: (Program, Database),
    workflow: (Program, Database),
    protocol: (Program, Database),
}

fn load(src: &str) -> Result<(Program, Database), String> {
    let parsed = td_parser::parse_program(src).map_err(|e| format!("parse: {e}"))?;
    let db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .map_err(|e| e.to_string())?;
    Ok((parsed.program, db))
}

/// Bank balances vary with the seed; every feasible transfer stays
/// feasible (amounts are below 10, balances above 1000).
fn bank_text(seed: u64) -> String {
    let mut rng = Rng::new(seed, 7);
    format!(
        "{BANK}init balance(acct1, {}).\ninit balance(acct2, {}).\ninit balance(acct3, 30).\n",
        1_000 + rng.below(100),
        1_000 + rng.below(100)
    )
}

fn setup(seed: u64) -> Result<Programs, String> {
    Ok(Programs {
        bank: load(&bank_text(seed))?,
        workflow: load(WORKFLOW)?,
        protocol: load(PROTOCOL)?,
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Transfers,
    Workflow,
    Refute,
    Protocol,
}

/// One goal instance of the cycle.
struct Case {
    kind: Kind,
    text: String,
    goal: Goal,
    executable: bool,
}

fn money(db: &Database) -> i64 {
    db.relation(td_core::Pred::new("balance", 2))
        .map(|r| {
            r.to_sorted_vec()
                .iter()
                .map(|t| match t.values().get(1) {
                    Some(Value::Int(b)) => *b,
                    _ => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The cycle's goal instances, generated from the seed stream.
fn cycle(rng: &mut Rng, p: &Programs) -> Result<Vec<Case>, String> {
    let amt = |rng: &mut Rng| 1 + rng.below(9);
    let mut texts = Vec::new();
    for round in 0..5 {
        let mut items = ["w1", "w2", "w3"];
        rng.shuffle(&mut items);
        let legs: Vec<String> = items.iter().map(|w| format!("workflow({w})")).collect();
        texts.push((Kind::Workflow, legs.join(" | "), true));
        if round >= 2 {
            continue;
        }
        let legs: Vec<String> = (0..4)
            .map(|i| {
                let (a, b) = if (i + rng.below(2)).is_multiple_of(2) {
                    (1, 2)
                } else {
                    (2, 1)
                };
                format!("iso {{ transfer({}, acct{a}, acct{b}) }}", amt(rng))
            })
            .collect();
        texts.push((Kind::Transfers, legs.join(" | "), true));
    }
    texts.push((
        Kind::Refute,
        format!(
            "transfer({}, acct1, acct2) | transfer({}, acct2, acct1) | transfer({}, acct3, acct1)",
            amt(rng),
            amt(rng),
            1_000 + rng.below(1_000)
        ),
        false,
    ));
    let mut items = ["s1", "s2"];
    rng.shuffle(&mut items);
    let both = format!("protocol({}) | protocol({})", items[0], items[1]);
    texts.push((
        Kind::Protocol,
        format!("{{ ({both}) * mapped(s3) or {both} }}"),
        true,
    ));
    texts
        .into_iter()
        .map(|(kind, text, executable)| {
            let program = &p.get(kind).0;
            let goal = td_parser::parse_goal(&text, program)
                .map_err(|e| format!("parse {text}: {e}"))?
                .goal;
            Ok(Case {
                kind,
                text,
                goal,
                executable,
            })
        })
        .collect()
}

impl Programs {
    fn get(&self, kind: Kind) -> &(Program, Database) {
        match kind {
            Kind::Transfers | Kind::Refute => &self.bank,
            Kind::Workflow => &self.workflow,
            Kind::Protocol => &self.protocol,
        }
    }
}

fn config(kind: Kind, backend: SearchBackend) -> EngineConfig {
    let c = EngineConfig::default().with_backend(backend);
    if kind == Kind::Protocol {
        c.with_subgoal_cache()
    } else {
        c
    }
}

const BACKENDS: [(&str, SearchBackend); 2] = [
    ("machine", SearchBackend::Sequential),
    (
        "parallel",
        SearchBackend::Parallel {
            threads: THREADS,
            deterministic: false,
        },
    ),
];

/// Counters summed over a phase.
#[derive(Default)]
struct Tally {
    rounds: u64,
    ops: u64,
    busy_s: f64,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    steps: [u64; 2],
    configs: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Run whole cycles for `seconds` (at least one); with a tracer, every
/// call into the engine is a span.
fn phase(
    p: &Programs,
    seed: u64,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
    report: &mut Report,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Tally, String> {
    let mut rng = Rng::new(seed, 11);
    let mut t = Tally::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    loop {
        for case in cycle(&mut rng, p)? {
            let (program, db) = p.get(case.kind);
            let mut verdicts: Vec<(&str, bool)> = Vec::new();
            let mut moneys = Vec::new();
            let mut write_ms = 0.0;
            // The parallel backend runs in the traced phase only (see the
            // module comment).
            let backends = if tr.is_some() {
                &BACKENDS[..]
            } else {
                &BACKENDS[..1]
            };
            for (i, (name, backend)) in backends.iter().enumerate() {
                let cfg = config(case.kind, *backend);
                let span: &'static str = if i == 0 {
                    "machine.solve"
                } else {
                    "parallel.solve"
                };
                let t0 = Instant::now();
                let out = match tr.as_deref_mut() {
                    Some(tr) => {
                        tr.request();
                        tr.span(span, |_| {
                            Engine::with_config(program.clone(), cfg).solve(&case.goal, db)
                        })
                    }
                    None => Engine::with_config(program.clone(), cfg).solve(&case.goal, db),
                };
                let dt = t0.elapsed();
                t.busy_s += dt.as_secs_f64();
                write_ms += util::ms(dt);
                t.ops += 1;
                let out = out.map_err(|e| format!("{name} on {}: {e}", case.text))?;
                let stats = out.stats();
                t.steps[i] += stats.steps;
                t.cache_hits += stats.cache_hits;
                t.cache_misses += stats.cache_misses;
                if let Outcome::Success(sol) = &out {
                    moneys.push((money(db), money(&sol.db)));
                }
                verdicts.push((name, out.is_success()));
            }
            t.write_ms.push(write_ms);
            let cache = (case.kind == Kind::Protocol).then(|| Arc::new(SubgoalCache::new(65_536)));
            let t0 = Instant::now();
            let decide =
                || decide_with_cache(program, &case.goal, db, DeciderConfig::default(), cache);
            let decision = match tr.as_deref_mut() {
                Some(tr) => {
                    tr.request();
                    tr.span("decider.decide", |_| decide())
                }
                None => decide(),
            };
            let dt = t0.elapsed();
            t.busy_s += dt.as_secs_f64();
            t.read_ms.push(util::ms(dt));
            t.ops += 1;
            let decision = decision.map_err(|e| format!("decide {}: {e}", case.text))?;
            if decision.truncated {
                report.check(Err(format!("search: decide {} hit its budget", case.text)));
            }
            t.configs += decision.configs as u64;
            verdicts.push(("decide", decision.executable));
            let money = if case.kind == Kind::Transfers {
                moneys.first().copied()
            } else {
                None
            };
            report.check(check_search(&case.text, case.executable, &verdicts, money));
            for m in moneys.iter().skip(1) {
                report.check(check_search(&case.text, case.executable, &[], Some(*m)));
            }
        }
        t.rounds += 1;
        between()?;
        if Instant::now() >= deadline {
            return Ok(t);
        }
    }
}

/// The set-up: parse and load (its time in ms is returned beside the
/// programs), then one untimed warm-up cycle, so that the first timed
/// operation starts with allocations already exercised.
fn ready(seed: u64) -> Result<(Programs, f64), String> {
    let t0 = Instant::now();
    let p = setup(seed)?;
    let parse_ms = util::ms(t0.elapsed());
    phase(&p, seed, 0.0, None, &mut Report::default(), &mut || Ok(()))?;
    Ok((p, parse_ms))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut parse_ms = Vec::new();
    let (setup_times, programs) = timed_setups(
        SETUPS,
        || {
            let (p, ms) = ready(opts.seed)?;
            parse_ms.push(ms);
            Ok(p)
        },
        |_| Ok(()),
    )?;
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut sampler = SetupSampler::new(Duration::from_secs_f64(seconds / RUN_SETUPS), setup_times);
    let mut t = phase(
        &programs,
        opts.seed,
        seconds,
        None,
        &mut report,
        &mut || sampler.poll(|| ready(opts.seed)),
    )?;
    report.attempted = t.ops;
    report.e2e.insert("ops_per_s", t.ops as f64 / t.busy_s);
    report
        .e2e
        .insert("write_p50_ms", percentile(&mut t.write_ms, 0.5));
    report
        .e2e
        .insert("read_p50_ms", percentile(&mut t.read_ms, 0.5));
    report.e2e.insert("setup_s", sampler.median());
    report.e2e.insert("peak_rss_mb", util::peak_rss_mb());
    if opts.trace {
        let mut tr = Tracer::new(Instant::now(), 1);
        let traced = phase(
            &programs,
            opts.seed,
            seconds,
            Some(&mut tr),
            &mut report,
            &mut || Ok(()),
        )?;
        report.attempted += traced.ops;
        let mut spans = SpanSet::default();
        spans.absorb(tr);
        layer_metrics(
            &mut report,
            &traced,
            &mut spans,
            util::median(&mut parse_ms),
        )?;
    }
    Ok(report)
}

fn layer_metrics(
    report: &mut Report,
    traced: &Tally,
    spans: &mut SpanSet,
    parse_ms: f64,
) -> Result<(), String> {
    let rounds = traced.rounds.max(1) as f64;
    for (i, (name, p50, per_step, steps)) in [
        (
            "machine.solve",
            "machine.solve_p50_ms",
            "machine.us_per_step",
            "machine.steps",
        ),
        (
            "parallel.solve",
            "parallel.solve_p50_ms",
            "parallel.us_per_step",
            "parallel.steps",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        report.layer(p50, spans.p50_us(name, None) / 1e3);
        report.layer(
            per_step,
            spans.total_us(name, None) / traced.steps[i].max(1) as f64,
        );
        report.layer(steps, traced.steps[i] as f64 / rounds);
    }
    report.layer(
        "decider.decide_p50_ms",
        spans.p50_us("decider.decide", None) / 1e3,
    );
    report.layer("decider.configs", traced.configs as f64 / rounds);
    report.layer(
        "decider.us_per_config",
        spans.total_us("decider.decide", None) / traced.configs.max(1) as f64,
    );
    let probes = (traced.cache_hits + traced.cache_misses).max(1) as f64;
    report.layer("cache.hit_rate", traced.cache_hits as f64 / probes);
    report.layer("cache.misses", traced.cache_misses as f64 / rounds);
    report.layer("parser.program_ms", parse_ms);
    spans.finish("search", traced.busy_s, report)
}
