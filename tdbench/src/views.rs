//! `views`: in-process `td --materialize` over seeded graph reachability
//! (the `path`/`open` program of `corpus/reachability_maintenance.td`).
//! The graph starts as a 128-node chain plus 128 random forward edges and
//! 8 blocked nodes, churned by 1024 swaps in the benchmark's model before
//! the program sees it, so that every measured write meets the same
//! stationary random DAG rather than a chain being taken apart. Each write is one transaction that deletes a present
//! edge and inserts an absent forward one (or moves a block), so the
//! edge count stays fixed; each read is a ground `path(A, B)` or
//! `open(A, B)` query. A run makes many more than 4096 writes, so the
//! materializer's per-version state store evicts in steady state.
//!
//! Every answer is checked against breadth-first search over the
//! benchmark's own edge set, and the full `path` closure is compared at
//! the end.

use crate::checks::{check_closure, check_view_answer, Graph};
use crate::trace::{SpanSet, Tracer};
use crate::util::{self, percentile, timed_setups, Rng, SetupSampler};
use crate::{Opts, Report};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use td_core::{Atom, Goal, Pred, Program, Term, Value};
use td_db::Database;
use td_engine::{Engine, EngineConfig, Materializer, Outcome};

const NODES: i64 = 128;
const EXTRA_EDGES: usize = 128;
const BLOCKED: usize = 8;
/// Model-only swaps applied to the seeded graph before it is loaded.
const PRE_CHURN: usize = 1024;
/// Reads after each write.
const READS_PER_WRITE: usize = 2;
/// One round: three edge swaps and one block move.
const EDGE_SWAPS: usize = 3;
/// Set-ups timed before the measured phase, and about how many more are
/// timed during it; `setup_s` is the median of all of them.
const SETUPS: usize = 5;
const RUN_SETUPS: f64 = 20.0;

const RULES: &str = "\
base edge/2.
base blocked/1.
path(X, Y) <- edge(X, Y).
path(X, Z) <- edge(X, Y) * path(Y, Z).
open(X, Y) <- path(X, Y) * not blocked(Y).
";

fn initial_graph(seed: u64) -> Graph {
    let mut rng = Rng::new(seed, 21);
    let mut g = Graph::default();
    for i in 0..NODES - 1 {
        g.edges.insert((i, i + 1));
    }
    while g.edges.len() < (NODES - 1) as usize + EXTRA_EDGES {
        g.edges.insert(forward_pair(&mut rng));
    }
    while g.blocked.len() < BLOCKED {
        g.blocked.insert(rng.below(NODES as u64) as i64);
    }
    for _ in 0..PRE_CHURN {
        swap_edge(&mut g, &mut rng);
    }
    g
}

/// Delete a random present edge and insert a random absent forward one;
/// returns both.
fn swap_edge(g: &mut Graph, rng: &mut Rng) -> ((i64, i64), (i64, i64)) {
    let k = rng.below(g.edges.len() as u64) as usize;
    let old = *g.edges.iter().nth(k).expect("k < len");
    let new = loop {
        let p = forward_pair(rng);
        if !g.edges.contains(&p) {
            break p;
        }
    };
    g.edges.remove(&old);
    g.edges.insert(new);
    (old, new)
}

/// A uniformly random pair `a < b`.
fn forward_pair(rng: &mut Rng) -> (i64, i64) {
    loop {
        let a = rng.below(NODES as u64) as i64;
        let b = rng.below(NODES as u64) as i64;
        if a < b {
            return (a, b);
        }
    }
}

fn program_text(g: &Graph) -> String {
    let mut src = RULES.to_owned();
    for (a, b) in &g.edges {
        src.push_str(&format!("init edge({a}, {b}).\n"));
    }
    for x in &g.blocked {
        src.push_str(&format!("init blocked({x}).\n"));
    }
    src
}

/// The live system under test: engine (with its materializer), current
/// database, and the benchmark's model of the same graph.
struct Live {
    program: Program,
    engine: Engine,
    db: Database,
    model: Graph,
    rng: Rng,
    parse_ms: f64,
    build_ms: f64,
}

fn setup(seed: u64) -> Result<Live, String> {
    let model = initial_graph(seed);
    let src = program_text(&model);
    let t0 = Instant::now();
    let parsed = td_parser::parse_program(&src).map_err(|e| e.to_string())?;
    let parse_ms = util::ms(t0.elapsed());
    let db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let engine = Engine::with_config(
        parsed.program.clone(),
        EngineConfig::default().with_materialize(),
    );
    let mat = engine
        .materializer()
        .ok_or("views: program has no materializable fragment")?;
    // The first probe builds the view state of the initial version.
    mat.holds(&db, &Atom::new("path", vec![Term::int(0), Term::int(1)]))
        .ok_or("views: path is not materialized")?;
    let build_ms = util::ms(t0.elapsed());
    Ok(Live {
        program: parsed.program,
        engine,
        db,
        model,
        rng: Rng::new(seed, 22),
        parse_ms,
        build_ms,
    })
}

enum Op {
    Write {
        text: String,
        goal: Goal,
    },
    Read {
        query: &'static str,
        a: i64,
        b: i64,
        goal: Goal,
    },
}

impl Live {
    fn mat(&self) -> &Arc<Materializer> {
        self.engine.materializer().expect("checked at set-up")
    }

    fn parse(&self, text: &str) -> Result<Goal, String> {
        td_parser::parse_goal(text, &self.program)
            .map(|g| g.goal)
            .map_err(|e| format!("parse {text}: {e}"))
    }

    /// The next round's operations; the model is updated as each write is
    /// generated, so reads after it are answered against the new graph.
    fn round(&mut self) -> Result<Vec<(Op, Graph)>, String> {
        let mut ops = Vec::new();
        for w in 0..=EDGE_SWAPS {
            let text = if w < EDGE_SWAPS {
                let (old, new) = swap_edge(&mut self.model, &mut self.rng);
                format!(
                    "del.edge({}, {}) * ins.edge({}, {})",
                    old.0, old.1, new.0, new.1
                )
            } else {
                let blocked: Vec<i64> = self.model.blocked.iter().copied().collect();
                let old = blocked[self.rng.below(blocked.len() as u64) as usize];
                let new = loop {
                    let x = self.rng.below(NODES as u64) as i64;
                    if !self.model.blocked.contains(&x) {
                        break x;
                    }
                };
                self.model.blocked.remove(&old);
                self.model.blocked.insert(new);
                format!("del.blocked({old}) * ins.blocked({new})")
            };
            let goal = self.parse(&text)?;
            ops.push((Op::Write { text, goal }, self.model.clone()));
            for r in 0..READS_PER_WRITE {
                let (a, b) = forward_pair(&mut self.rng);
                let query = if r % 2 == 0 { "path" } else { "open" };
                let goal = self.parse(&format!("{query}({a}, {b})"))?;
                ops.push((Op::Read { query, a, b, goal }, self.model.clone()));
            }
        }
        Ok(ops)
    }
}

#[derive(Default)]
struct Tally {
    ops: u64,
    writes: u64,
    busy_s: f64,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
}

/// Run whole rounds for `seconds` (at least one).
fn phase(
    live: &mut Live,
    seconds: f64,
    mut tr: Option<&mut Tracer>,
    report: &mut Report,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Tally, String> {
    let mut t = Tally::default();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    loop {
        for (op, model) in live.round()? {
            let (goal, kind) = match &op {
                Op::Write { goal, .. } => (goal, "write"),
                Op::Read { goal, .. } => (goal, "read"),
            };
            let t0 = Instant::now();
            let out = match tr.as_deref_mut() {
                Some(tr) => {
                    tr.request();
                    tr.tagged("engine.solve", kind, |_| live.engine.solve(goal, &live.db))
                }
                None => live.engine.solve(goal, &live.db),
            };
            let dt = t0.elapsed();
            t.busy_s += dt.as_secs_f64();
            t.ops += 1;
            let out = out.map_err(|e| format!("views: solve: {e}"))?;
            match op {
                Op::Write { text, .. } => {
                    t.writes += 1;
                    t.write_ms.push(util::ms(dt));
                    match out {
                        Outcome::Success(sol) => live.db = sol.db,
                        Outcome::Failure { .. } => {
                            return Err(format!("views: write {text} was not executable"));
                        }
                    }
                }
                Op::Read { query, a, b, .. } => {
                    t.read_ms.push(util::ms(dt));
                    report.check(check_view_answer(query, a, b, out.is_success(), &model));
                    if let Some(tr) = tr.as_deref_mut() {
                        let atom = Atom::new(query, vec![Term::int(a), Term::int(b)]);
                        let mat = live.mat().clone();
                        let held = tr.span("incremental.holds", |_| mat.holds(&live.db, &atom));
                        report.check(check_view_answer(query, a, b, held == Some(true), &model));
                    }
                }
            }
        }
        between()?;
        if Instant::now() >= deadline {
            return Ok(t);
        }
    }
}

fn closure_of(live: &Live) -> BTreeSet<(i64, i64)> {
    live.mat()
        .facts(&live.db, Pred::new("path", 2))
        .iter()
        .filter_map(|t| match t.values() {
            [Value::Int(a), Value::Int(b)] => Some((*a, *b)),
            _ => None,
        })
        .collect()
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut parse_ms, mut build_ms) = (Vec::new(), Vec::new());
    let (setup_times, mut live) = timed_setups(
        SETUPS,
        || {
            let live = setup(opts.seed)?;
            parse_ms.push(live.parse_ms);
            build_ms.push(live.build_ms);
            Ok(live)
        },
        |_| Ok(()),
    )?;
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut sampler = SetupSampler::new(Duration::from_secs_f64(seconds / RUN_SETUPS), setup_times);
    let mut t = phase(&mut live, seconds, None, &mut report, &mut || {
        sampler.poll(|| setup(opts.seed))
    })?;
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
        let mat = live.mat().clone();
        let before = (
            mat.maintain_ns(),
            mat.delta_tuples(),
            mat.rebuilds(),
            mat.state_hits(),
        );
        let mut tr = Tracer::new(Instant::now(), 1);
        let traced = phase(&mut live, seconds, Some(&mut tr), &mut report, &mut || {
            Ok(())
        })?;
        report.attempted += traced.ops;
        let writes = traced.writes.max(1) as f64;
        let hits = mat.state_hits() - before.3;
        let rebuilds = mat.rebuilds() - before.2;
        report.layer("incremental.build_ms", util::median(&mut build_ms));
        report.layer("parser.program_ms", util::median(&mut parse_ms));
        report.layer(
            "incremental.maintain_us_per_write",
            (mat.maintain_ns() - before.0) as f64 / 1e3 / writes,
        );
        report.layer(
            "incremental.delta_tuples_per_write",
            (mat.delta_tuples() - before.1) as f64 / writes,
        );
        report.layer("incremental.rebuilds", rebuilds as f64);
        let mut spans = SpanSet::default();
        spans.absorb(tr);
        report.layer(
            "incremental.probe_us",
            spans.p50_us("incremental.holds", None),
        );
        report.layer(
            "incremental.state_hit_rate",
            hits as f64 / (hits + rebuilds).max(1) as f64,
        );
        spans.finish("views", traced.busy_s, &mut report)?;
    }
    report.check(check_closure(&closure_of(&live), &live.model));
    Ok(report)
}
