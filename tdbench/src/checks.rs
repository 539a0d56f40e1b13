//! Correctness checks, each computed apart from the program: the
//! benchmark keeps its own model of what every workload did (acked
//! transfers, generated event pairs, constructed verdicts, an edge set)
//! and compares the program's results against that model, never against
//! a stored copy of earlier output.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Ledger: each account's final balance is its seed balance plus acked
/// transfers in minus acked transfers out; the total is conserved; the
/// acked commit sequence numbers are distinct and dense from `first_seq`.
pub fn check_ledger(
    seed: &BTreeMap<String, i64>,
    acked: &[(String, String, i64)],
    seqs: &[u64],
    first_seq: u64,
    recovered: &BTreeMap<String, i64>,
) -> Result<(), String> {
    let mut expect = seed.clone();
    for (from, to, amt) in acked {
        *expect
            .get_mut(from)
            .ok_or_else(|| format!("transfer from unknown account {from}"))? -= amt;
        *expect
            .get_mut(to)
            .ok_or_else(|| format!("transfer to unknown account {to}"))? += amt;
    }
    if recovered.len() != expect.len() {
        return Err(format!(
            "ledger: {} accounts recovered, {} expected",
            recovered.len(),
            expect.len()
        ));
    }
    for (acct, want) in &expect {
        match recovered.get(acct) {
            Some(got) if got == want => {}
            got => return Err(format!("ledger: {acct} has {got:?}, expected {want}")),
        }
    }
    let total_seed: i64 = seed.values().sum();
    let total_now: i64 = recovered.values().sum();
    if total_seed != total_now {
        return Err(format!("ledger: total {total_now} != seeded {total_seed}"));
    }
    let mut sorted = seqs.to_vec();
    sorted.sort_unstable();
    for (i, s) in sorted.iter().enumerate() {
        if *s != first_seq + i as u64 {
            return Err(format!(
                "ledger: acked seqs not dense from {first_seq}: position {i} holds {s}"
            ));
        }
    }
    if sorted.len() != acked.len() {
        return Err(format!(
            "ledger: {} seqs for {} acked transfers",
            sorted.len(),
            acked.len()
        ));
    }
    Ok(())
}

/// Lab: the recovered `handled` relation is exactly the generated pairs,
/// the final `processed(N)` poll has `N` = pairs, and every pair matched
/// and fired exactly once.
pub fn check_lab(
    pairs: &BTreeSet<(i64, i64)>,
    handled: &BTreeSet<(i64, i64)>,
    processed: i64,
    matched: u64,
    fired: u64,
) -> Result<(), String> {
    if handled != pairs {
        let missing = pairs.difference(handled).next();
        let extra = handled.difference(pairs).next();
        return Err(format!(
            "lab: handled has {} tuples for {} pairs (first missing {missing:?}, first extra {extra:?})",
            handled.len(),
            pairs.len()
        ));
    }
    let n = pairs.len() as u64;
    if processed != n as i64 {
        return Err(format!("lab: processed({processed}), expected {n}"));
    }
    if matched != n || fired != n {
        return Err(format!(
            "lab: matched={matched} fired={fired}, expected {n} each (exactly once)"
        ));
    }
    Ok(())
}

/// Search: every backend's verdict equals the goal's constructed verdict
/// (so run and decide agree), and a successful transfer goal conserves
/// money.
pub fn check_search(
    goal: &str,
    expected: bool,
    verdicts: &[(&str, bool)],
    money: Option<(i64, i64)>,
) -> Result<(), String> {
    for (who, got) in verdicts {
        if *got != expected {
            return Err(format!(
                "search: {goal}: {who} says executable={got}, constructed as {expected}"
            ));
        }
    }
    if let Some((before, after)) = money {
        if before != after {
            return Err(format!("search: {goal}: money {before} -> {after}"));
        }
    }
    Ok(())
}

/// The views workload's own model of the graph: directed edges and blocked
/// nodes, answered by breadth-first search.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    pub edges: BTreeSet<(i64, i64)>,
    pub blocked: BTreeSet<i64>,
}

impl Graph {
    /// Nodes reachable from `a` by a non-empty path.
    pub fn reachable_from(&self, a: i64) -> BTreeSet<i64> {
        let mut adj: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(x, y) in &self.edges {
            adj.entry(x).or_default().push(y);
        }
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<i64> = adj.get(&a).into_iter().flatten().copied().collect();
        while let Some(n) = queue.pop_front() {
            if seen.insert(n) {
                queue.extend(adj.get(&n).into_iter().flatten().copied());
            }
        }
        seen
    }

    pub fn path(&self, a: i64, b: i64) -> bool {
        self.reachable_from(a).contains(&b)
    }

    pub fn open(&self, a: i64, b: i64) -> bool {
        self.path(a, b) && !self.blocked.contains(&b)
    }

    /// The whole `path` relation.
    pub fn closure(&self) -> BTreeSet<(i64, i64)> {
        let nodes: BTreeSet<i64> = self.edges.iter().map(|&(x, _)| x).collect();
        let mut out = BTreeSet::new();
        for a in nodes {
            for b in self.reachable_from(a) {
                out.insert((a, b));
            }
        }
        out
    }
}

/// Views: one query answer against the model.
pub fn check_view_answer(
    query: &str,
    a: i64,
    b: i64,
    got: bool,
    model: &Graph,
) -> Result<(), String> {
    let want = match query {
        "path" => model.path(a, b),
        "open" => model.open(a, b),
        other => return Err(format!("views: unknown query {other}")),
    };
    if got != want {
        return Err(format!("views: {query}({a}, {b}) = {got}, BFS says {want}"));
    }
    Ok(())
}

/// Views: the full materialized `path` closure against the model's.
pub fn check_closure(got: &BTreeSet<(i64, i64)>, model: &Graph) -> Result<(), String> {
    let want = model.closure();
    if *got != want {
        return Err(format!(
            "views: path closure has {} tuples, BFS gives {} (first extra {:?}, first missing {:?})",
            got.len(),
            want.len(),
            got.difference(&want).next(),
            want.difference(got).next()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed balances, acked transfers, acked seqs, recovered balances.
    type LedgerFixture = (
        BTreeMap<String, i64>,
        Vec<(String, String, i64)>,
        Vec<u64>,
        BTreeMap<String, i64>,
    );

    fn ledger_fixture() -> LedgerFixture {
        let seed: BTreeMap<String, i64> = [
            ("a".to_owned(), 100),
            ("b".to_owned(), 50),
            ("c".to_owned(), 10),
        ]
        .into();
        let acked = vec![
            ("a".to_owned(), "b".to_owned(), 1),
            ("b".to_owned(), "c".to_owned(), 1),
            ("a".to_owned(), "c".to_owned(), 1),
        ];
        let recovered: BTreeMap<String, i64> = [
            ("a".to_owned(), 98),
            ("b".to_owned(), 50),
            ("c".to_owned(), 12),
        ]
        .into();
        (seed, acked, vec![3, 1, 2], recovered)
    }

    #[test]
    fn ledger_accepts_a_consistent_result() {
        let (seed, acked, seqs, recovered) = ledger_fixture();
        check_ledger(&seed, &acked, &seqs, 1, &recovered).unwrap();
    }

    #[test]
    fn ledger_rejects_a_shifted_balance() {
        let (seed, acked, seqs, mut recovered) = ledger_fixture();
        *recovered.get_mut("b").unwrap() += 1;
        *recovered.get_mut("c").unwrap() -= 1;
        assert!(check_ledger(&seed, &acked, &seqs, 1, &recovered).is_err());
    }

    #[test]
    fn ledger_rejects_created_money() {
        let (seed, acked, seqs, mut recovered) = ledger_fixture();
        *recovered.get_mut("a").unwrap() += 5;
        assert!(check_ledger(&seed, &acked, &seqs, 1, &recovered).is_err());
    }

    #[test]
    fn ledger_rejects_a_gap_or_duplicate_in_seqs() {
        let (seed, acked, _, recovered) = ledger_fixture();
        assert!(check_ledger(&seed, &acked, &[1, 2, 4], 1, &recovered).is_err());
        assert!(check_ledger(&seed, &acked, &[1, 2, 2], 1, &recovered).is_err());
    }

    fn lab_pairs() -> BTreeSet<(i64, i64)> {
        (0..10).map(|s| (s, s % 3)).collect()
    }

    #[test]
    fn lab_accepts_exactly_once() {
        let pairs = lab_pairs();
        check_lab(&pairs, &pairs.clone(), 10, 10, 10).unwrap();
    }

    #[test]
    fn lab_rejects_a_dropped_handled_tuple() {
        let pairs = lab_pairs();
        let mut handled = pairs.clone();
        handled.remove(&(4, 1));
        assert!(check_lab(&pairs, &handled, 10, 10, 10).is_err());
    }

    #[test]
    fn lab_rejects_a_double_fire_or_wrong_count() {
        let pairs = lab_pairs();
        assert!(check_lab(&pairs, &pairs.clone(), 10, 10, 11).is_err());
        assert!(check_lab(&pairs, &pairs.clone(), 9, 10, 10).is_err());
    }

    #[test]
    fn search_rejects_a_wrong_verdict_and_lost_money() {
        check_search(
            "g",
            true,
            &[("seq", true), ("decide", true)],
            Some((10, 10)),
        )
        .unwrap();
        assert!(check_search("g", false, &[("seq", true)], None).is_err());
        assert!(check_search("g", true, &[("seq", true), ("decide", false)], None).is_err());
        assert!(check_search("g", true, &[("seq", true)], Some((10, 9))).is_err());
    }

    fn graph() -> Graph {
        Graph {
            edges: [(1, 2), (2, 3), (3, 4), (5, 6)].into(),
            blocked: [4].into(),
        }
    }

    #[test]
    fn views_bfs_model() {
        let g = graph();
        assert!(g.path(1, 4) && !g.path(4, 1) && !g.path(1, 1) && !g.path(1, 6));
        assert!(g.open(1, 3) && !g.open(1, 4));
        assert_eq!(g.closure().len(), 7);
    }

    #[test]
    fn views_rejects_a_flipped_reachability_answer() {
        let g = graph();
        check_view_answer("path", 1, 4, true, &g).unwrap();
        assert!(check_view_answer("path", 1, 4, false, &g).is_err());
        assert!(check_view_answer("open", 1, 4, true, &g).is_err());
        assert!(check_view_answer("path", 1, 6, true, &g).is_err());
    }

    #[test]
    fn views_rejects_a_corrupted_closure() {
        let g = graph();
        let mut closure = g.closure();
        check_closure(&closure, &g).unwrap();
        closure.remove(&(1, 3));
        assert!(check_closure(&closure, &g).is_err());
        closure.insert((1, 3));
        closure.insert((4, 1));
        assert!(check_closure(&closure, &g).is_err());
    }
}
