//! Answer checks. Every served row and every offline report is compared
//! with answers computed in set-up, in process, from the generated trees;
//! a wrong answer aborts the run.

use bfhrf::{Bfh, FrozenComparator, RfAverage, RunGuard};
use bfhrf_cli::proto::{Response, ScoreRow};
use phylo::{BipartitionScratch, TaxonSet, Tree};

/// Expected `RfAverage` of each query, through the frozen comparator over
/// a hash built directly from the generated trees (no file, no index, no
/// daemon in between).
pub fn expected_from(bfh: &Bfh, taxa: &TaxonSet, queries: &[Tree]) -> Vec<RfAverage> {
    let frozen = bfh.freeze();
    FrozenComparator::new(&frozen, taxa)
        .average_all_scratch_guarded(
            queries,
            &RunGuard::default(),
            &mut BipartitionScratch::new(),
        )
        .expect("generated queries score against generated refs")
        .into_iter()
        .map(|s| s.rf)
        .collect()
}

/// The `avgrf` report the CLI renders for these answers.
pub fn render_report(answers: &[RfAverage]) -> String {
    let mut out = String::from("query\tavg_rf\n");
    for (i, rf) in answers.iter().enumerate() {
        out.push_str(&format!("{i}\t{:.6}\n", rf.average()));
    }
    out
}

/// Check one `batch` response for frame `frame` (queries
/// `frame*len .. frame*len+len` of the served set). `tables[snap % 2]`
/// holds the expected answers of the snapshot the response names: the
/// bin-mixed writer alternates add and remove, so even swap ids are the
/// base collection and odd ones the base plus the writer trees. Workloads
/// without writers pass the base table twice.
pub fn check_scores(
    resp: &Response,
    first_query: usize,
    len: usize,
    tables: [&[RfAverage]; 2],
) -> Result<u64, String> {
    let (scores, snap) = match resp {
        Response::Scores { scores, snap, .. } => (scores, *snap),
        Response::Error { message, .. } => return Err(format!("batch refused: {message}")),
        other => return Err(format!("batch answered {other:?}")),
    };
    let table = tables[(snap % 2) as usize];
    if scores.len() != len {
        return Err(format!("{} rows for {len} queries", scores.len()));
    }
    for (i, row) in scores.iter().enumerate() {
        let want = &table[first_query + i];
        if !row_matches(row, i, want) {
            return Err(format!(
                "snapshot {snap}, query {}: served {row:?}, expected {want:?}",
                first_query + i
            ));
        }
    }
    Ok(snap)
}

fn row_matches(row: &ScoreRow, index: usize, want: &RfAverage) -> bool {
    row.index == index
        && row.left == want.left
        && row.right == want.right
        && row.n_refs == want.n_refs
        && row.avg == want.average()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rf(left: u64, right: u64, n_refs: usize) -> RfAverage {
        RfAverage {
            left,
            right,
            n_refs,
        }
    }

    fn scores(snap: u64, answers: &[RfAverage]) -> Response {
        Response::Scores {
            n_taxa: 8,
            generation: 0,
            snap,
            scores: answers
                .iter()
                .enumerate()
                .map(|(index, a)| ScoreRow {
                    index,
                    left: a.left,
                    right: a.right,
                    n_refs: a.n_refs,
                    avg: a.average(),
                })
                .collect(),
            notes: vec![],
        }
    }

    #[test]
    fn parity_picks_the_table_of_the_named_snapshot() {
        let base = [rf(4, 2, 10), rf(6, 0, 10), rf(1, 1, 10)];
        let plus = [rf(5, 3, 14), rf(7, 1, 14), rf(2, 2, 14)];
        let tables = [&base[..], &plus[..]];
        assert_eq!(check_scores(&scores(0, &base[1..]), 1, 2, tables), Ok(0));
        assert_eq!(check_scores(&scores(3, &plus[1..]), 1, 2, tables), Ok(3));
        // Right rows, wrong snapshot parity.
        assert!(check_scores(&scores(2, &plus[1..]), 1, 2, tables).is_err());
        assert!(check_scores(&scores(1, &base[1..]), 1, 2, tables).is_err());
    }

    #[test]
    fn a_corrupted_row_is_rejected() {
        let base = [rf(4, 2, 10), rf(6, 0, 10)];
        let tables = [&base[..], &base[..]];
        let good = scores(0, &base);
        assert!(check_scores(&good, 0, 2, tables).is_ok());
        for corrupt in 0..4 {
            let mut bad = good.clone();
            if let Response::Scores { scores, .. } = &mut bad {
                match corrupt {
                    0 => scores[1].left += 1,
                    1 => scores[1].right += 2,
                    2 => scores[1].avg += 1e-9,
                    _ => scores[1].index = 0,
                }
            }
            assert!(
                check_scores(&bad, 0, 2, tables).is_err(),
                "corruption {corrupt}"
            );
        }
        // Missing rows and refusals fail too.
        assert!(check_scores(&scores(0, &base[..1]), 0, 2, tables).is_err());
        let refused = Response::Error {
            code: bfhrf_cli::proto::ErrorCode::Busy,
            outcome: bfhrf_cli::proto::Outcome::Busy,
            message: "busy".into(),
        };
        assert!(check_scores(&refused, 0, 2, tables).is_err());
    }

    #[test]
    fn report_matches_the_cli_rendering() {
        let report = render_report(&[rf(3, 1, 4), rf(0, 0, 4)]);
        assert_eq!(report, "query\tavg_rf\n0\t1.000000\n1\t0.000000\n");
    }
}
