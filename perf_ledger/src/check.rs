//! Output correctness: what each op's response must look like.
//!
//! A request is *failed* when its response breaks one of these rules or is
//! an error other than `DuplicateKey` on a request that inserts.  Duplicate
//! keys are a legal TATP outcome (call-forwarding churn re-inserts rows) and
//! are counted separately as legal aborts.

use plp_core::{ActionOutput, ErrorCode, Op, Response};
use plp_workloads::fields;
use plp_workloads::tatp::{sub_fields, SUBSCRIBER, SUB_NBR_OFFSET};

/// What one op's output must satisfy.  `Copy`, so a pipelined client can
/// keep it beside the in-flight request instead of the op itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// One subscriber row whose `SUB_NBR` belongs to `s_id`.
    SubscriberRow { s_id: u64 },
    /// Zero or one row.
    OptionalRow,
    /// Ascending keys inside `[lo, hi]`, one row per key.
    Range { lo: u64, hi: u64 },
    /// `values == [1]`; `vlr` is the location the update wrote.
    Updated { s_id: u64, vlr: u64 },
    /// `values == [0]` or `[1]`.
    Deleted,
    /// Empty output, or the whole request fails with `DuplicateKey`.
    Inserted,
}

impl Expect {
    pub fn of(op: &Op) -> Expect {
        match op {
            Op::Get { table, key } if *table == SUBSCRIBER => Expect::SubscriberRow { s_id: *key },
            Op::Get { .. } => Expect::OptionalRow,
            Op::ReadRange { lo, hi, .. } => Expect::Range { lo: *lo, hi: *hi },
            Op::Update { key, record, .. } => Expect::Updated {
                s_id: *key,
                vlr: fields::get_u64(record, sub_fields::VLR_LOCATION),
            },
            Op::Delete { .. } => Expect::Deleted,
            Op::Insert { .. } => Expect::Inserted,
        }
    }

    fn holds(self, out: &ActionOutput) -> bool {
        match self {
            Expect::SubscriberRow { s_id } => {
                out.values.is_empty()
                    && out.rows.len() == 1
                    && out.rows[0].len() == sub_fields::RECORD_SIZE
                    && fields::get_u64(&out.rows[0], sub_fields::SUB_NBR) == s_id + SUB_NBR_OFFSET
            }
            Expect::OptionalRow => out.values.is_empty() && out.rows.len() <= 1,
            Expect::Range { lo, hi } => {
                out.values.len() == out.rows.len()
                    && out.values.windows(2).all(|w| w[0] < w[1])
                    && out.values.iter().all(|k| (lo..=hi).contains(k))
            }
            Expect::Updated { .. } => out.rows.is_empty() && out.values == [1],
            Expect::Deleted => out.rows.is_empty() && (out.values == [0] || out.values == [1]),
            Expect::Inserted => out.rows.is_empty() && out.values.is_empty(),
        }
    }
}

/// The verdict on one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    /// `DuplicateKey` on a request that inserts: legal, nothing committed.
    LegalAbort,
    Failed,
}

/// Judge `response` against the expectations of the request's ops, in op
/// order.
pub fn judge(expects: &[Expect], response: &Response) -> Verdict {
    match response {
        Response::Ok(outputs) => {
            let all_hold = outputs.len() == expects.len()
                && expects.iter().zip(outputs).all(|(e, out)| e.holds(out));
            if all_hold {
                Verdict::Correct
            } else {
                Verdict::Failed
            }
        }
        Response::Err {
            code: ErrorCode::DuplicateKey,
            ..
        } if expects.contains(&Expect::Inserted) => Verdict::LegalAbort,
        Response::Err { .. } => Verdict::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_workloads::tatp::{Tatp, CALL_FORWARDING};

    fn ok(out: ActionOutput) -> Response {
        Response::Ok(vec![out])
    }

    #[test]
    fn subscriber_row_must_match_its_key() {
        let want = [Expect::SubscriberRow { s_id: 9 }];
        let row = |s| ok(ActionOutput::with_rows(vec![Tatp::subscriber_record(s)]));
        assert_eq!(judge(&want, &row(9)), Verdict::Correct);
        assert_eq!(judge(&want, &row(10)), Verdict::Failed);
        assert_eq!(
            judge(&want, &ok(ActionOutput::empty())),
            Verdict::Failed,
            "loaded subscribers always exist"
        );
        assert_eq!(
            judge(&want, &ok(ActionOutput::with_rows(vec![vec![0; 8]]))),
            Verdict::Failed
        );
    }

    #[test]
    fn range_rows_are_ascending_inside_bounds_and_aligned() {
        let want = [Expect::Range { lo: 32, hi: 63 }];
        let range = |keys: Vec<u64>, rows: usize| {
            ok(ActionOutput {
                rows: vec![vec![0; 40]; rows],
                values: keys,
            })
        };
        assert_eq!(judge(&want, &range(vec![], 0)), Verdict::Correct);
        assert_eq!(judge(&want, &range(vec![32, 40, 63], 3)), Verdict::Correct);
        assert_eq!(judge(&want, &range(vec![40, 33], 2)), Verdict::Failed);
        assert_eq!(judge(&want, &range(vec![64], 1)), Verdict::Failed);
        assert_eq!(judge(&want, &range(vec![33, 34], 1)), Verdict::Failed);
    }

    #[test]
    fn writes_report_their_effect() {
        let updated = [Expect::Updated { s_id: 1, vlr: 2 }];
        let values = |v: Vec<u64>| ok(ActionOutput::with_values(v));
        assert_eq!(judge(&updated, &values(vec![1])), Verdict::Correct);
        assert_eq!(judge(&updated, &values(vec![0])), Verdict::Failed);
        assert_eq!(
            judge(&[Expect::Deleted], &values(vec![0])),
            Verdict::Correct
        );
        assert_eq!(judge(&[Expect::Deleted], &values(vec![2])), Verdict::Failed);
        assert_eq!(
            judge(&[Expect::Inserted], &ok(ActionOutput::empty())),
            Verdict::Correct
        );
    }

    #[test]
    fn only_duplicate_key_on_an_insert_is_a_legal_error() {
        let dup = Response::err(ErrorCode::DuplicateKey, "dup");
        let abort = Response::err(ErrorCode::Abort, "timeout");
        assert_eq!(judge(&[Expect::Inserted], &dup), Verdict::LegalAbort);
        assert_eq!(judge(&[Expect::Inserted], &abort), Verdict::Failed);
        assert_eq!(judge(&[Expect::Deleted], &dup), Verdict::Failed);
        // A multi-op request inherits the rule from the insert it carries.
        let write = [Expect::Updated { s_id: 1, vlr: 2 }, Expect::Inserted];
        assert_eq!(judge(&write, &dup), Verdict::LegalAbort);
    }

    #[test]
    fn output_count_must_match_op_count() {
        let want = [Expect::OptionalRow, Expect::OptionalRow];
        assert_eq!(judge(&want, &ok(ActionOutput::empty())), Verdict::Failed);
    }

    #[test]
    fn expectations_follow_the_op() {
        let update = Op::Update {
            table: SUBSCRIBER,
            key: 4,
            record: {
                let mut r = Tatp::subscriber_record(4);
                fields::set_u64(&mut r, sub_fields::VLR_LOCATION, 77);
                r
            },
        };
        assert_eq!(Expect::of(&update), Expect::Updated { s_id: 4, vlr: 77 });
        let range = Op::ReadRange {
            table: CALL_FORWARDING,
            lo: 64,
            hi: 95,
        };
        assert_eq!(Expect::of(&range), Expect::Range { lo: 64, hi: 95 });
    }
}
