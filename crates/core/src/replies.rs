//! The warm replies: a predict's answer rendered once and replayed, and
//! the request lines such a reply answered, each under a budget.
//!
//! A warm predict replays a reply rendered once: the service keeps one
//! per (signature digest, target), built from a verified read, served
//! while its prediction is indexed, dropped by a put, within
//! [`RESIDENT_BUDGET`] (DESIGN.md, "A warm prediction is answered from
//! memory, by the service"). A request line such a reply answered is
//! kept too, with the alias and target it names, and found again before
//! any parse, within [`LINE_BUDGET`].
//!
//! Lock order: [`Replies`] may be taken alone or under the service's
//! `store` lock, `store` is never taken under it, and it is held for a
//! lookup or an insert only, never across store I/O, a parse or a
//! render. Its mutex is private to this module and each method takes it
//! for one map operation, so no caller can hold it for longer.

use crate::protocol::{PredictOutcome, Response};
use parking_lot::Mutex;
use pas2p_store::StoreKey;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Bytes of payload and line the warm replies may hold (~5 000 replies).
const RESIDENT_BUDGET: usize = 8 << 20;

/// Bytes the kept request lines may hold, apart from the replies' budget
/// so that no line clears a reply (~6 000 canonical predict lines).
const LINE_BUDGET: usize = 1 << 20;

/// The longest request line kept; a canonical predict line is ~70 bytes.
const MAX_KEPT_LINE: usize = 256;

/// A predict's answer: the prediction's key, the outcome with its
/// payload, the response's `result` and the rendered line.
pub(crate) struct Reply {
    pub(crate) key: StoreKey,
    pub(crate) outcome: PredictOutcome,
    pub(crate) value: Value,
    line: Arc<str>,
}

impl Reply {
    /// The one place a stored prediction is parsed and a predict
    /// response rendered.
    pub(crate) fn new(key: StoreKey, outcome: PredictOutcome) -> Result<Reply, String> {
        let prediction: Value = serde_json::from_str(&outcome.prediction_json)
            .map_err(|e| format!("stored prediction does not parse: {e}"))?;
        let value = json!({
            "app": outcome.app,
            "target": outcome.target,
            "cached": outcome.cached,
            "signature_cached": outcome.signature_cached,
            "prediction": prediction,
        });
        let line = Response::success("predict", value.clone()).render().into();
        Ok(Reply {
            key,
            outcome,
            value,
            line,
        })
    }

    /// The reply as a response, with a deep copy of its `result` only
    /// when asked for one: the line alone is what goes on the wire.
    pub(crate) fn response(&self, result: bool) -> Response {
        Response {
            ok: true,
            op: "predict",
            result: result.then(|| self.value.clone()),
            line: Some(Arc::clone(&self.line)),
            ..Response::default()
        }
    }
}

/// The warm replies and kept lines behind their one mutex.
#[derive(Default)]
pub(crate) struct Replies(Mutex<Kept>);

/// The replies by (signature digest, target name), and the bytes put in
/// since the last clear; an insert that would pass the budget clears.
/// Beside them, the (signature alias, target name) of each request line a
/// kept or verified reply answered, under a budget of its own.
#[derive(Default)]
struct Kept {
    by_slot: HashMap<(String, String), Arc<Reply>>,
    bytes: usize,
    by_line: HashMap<String, (String, String)>,
    line_bytes: usize,
}

impl Replies {
    /// The alias and target a kept request line names.
    pub(crate) fn line(&self, line: &str) -> Option<(String, String)> {
        self.0.lock().by_line.get(line).cloned()
    }

    /// The reply kept for `slot`.
    pub(crate) fn get(&self, slot: &(String, String)) -> Option<Arc<Reply>> {
        self.0.lock().by_slot.get(slot).cloned()
    }

    /// Keep `reply` for `slot`, unless it alone is larger than
    /// [`RESIDENT_BUDGET`]; one that would pass the budget clears the
    /// replies first, never the lines.
    pub(crate) fn insert(&self, slot: (String, String), reply: Arc<Reply>) {
        let bytes = reply.outcome.prediction_json.len() + reply.line.len();
        if bytes > RESIDENT_BUDGET {
            return;
        }
        let mut kept = self.0.lock();
        if kept.bytes + bytes > RESIDENT_BUDGET {
            kept.by_slot.clear();
            kept.bytes = 0;
        }
        kept.bytes += bytes;
        kept.by_slot.insert(slot, reply);
    }

    /// Keep `line` for the alias and target it resolved to, unless it is
    /// longer than [`MAX_KEPT_LINE`]; one that would pass [`LINE_BUDGET`]
    /// clears the lines first, never the replies.
    pub(crate) fn insert_line(&self, line: Option<&str>, alias: &str, target: &str) {
        let Some(line) = line.filter(|line| line.len() <= MAX_KEPT_LINE) else {
            return;
        };
        let bytes = line.len() + alias.len() + target.len();
        let mut kept = self.0.lock();
        if kept.line_bytes + bytes > LINE_BUDGET {
            kept.by_line.clear();
            kept.line_bytes = 0;
        }
        kept.line_bytes += bytes;
        let named = (alias.to_string(), target.to_string());
        kept.by_line.insert(line.to_string(), named);
    }

    /// Drop the reply kept for `slot`: its prediction was put again.
    pub(crate) fn remove(&self, slot: &(String, String)) {
        self.0.lock().by_slot.remove(slot);
    }
}

#[cfg(test)]
impl Replies {
    /// The replies kept and their bytes, and the lines kept, each with
    /// the alias and target it names, and their bytes.
    pub(crate) fn census(&self) -> (usize, usize, HashMap<String, (String, String)>, usize) {
        let kept = self.0.lock();
        let lines = kept.by_line.clone();
        (kept.by_slot.len(), kept.bytes, lines, kept.line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reply whose payload is `len` bytes and whose line is 4.
    fn reply(len: usize) -> Arc<Reply> {
        Arc::new(Reply {
            key: StoreKey {
                digest: String::new(),
                fingerprint: String::new(),
            },
            outcome: PredictOutcome {
                app: String::new(),
                target: String::new(),
                prediction_json: "x".repeat(len),
                cached: true,
                signature_cached: true,
            },
            value: Value::Null,
            line: Arc::from("line"),
        })
    }

    fn slot(digest: &str) -> (String, String) {
        (digest.to_string(), String::new())
    }

    /// A line of `len` bytes, distinct for each `n`.
    fn line(n: usize, len: usize) -> String {
        format!("{n:0len$}")
    }

    /// (slots, bytes, lines, line bytes) as they stand.
    fn sizes(replies: &Replies) -> (usize, usize, usize, usize) {
        let (slots, bytes, lines, line_bytes) = replies.census();
        (slots, bytes, lines.len(), line_bytes)
    }

    #[test]
    fn a_reply_larger_than_the_budget_is_not_kept() {
        let replies = Replies::default();
        replies.insert(slot("a"), reply(100));
        replies.insert(slot("b"), reply(RESIDENT_BUDGET));
        assert!(replies.get(&slot("b")).is_none());
        assert!(replies.get(&slot("a")).is_some(), "and it clears nothing");
        assert_eq!(sizes(&replies), (1, 104, 0, 0));
    }

    #[test]
    fn a_reply_that_would_pass_the_budget_clears_the_replies_not_the_lines() {
        let replies = Replies::default();
        replies.insert_line(Some("{}"), "alias", "target");
        let third = RESIDENT_BUDGET / 3;
        for digest in ["a", "b", "c"] {
            replies.insert(slot(digest), reply(third));
            assert!(replies.census().1 <= RESIDENT_BUDGET);
        }
        // The third insert went over: the replies were cleared first.
        assert!(replies.get(&slot("a")).is_none());
        assert!(replies.get(&slot("b")).is_none());
        assert!(replies.get(&slot("c")).is_some());
        assert_eq!(sizes(&replies), (1, third + 4, 1, 2 + 5 + 6));
        let named = ("alias".to_string(), "target".to_string());
        assert_eq!(replies.line("{}"), Some(named));
    }

    #[test]
    fn a_line_that_would_pass_its_budget_clears_the_lines_not_the_replies() {
        let replies = Replies::default();
        replies.insert(slot("a"), reply(100));
        // Lines of MAX_KEPT_LINE bytes with their alias and target: the
        // one after the last that fits clears the lines.
        let fit = LINE_BUDGET / MAX_KEPT_LINE;
        for n in 0..fit {
            replies.insert_line(Some(&line(n, MAX_KEPT_LINE - 2)), "a", "b");
        }
        assert_eq!(sizes(&replies), (1, 104, fit, LINE_BUDGET));
        let last = line(fit, MAX_KEPT_LINE - 2);
        replies.insert_line(Some(&last), "a", "b");
        assert_eq!(sizes(&replies), (1, 104, 1, MAX_KEPT_LINE));
        assert!(replies.line(&last).is_some());
        assert!(replies.line(&line(0, MAX_KEPT_LINE - 2)).is_none());
        assert!(replies.get(&slot("a")).is_some(), "the reply stays");
    }

    #[test]
    fn a_line_longer_than_the_longest_kept_is_not_kept() {
        let replies = Replies::default();
        let longest = line(0, MAX_KEPT_LINE);
        replies.insert_line(Some(&longest), "", "");
        assert!(replies.line(&longest).is_some());
        let longer = line(1, MAX_KEPT_LINE + 1);
        replies.insert_line(Some(&longer), "", "");
        assert!(replies.line(&longer).is_none());
        assert_eq!(sizes(&replies), (0, 0, 1, MAX_KEPT_LINE));
    }
}
