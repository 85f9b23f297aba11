//! Serializable history artifacts — recorded concurrent histories as
//! durable, policy-tagged evidence.
//!
//! The paper's distributional-linearizability claims are statements
//! about *histories*: sequences of stamped operations whose replay
//! costs (dequeue rank, read deviation) must fit the policy's envelope.
//! In-process checking throws the history away after the verdict; a
//! [`HistoryArtifact`] instead gives it a stable serialized form so
//! external monitors (e.g. offline linearizability checkers) can
//! re-derive — or dispute — the verdict long after the run.
//!
//! # Format (`.histjsonl`)
//!
//! Line-oriented JSON, schema version [`SCHEMA_VERSION`]:
//!
//! * **Line 1** — the header object:
//!   `{"schema":1,"kind":"pq","policy":"sticky(s=16)",
//!   "envelope_factor":16,"threads":2,"events":N,...}` plus, when
//!   known, `"queues"` (the MultiQueue's `m`), `"source"` (the backend
//!   label that produced the history), `"cell"` and `"grid"` (the sweep
//!   coordinates the run came from).
//! * **Lines 2..=N+1** — one [`Event`] each, e.g.
//!   `{"thread":0,"label":{"op":"insert","priority":17},
//!   "invoke":3,"update":5,"response":8}`.
//!
//! All stamps and operation values are `u64` and round-trip losslessly
//! (the parser keeps integer literals exact). `envelope_factor` is
//! serialized as `null` when infinite (a policy with no rank bound) and
//! parsed back to `f64::INFINITY`.
//!
//! `threads` is the measured worker count; a sequential prefill worker
//! logs under thread id `threads`, so event thread ids may exceed the
//! header value by one.
//!
//! Loading is strict: a malformed or truncated artifact yields an
//! [`ArtifactError`] carrying the 1-based line number — never a panic —
//! so offline checkers can fail loudly and point at the damage.

use crate::json::{self, JsonObject, JsonValue};
use crate::spec::history::{Event, History};
use crate::spec::specs::{CounterOp, FifoOp, PqOp};

/// Current artifact schema version. Bump on any incompatible change;
/// loaders reject versions they do not understand.
pub const SCHEMA_VERSION: u64 = 1;

/// The typed events of an artifact: one variant per structure kind the
/// spec layer can replay.
#[derive(Debug, Clone)]
pub enum ArtifactHistory {
    /// A priority-queue history (replay costs are dequeue ranks).
    Pq(History<PqOp>),
    /// A counter history (replay costs are read deviations).
    Counter(History<CounterOp>),
    /// A FIFO history (replay costs are dequeue positions).
    Fifo(History<FifoOp>),
}

impl ArtifactHistory {
    /// The structure-kind tag used in the header (`pq`, `counter`,
    /// `fifo`).
    pub fn kind(&self) -> &'static str {
        match self {
            ArtifactHistory::Pq(_) => "pq",
            ArtifactHistory::Counter(_) => "counter",
            ArtifactHistory::Fifo(_) => "fifo",
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        match self {
            ArtifactHistory::Pq(h) => h.len(),
            ArtifactHistory::Counter(h) => h.len(),
            ArtifactHistory::Fifo(h) => h.len(),
        }
    }

    /// `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A recorded history plus the metadata an external monitor needs to
/// pick the right cost bound: which structure kind, which choice policy
/// produced it (label + envelope factor), how many workers ran, and —
/// when the run came from a sweep — which grid cell.
#[derive(Debug, Clone)]
pub struct HistoryArtifact {
    /// The stamped events, typed by structure kind.
    pub history: ArtifactHistory,
    /// Label of the [`PolicyCfg`](crate::PolicyCfg) that produced the
    /// history (`"none"` for structures without a choice policy).
    pub policy: String,
    /// The envelope scale factor for the kind's cost bound: the
    /// policy's rank factor `f` for queues (expected rank O(`f`·m)),
    /// the deviation scale `m·ln m` for counters (deviation O(scale)).
    /// Infinite means "no bound".
    pub envelope_factor: f64,
    /// Measured worker count (the prefill worker, if any, logs under
    /// thread id `threads`).
    pub threads: usize,
    /// The MultiQueue's internal queue count `m`, when the history came
    /// from one (lets monitors reconstruct the absolute rank bound).
    pub queues: Option<usize>,
    /// Label of the backend that produced the history.
    pub source: Option<String>,
    /// Sweep-cell name the run came from, e.g.
    /// `queue-balanced-audit/t=2/policy=sticky(s=4)`.
    pub cell: Option<String>,
    /// Swept grid coordinates as `(axis, value-label)` pairs; empty
    /// outside sweeps.
    pub grid: Vec<(String, String)>,
}

/// A load failure: the 1-based line of the artifact it occurred on and
/// what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactError {
    /// 1-based line number within the artifact text.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ArtifactError {}

fn err(line: usize, msg: impl Into<String>) -> ArtifactError {
    ArtifactError {
        line,
        msg: msg.into(),
    }
}

impl HistoryArtifact {
    fn new(history: ArtifactHistory, policy: String, envelope_factor: f64) -> Self {
        HistoryArtifact {
            history,
            policy,
            envelope_factor,
            threads: 0,
            queues: None,
            source: None,
            cell: None,
            grid: Vec::new(),
        }
    }

    /// Packages a priority-queue history with its policy provenance.
    pub fn pq(
        history: History<PqOp>,
        policy: impl Into<String>,
        envelope_factor: f64,
        queues: usize,
    ) -> Self {
        let history = ArtifactHistory::Pq(history);
        HistoryArtifact {
            queues: Some(queues),
            ..Self::new(history, policy.into(), envelope_factor)
        }
    }

    /// Packages a counter history; `deviation_scale` is the `m·ln m`
    /// scale its read-deviation bound is a multiple of (0 for the exact
    /// baseline, whose deviation must be 0).
    pub fn counter(history: History<CounterOp>, deviation_scale: f64) -> Self {
        let history = ArtifactHistory::Counter(history);
        Self::new(history, "none".to_string(), deviation_scale)
    }

    /// Packages a FIFO history (no policy provenance).
    pub fn fifo(history: History<FifoOp>) -> Self {
        let history = ArtifactHistory::Fifo(history);
        Self::new(history, "none".to_string(), f64::INFINITY)
    }

    /// The structure-kind tag (`pq`, `counter`, `fifo`).
    pub fn kind(&self) -> &'static str {
        self.history.kind()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Writes the header's descriptive fields — kind, policy, envelope
    /// factor, thread and event counts, and whichever of `queues`,
    /// `source`, `cell` and `grid` are known — into `o`, in the order
    /// the serialized header and `histcheck`'s verdicts list them.
    pub fn describe(&self, o: &mut JsonObject) {
        o.str("kind", self.kind())
            .str("policy", &self.policy)
            .f64("envelope_factor", self.envelope_factor)
            .u64("threads", self.threads as u64)
            .u64("events", self.len() as u64);
        if let Some(q) = self.queues {
            o.u64("queues", q as u64);
        }
        if let Some(s) = &self.source {
            o.str("source", s);
        }
        if let Some(c) = &self.cell {
            o.str("cell", c);
        }
        if !self.grid.is_empty() {
            o.obj("grid", |g| {
                for (k, v) in &self.grid {
                    g.str(k, v);
                }
            });
        }
    }

    /// Serializes the artifact to its line-oriented JSON form
    /// (header line + one line per event, each `\n`-terminated).
    pub fn to_json_lines(&self) -> String {
        let mut header = JsonObject::new();
        header.u64("schema", SCHEMA_VERSION);
        self.describe(&mut header);
        let mut out = header.finish();
        out.push('\n');
        match &self.history {
            ArtifactHistory::Pq(h) => emit_events(&mut out, &h.events, pq_label_json),
            ArtifactHistory::Counter(h) => emit_events(&mut out, &h.events, counter_label_json),
            ArtifactHistory::Fifo(h) => emit_events(&mut out, &h.events, fifo_label_json),
        }
        out
    }

    /// Parses an artifact from its line-oriented JSON form. The inverse
    /// of [`to_json_lines`](Self::to_json_lines): a serialized artifact
    /// parses back to an identical one (and replays to the identical
    /// verdict). Errors carry the 1-based line number of the damage.
    pub fn from_json_lines(text: &str) -> Result<Self, ArtifactError> {
        let mut lines = text.lines().enumerate();
        let (_, header_line) = lines.next().ok_or_else(|| err(1, "empty artifact"))?;
        let header =
            json::parse(header_line).map_err(|e| err(1, format!("malformed header: {e}")))?;
        let schema = header
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err(1, "header missing 'schema'"))?;
        if schema != SCHEMA_VERSION {
            return Err(err(
                1,
                format!("unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"),
            ));
        }
        let kind = header
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err(1, "header missing 'kind'"))?
            .to_string();
        let policy = header
            .get("policy")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err(1, "header missing 'policy'"))?
            .to_string();
        let envelope_factor = match header.get("envelope_factor") {
            Some(v) if v.is_null() => f64::INFINITY,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| err(1, "'envelope_factor' is not a number"))?,
            None => return Err(err(1, "header missing 'envelope_factor'")),
        };
        let threads = header
            .get("threads")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err(1, "header missing 'threads'"))? as usize;
        let expected = header
            .get("events")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| err(1, "header missing 'events'"))? as usize;
        let queues = match header.get("queues") {
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| err(1, "'queues' is not an unsigned integer"))?
                    as usize,
            ),
            None => None,
        };
        let str_field = |key: &str| -> Result<Option<String>, ArtifactError> {
            match header.get(key) {
                Some(v) => Ok(Some(
                    v.as_str()
                        .ok_or_else(|| err(1, format!("'{key}' is not a string")))?
                        .to_string(),
                )),
                None => Ok(None),
            }
        };
        let source = str_field("source")?;
        let cell = str_field("cell")?;
        let grid = match header.get("grid") {
            Some(v) => v
                .as_object()
                .ok_or_else(|| err(1, "'grid' is not an object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| err(1, format!("grid coordinate '{k}' is not a string")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };

        let history = match kind.as_str() {
            "pq" => ArtifactHistory::Pq(parse_events(&mut lines, expected, pq_label_parse)?),
            "counter" => {
                ArtifactHistory::Counter(parse_events(&mut lines, expected, counter_label_parse)?)
            }
            "fifo" => ArtifactHistory::Fifo(parse_events(&mut lines, expected, fifo_label_parse)?),
            other => return Err(err(1, format!("unknown structure kind '{other}'"))),
        };
        // Anything after the declared events is damage, not padding.
        for (idx, line) in lines {
            if !line.trim().is_empty() {
                return Err(err(
                    idx + 1,
                    format!("trailing data after the {expected} declared events"),
                ));
            }
        }
        Ok(HistoryArtifact {
            history,
            policy,
            envelope_factor,
            threads,
            queues,
            source,
            cell,
            grid,
        })
    }
}

// ---------------------------------------------------------------------
// Event emission
// ---------------------------------------------------------------------

fn emit_events<L>(out: &mut String, events: &[Event<L>], label_json: impl Fn(&L) -> String) {
    for e in events {
        let mut o = JsonObject::new();
        o.u64("thread", e.thread as u64)
            .raw("label", &label_json(&e.label))
            .u64("invoke", e.invoke)
            .u64("update", e.update)
            .u64("response", e.response);
        out.push_str(&o.finish());
        out.push('\n');
    }
}

fn pq_label_json(l: &PqOp) -> String {
    let mut o = JsonObject::new();
    match l {
        PqOp::Insert { priority } => o.str("op", "insert").u64("priority", *priority),
        PqOp::DeleteMin { removed } => o.str("op", "delete-min").u64("removed", *removed),
    };
    o.finish()
}

fn counter_label_json(l: &CounterOp) -> String {
    let mut o = JsonObject::new();
    match l {
        CounterOp::Inc => o.str("op", "inc"),
        CounterOp::Read { returned } => o.str("op", "read").u64("returned", *returned),
    };
    o.finish()
}

fn fifo_label_json(l: &FifoOp) -> String {
    let mut o = JsonObject::new();
    match l {
        FifoOp::Enqueue { id } => o.str("op", "enqueue").u64("id", *id),
        FifoOp::Dequeue { id } => o.str("op", "dequeue").u64("id", *id),
    };
    o.finish()
}

// ---------------------------------------------------------------------
// Event parsing
// ---------------------------------------------------------------------

fn parse_events<'a, L>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    expected: usize,
    label_parse: impl Fn(&JsonValue) -> Result<L, String>,
) -> Result<History<L>, ArtifactError> {
    let mut events = Vec::with_capacity(expected);
    for k in 0..expected {
        let Some((idx, line)) = lines.next() else {
            return Err(err(
                k + 2,
                format!("truncated artifact: header declares {expected} events, found {k}"),
            ));
        };
        let lineno = idx + 1;
        let v = json::parse(line).map_err(|e| err(lineno, format!("malformed event: {e}")))?;
        let field = |key: &str| -> Result<u64, ArtifactError> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| err(lineno, format!("event missing u64 field '{key}'")))
        };
        let label = label_parse(
            v.get("label")
                .ok_or_else(|| err(lineno, "event missing 'label'"))?,
        )
        .map_err(|msg| err(lineno, msg))?;
        events.push(Event {
            thread: field("thread")? as usize,
            label,
            invoke: field("invoke")?,
            update: field("update")?,
            response: field("response")?,
        });
    }
    Ok(History { events })
}

fn label_op(label: &JsonValue) -> Result<&str, String> {
    label
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "label missing 'op'".to_string())
}

fn label_u64(label: &JsonValue, key: &str) -> Result<u64, String> {
    label
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("label missing u64 field '{key}'"))
}

fn pq_label_parse(label: &JsonValue) -> Result<PqOp, String> {
    match label_op(label)? {
        "insert" => Ok(PqOp::Insert {
            priority: label_u64(label, "priority")?,
        }),
        "delete-min" => Ok(PqOp::DeleteMin {
            removed: label_u64(label, "removed")?,
        }),
        other => Err(format!("unknown pq op '{other}'")),
    }
}

fn counter_label_parse(label: &JsonValue) -> Result<CounterOp, String> {
    match label_op(label)? {
        "inc" => Ok(CounterOp::Inc),
        "read" => Ok(CounterOp::Read {
            returned: label_u64(label, "returned")?,
        }),
        other => Err(format!("unknown counter op '{other}'")),
    }
}

fn fifo_label_parse(label: &JsonValue) -> Result<FifoOp, String> {
    match label_op(label)? {
        "enqueue" => Ok(FifoOp::Enqueue {
            id: label_u64(label, "id")?,
        }),
        "dequeue" => Ok(FifoOp::Dequeue {
            id: label_u64(label, "id")?,
        }),
        other => Err(format!("unknown fifo op '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::checker::replay_artifact;

    fn ev<L>(thread: usize, label: L, stamp: u64) -> Event<L> {
        Event {
            thread,
            label,
            invoke: stamp * 10,
            update: stamp * 10 + 1,
            response: stamp * 10 + 2,
        }
    }

    fn sample_pq() -> HistoryArtifact {
        let h = History {
            events: vec![
                ev(0, PqOp::Insert { priority: 10 }, 0),
                ev(1, PqOp::Insert { priority: 20 }, 1),
                ev(0, PqOp::DeleteMin { removed: 20 }, 2),
                ev(1, PqOp::DeleteMin { removed: 10 }, 3),
            ],
        };
        let mut a = HistoryArtifact::pq(h, "sticky(s=4)", 4.0, 8);
        a.threads = 2;
        a.source = Some("multiqueue-heap(m=8,strict)".into());
        a.cell = Some("q/t=2/policy=sticky(s=4)".into());
        a.grid = vec![
            ("t".into(), "2".into()),
            ("policy".into(), "sticky(s=4)".into()),
        ];
        a
    }

    #[test]
    fn pq_artifact_round_trips_byte_for_byte() {
        let a = sample_pq();
        let text = a.to_json_lines();
        assert_eq!(text.lines().count(), 5, "header + 4 events");
        let b = HistoryArtifact::from_json_lines(&text).expect("parse");
        assert_eq!(b.to_json_lines(), text, "serialize∘parse must be identity");
        assert_eq!(b.kind(), "pq");
        assert_eq!(b.policy, "sticky(s=4)");
        assert_eq!(b.envelope_factor, 4.0);
        assert_eq!(b.threads, 2);
        assert_eq!(b.queues, Some(8));
        assert_eq!(b.cell.as_deref(), Some("q/t=2/policy=sticky(s=4)"));
        assert_eq!(b.grid, a.grid);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn replay_matches_across_the_round_trip() {
        let a = sample_pq();
        let before = replay_artifact(&a);
        let b = HistoryArtifact::from_json_lines(&a.to_json_lines()).expect("parse");
        let after = replay_artifact(&b);
        assert_eq!(before.is_linearizable(), after.is_linearizable());
        assert_eq!(before.costs.samples(), after.costs.samples());
        assert_eq!(before.unmappable, after.unmappable);
        // The deliberate out-of-order delete costs rank 1.
        assert_eq!(after.costs.max(), 1.0);
        assert_eq!(a.metric_costs(&before), b.metric_costs(&after));
    }

    #[test]
    fn counter_artifact_round_trips_and_filters_read_costs() {
        let h = History {
            events: vec![
                ev(0, CounterOp::Inc, 0),
                ev(1, CounterOp::Inc, 1),
                ev(0, CounterOp::Read { returned: 5 }, 2), // true 2, cost 3
            ],
        };
        let mut a = HistoryArtifact::counter(h, 16.0 * 16f64.ln());
        a.threads = 2;
        let text = a.to_json_lines();
        let b = HistoryArtifact::from_json_lines(&text).expect("parse");
        assert_eq!(b.to_json_lines(), text);
        assert_eq!(b.kind(), "counter");
        assert_eq!(b.policy, "none");
        let outcome = replay_artifact(&b);
        assert!(outcome.is_linearizable());
        // Only the read's cost counts toward the deviation metric.
        assert_eq!(b.metric_costs(&outcome), vec![3.0]);
    }

    #[test]
    fn fifo_artifact_round_trips() {
        let h = History {
            events: vec![
                ev(0, FifoOp::Enqueue { id: 1 }, 0),
                ev(0, FifoOp::Enqueue { id: 2 }, 1),
                ev(1, FifoOp::Dequeue { id: 2 }, 2), // position 1
            ],
        };
        let a = HistoryArtifact::fifo(h);
        let text = a.to_json_lines();
        // Infinite envelope factor serializes as null and parses back.
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"envelope_factor\":null"));
        let b = HistoryArtifact::from_json_lines(&text).expect("parse");
        assert!(b.envelope_factor.is_infinite());
        let outcome = replay_artifact(&b);
        assert!(outcome.is_linearizable());
        assert_eq!(outcome.costs.max(), 1.0);
    }

    #[test]
    fn u64_extremes_survive_the_round_trip() {
        let h = History {
            events: vec![Event {
                thread: 0,
                label: PqOp::Insert { priority: u64::MAX },
                invoke: u64::MAX - 2,
                update: u64::MAX - 1,
                response: u64::MAX,
            }],
        };
        let a = HistoryArtifact::pq(h, "two-choice", 1.0, 4);
        let b = HistoryArtifact::from_json_lines(&a.to_json_lines()).expect("parse");
        let ArtifactHistory::Pq(h) = &b.history else {
            panic!("wrong kind");
        };
        assert_eq!(h.events[0].label, PqOp::Insert { priority: u64::MAX });
        assert_eq!(h.events[0].response, u64::MAX);
    }

    #[test]
    fn corrupt_artifacts_fail_with_line_numbers() {
        let text = sample_pq().to_json_lines();
        let lines: Vec<&str> = text.lines().collect();

        // Garbage mid-file.
        let mut bad = lines.clone();
        bad[2] = "{oops";
        let e = HistoryArtifact::from_json_lines(&bad.join("\n")).unwrap_err();
        assert_eq!(e.line, 3, "{e}");

        // Truncated: header declares 4 events, only 1 present.
        let e = HistoryArtifact::from_json_lines(&lines[..2].join("\n")).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("truncated"), "{e}");

        // Trailing junk after the declared events.
        let mut extra = lines.clone();
        extra.push("{\"thread\":0}");
        let e = HistoryArtifact::from_json_lines(&extra.join("\n")).unwrap_err();
        assert_eq!(e.line, 6, "{e}");
        assert!(e.msg.contains("trailing"), "{e}");

        // Unknown op name.
        let mut op = lines.clone();
        let patched = op[1].replace("insert", "frobnicate");
        op[1] = &patched;
        let e = HistoryArtifact::from_json_lines(&op.join("\n")).unwrap_err();
        assert_eq!(e.line, 2, "{e}");

        // Future schema version.
        let mut ver = lines.clone();
        let patched = ver[0].replace("\"schema\":1", "\"schema\":99");
        ver[0] = &patched;
        let e = HistoryArtifact::from_json_lines(&ver.join("\n")).unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.msg.contains("schema"), "{e}");

        // Empty input.
        let e = HistoryArtifact::from_json_lines("").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
    }
}
