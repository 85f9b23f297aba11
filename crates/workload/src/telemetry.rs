//! Prometheus-style text-exposition export of run telemetry.
//!
//! File-based, std-only: [`write_prometheus`] renders a [`RunReport`]
//! (ideally one carrying a [`TelemetrySeries`](crate::TelemetrySeries))
//! in the Prometheus text exposition format, and the engine writes one
//! `.prom` file per run next to the `.histjsonl` history artifacts when
//! an export directory is set. Per-interval samples carry explicit
//! timestamps — **milliseconds since run start**, not epoch — so a
//! series of scrapes over one file reconstructs the run's time axis;
//! run-total families omit the timestamp.
//!
//! [`parse_prometheus`] is the strict inverse used by the test suite to
//! round-trip the emitter, and by anything that wants to consume the
//! artifacts without a Prometheus server.

use crate::report::RunReport;

/// Every label a run's samples share: scenario, backend, policy, and —
/// for sweep cells — the cell name plus one `axis_<name>` label per
/// grid coordinate (prefixed so a `policy` axis cannot collide with
/// the policy label itself).
fn base_labels(report: &RunReport) -> Vec<(String, String)> {
    let mut labels = vec![
        ("scenario".to_string(), report.scenario.clone()),
        ("backend".to_string(), report.backend.clone()),
        ("policy".to_string(), report.policy.clone()),
    ];
    if let Some(cell) = &report.cell {
        labels.push(("cell".to_string(), cell.clone()));
    }
    for (axis, value) in &report.grid {
        labels.push((format!("axis_{}", sanitize_label_name(axis)), value.clone()));
    }
    labels
}

/// Clamps a string to a legal Prometheus label-name suffix
/// (`[a-zA-Z0-9_]`, non-conforming bytes become `_`).
fn sanitize_label_name(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escapes a label value per the exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
fn escape_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn head(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: &[(&str, &str)],
    value: f64,
    timestamp_ms: Option<u64>,
) {
    out.push_str(name);
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    out.push_str("} ");
    if value.is_finite() {
        out.push_str(&format!("{value}"));
    } else {
        out.push_str("NaN");
    }
    if let Some(t) = timestamp_ms {
        out.push(' ');
        out.push_str(&t.to_string());
    }
    out.push('\n');
}

/// Renders a run report in the Prometheus text exposition format.
///
/// Always emitted: `dlz_ops_total` (per op kind), `dlz_mops`,
/// `dlz_elapsed_seconds`. When the report carries telemetry, the
/// run-total contention counters (`dlz_contention_events_total`, one
/// sample per counter name) and the per-interval gauges
/// (`dlz_interval_ops`, `dlz_interval_contention_events`) follow,
/// timestamped in milliseconds since run start.
pub fn write_prometheus(report: &RunReport) -> String {
    let mut out = String::new();
    let base = base_labels(report);
    let c = &report.counts;

    head(
        &mut out,
        "dlz_ops_total",
        "counter",
        "Operations over the whole run, by kind.",
    );
    for (kind, v) in [
        ("updates", c.updates),
        ("removes", c.removes),
        ("removes_empty", c.removes_empty),
        ("reads", c.reads),
        ("prefill", c.prefill),
    ] {
        sample(
            &mut out,
            "dlz_ops_total",
            &base,
            &[("kind", kind)],
            v as f64,
            None,
        );
    }
    head(
        &mut out,
        "dlz_mops",
        "gauge",
        "Throughput, million completed operations per second.",
    );
    sample(&mut out, "dlz_mops", &base, &[], report.mops(), None);
    head(
        &mut out,
        "dlz_elapsed_seconds",
        "gauge",
        "Measured wall-clock span of the run.",
    );
    sample(
        &mut out,
        "dlz_elapsed_seconds",
        &base,
        &[],
        report.elapsed.as_secs_f64(),
        None,
    );

    let Some(t) = &report.telemetry else {
        return out;
    };

    let total = t.total_contention();
    head(
        &mut out,
        "dlz_contention_events_total",
        "counter",
        "Hot-path contention events over the whole run, by counter.",
    );
    for (name, v) in total.fields() {
        sample(
            &mut out,
            "dlz_contention_events_total",
            &base,
            &[("counter", name)],
            v as f64,
            None,
        );
    }

    head(
        &mut out,
        "dlz_interval_ops",
        "gauge",
        "Per-interval operations by kind; timestamp is ms since run start.",
    );
    for s in &t.intervals {
        for (kind, v) in [
            ("updates", s.counts.updates),
            ("removes", s.counts.removes),
            ("removes_empty", s.counts.removes_empty),
            ("reads", s.counts.reads),
        ] {
            sample(
                &mut out,
                "dlz_interval_ops",
                &base,
                &[("kind", kind)],
                v as f64,
                Some(s.end_ms),
            );
        }
    }
    head(
        &mut out,
        "dlz_interval_contention_events",
        "gauge",
        "Per-interval contention events by counter; timestamp is ms since run start.",
    );
    for s in &t.intervals {
        for (name, v) in s.contention.fields() {
            sample(
                &mut out,
                "dlz_interval_contention_events",
                &base,
                &[("counter", name)],
                v as f64,
                Some(s.end_ms),
            );
        }
    }
    out
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Labels in emission order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
    /// Optional timestamp (ms since run start, per this module's
    /// convention).
    pub timestamp_ms: Option<i64>,
}

impl PromSample {
    /// Looks up a label value by name.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn is_name_char(c: char, first: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
}

/// Strictly parses text in the Prometheus exposition format, as
/// [`write_prometheus`] emits it. Every sample's metric must have been
/// declared by a preceding `# TYPE` line; malformed lines, undeclared
/// metrics, bad escapes and duplicate label names are errors.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (verb, body) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: bare comment verb"))?;
            match verb {
                "HELP" => {
                    body.split_once(' ')
                        .ok_or_else(|| format!("line {n}: HELP without text"))?;
                }
                "TYPE" => {
                    let (name, kind) = body
                        .split_once(' ')
                        .ok_or_else(|| format!("line {n}: TYPE without kind"))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type '{kind}'"));
                    }
                    declared.push(name.to_string());
                }
                v => return Err(format!("line {n}: unknown comment verb '{v}'")),
            }
            continue;
        }
        samples.push(parse_sample(line, n, &declared)?);
    }
    Ok(samples)
}

fn parse_sample(line: &str, n: usize, declared: &[String]) -> Result<PromSample, String> {
    let mut chars = line.char_indices().peekable();
    let mut name_end = 0;
    let mut first = true;
    while let Some(&(i, c)) = chars.peek() {
        if !is_name_char(c, first) {
            break;
        }
        first = false;
        name_end = i + c.len_utf8();
        chars.next();
    }
    let name = &line[..name_end];
    if name.is_empty() {
        return Err(format!("line {n}: no metric name"));
    }
    if !declared.iter().any(|d| d == name) {
        return Err(format!("line {n}: metric '{name}' has no TYPE declaration"));
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(after_brace) = rest.strip_prefix('{') {
        let close = find_label_block_end(after_brace)
            .ok_or_else(|| format!("line {n}: unterminated label block"))?;
        parse_labels(&after_brace[..close], n, &mut labels)?;
        rest = &after_brace[close + 1..];
    }
    let rest = rest
        .strip_prefix(' ')
        .ok_or_else(|| format!("line {n}: expected space before value"))?;
    let mut parts = rest.split(' ');
    let value_str = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("line {n}: missing value"))?;
    let value: f64 = value_str
        .parse()
        .map_err(|_| format!("line {n}: bad value '{value_str}'"))?;
    let timestamp_ms = match parts.next() {
        None => None,
        Some(ts) => Some(
            ts.parse::<i64>()
                .map_err(|_| format!("line {n}: bad timestamp '{ts}'"))?,
        ),
    };
    if parts.next().is_some() {
        return Err(format!("line {n}: trailing tokens after timestamp"));
    }
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
        timestamp_ms,
    })
}

/// Index of the `}` closing the label block (respecting quoted,
/// escaped label values), in a str starting just past the `{`.
fn find_label_block_end(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(block: &str, n: usize, labels: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {n}: label without '='"))?;
        let key = &rest[..eq];
        if key.is_empty()
            || !key
                .chars()
                .enumerate()
                .all(|(i, c)| is_name_char(c, i == 0) && c != ':')
        {
            return Err(format!("line {n}: bad label name '{key}'"));
        }
        if labels.iter().any(|(k, _)| k == key) {
            return Err(format!("line {n}: duplicate label '{key}'"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("line {n}: label value must be quoted"))?;
        let mut value = String::new();
        let mut consumed = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                match c {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    c => return Err(format!("line {n}: bad escape '\\{c}'")),
                }
                escaped = false;
                continue;
            }
            match c {
                '\\' => escaped = true,
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let consumed = consumed.ok_or_else(|| format!("line {n}: unterminated label value"))?;
        labels.push((key.to_string(), value));
        rest = &rest[consumed..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            if rest.is_empty() {
                return Err(format!("line {n}: trailing comma in labels"));
            }
        } else if !rest.is_empty() {
            return Err(format!("line {n}: junk after label value"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{IntervalSnapshot, TelemetrySeries};
    use crate::report::skeleton;
    use crate::scenario::{Family, Scenario};

    fn telemetry_report() -> RunReport {
        let s = Scenario::builder("prom-test", Family::Queue).build();
        let mut r = skeleton(&s, "multiqueue-heap(m=8,strict)".into());
        r.elapsed = std::time::Duration::from_millis(300);
        r.counts.updates = 120;
        r.counts.removes = 80;
        r.counts.prefill = 40;
        r.cell = Some("prom-test/t=4".into());
        r.grid = vec![("t".into(), "4".into())];
        let mut series = TelemetrySeries::new(100);
        for (i, (ups, fails)) in [(60u64, 5u64), (60, 9)].iter().enumerate() {
            let mut snap = IntervalSnapshot {
                index: i as u64,
                end_ms: (i as u64 + 1) * 100,
                ..IntervalSnapshot::default()
            };
            snap.counts.updates = *ups;
            snap.counts.removes = 40;
            snap.contention.try_lock_failures = *fails;
            series.merge_worker(&[snap]);
        }
        r.telemetry = Some(series);
        r
    }

    #[test]
    fn emitter_round_trips_through_strict_parser() {
        let r = telemetry_report();
        let text = write_prometheus(&r);
        let samples = parse_prometheus(&text).expect("strict parse");
        // Run totals present and labeled.
        let updates = samples
            .iter()
            .find(|s| s.name == "dlz_ops_total" && s.label("kind") == Some("updates"))
            .expect("updates total");
        assert_eq!(updates.value, 120.0);
        assert_eq!(updates.label("scenario"), Some("prom-test"));
        assert_eq!(updates.label("cell"), Some("prom-test/t=4"));
        assert_eq!(updates.label("axis_t"), Some("4"));
        assert_eq!(updates.timestamp_ms, None);
        // Interval series: timestamped, and per-interval updates sum to
        // the run total.
        let interval_updates: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "dlz_interval_ops" && s.label("kind") == Some("updates"))
            .collect();
        assert_eq!(interval_updates.len(), 2);
        assert_eq!(
            interval_updates.iter().map(|s| s.value).sum::<f64>(),
            updates.value
        );
        assert_eq!(interval_updates[0].timestamp_ms, Some(100));
        assert_eq!(interval_updates[1].timestamp_ms, Some(200));
        // The per-interval contention trajectory is visible.
        let fail_vals: Vec<f64> = samples
            .iter()
            .filter(|s| {
                s.name == "dlz_interval_contention_events"
                    && s.label("counter") == Some("try_lock_failures")
            })
            .map(|s| s.value)
            .collect();
        assert_eq!(fail_vals, vec![5.0, 9.0]);
        // Total contention aggregates the intervals.
        let fails = samples
            .iter()
            .find(|s| {
                s.name == "dlz_contention_events_total"
                    && s.label("counter") == Some("try_lock_failures")
            })
            .expect("try-lock totals");
        assert_eq!(fails.value, 14.0);
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let mut r = telemetry_report();
        r.backend = "weird\"name\\with\nnewline".into();
        let text = write_prometheus(&r);
        let samples = parse_prometheus(&text).expect("parse");
        assert_eq!(
            samples[0].label("backend"),
            Some("weird\"name\\with\nnewline")
        );
    }

    #[test]
    fn reports_without_telemetry_still_expose_totals() {
        let s = Scenario::builder("plain", Family::Counter).build();
        let mut r = skeleton(&s, "exact".into());
        r.counts.updates = 7;
        r.elapsed = std::time::Duration::from_millis(10);
        let text = write_prometheus(&r);
        assert!(!text.contains("dlz_interval_ops"));
        let samples = parse_prometheus(&text).expect("parse");
        assert!(samples.iter().any(|x| x.name == "dlz_ops_total"));
        assert!(samples.iter().all(|x| x.timestamp_ms.is_none()));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "dlz_x 1",                                        // no TYPE declaration
            "# TYPE dlz_x counter\ndlz_x{a=\"1\" 2",          // unterminated labels
            "# TYPE dlz_x counter\ndlz_x{a=\"1\",a=\"2\"} 3", // duplicate label
            "# TYPE dlz_x widget\ndlz_x 1",                   // unknown type
            "# TYPE dlz_x counter\ndlz_x one",                // non-numeric value
            "# TYPE dlz_x counter\ndlz_x 1 2 3",              // trailing tokens
            "# TYPE dlz_x counter\ndlz_x{a=\"\\q\"} 1",       // bad escape
        ] {
            assert!(parse_prometheus(bad).is_err(), "accepted: {bad}");
        }
    }
}
