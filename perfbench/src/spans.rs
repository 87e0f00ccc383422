//! Benchmark-side spans and the self-time fold.
//!
//! The benchmark times each layer from outside: a span wraps every call
//! it makes into a layer's public function. Spans stay in memory and are
//! written out once, when the run ends. Server-side layers come from the
//! span trees the server returns for traced submissions, folded into
//! self time per span name.

use fastsc_server::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One node of a span tree: a named interval and the spans it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Span name.
    pub name: String,
    /// Start, nanoseconds since the tree's epoch.
    pub start_ns: f64,
    /// End, nanoseconds since the tree's epoch.
    pub end_ns: f64,
    /// Child spans.
    pub children: Vec<Node>,
}

impl Node {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }

    /// Decodes a server span tree (`{name, start_ns, dur_ns, children?}`
    /// nested objects, see the wire protocol's span-trace section).
    pub fn from_json(json: &Json) -> Option<Node> {
        let name = json.get("name")?.as_str()?.to_owned();
        let start_ns = json.get("start_ns")?.as_f64()?;
        let end_ns = start_ns + json.get("dur_ns")?.as_f64()?;
        let children = match json.get("children").and_then(Json::as_array) {
            Some(kids) => kids.iter().map(Node::from_json).collect::<Option<Vec<_>>>()?,
            None => Vec::new(),
        };
        Some(Node { name, start_ns, end_ns, children })
    }
}

/// Adds each span's self time — its duration minus the part of its
/// interval that its children cover — into `out`, keyed by span name.
/// Children that overlap each other count once, and a child that pokes
/// outside its parent is clipped to the parent.
pub fn fold_self_times(node: &Node, out: &mut BTreeMap<String, f64>) {
    let mut covered: Vec<(f64, f64)> = node
        .children
        .iter()
        .map(|c| (c.start_ns.max(node.start_ns), c.end_ns.min(node.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut union = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in covered {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                union += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        union += ce - cs;
    }
    *out.entry(node.name.clone()).or_insert(0.0) += (node.dur_ns() - union).max(0.0);
    for child in &node.children {
        fold_self_times(child, out);
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One recorded benchmark-side span.
#[derive(Debug, Clone)]
struct Record {
    trace: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; closing it records the interval.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// In-memory recorder of benchmark-side spans. When disabled it only
/// measures, so the untraced run pays for an `Instant` and nothing else.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    records: Vec<Record>,
}

impl Recorder {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, epoch: Instant::now(), records: Vec::new() }
    }

    /// Whether spans are kept (the traced pass).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens span `name` of request `trace` under `parent` (a span this
    /// recorder opened for the same request).
    pub fn open(&mut self, trace: u64, parent: Option<&Open>, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            let parent = parent.and_then(|p| p.index);
            self.records.push(Record { trace, parent, name, start_ns, end_ns: start_ns });
            self.records.len() - 1
        });
        Open { index, start }
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = span.index {
            self.records[i].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        end.duration_since(span.start).as_secs_f64()
    }

    /// The spans as JSON lines: `trace`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                r.trace, r.name, r.start_ns, r.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, s: f64, e: f64, children: Vec<Node>) -> Node {
        Node { name: name.to_owned(), start_ns: s, end_ns: e, children }
    }

    #[test]
    fn self_time_subtracts_children() {
        let tree = node(
            "job",
            0.0,
            100.0,
            vec![node("a", 10.0, 30.0, vec![]), node("b", 50.0, 90.0, vec![])],
        );
        let mut out = BTreeMap::new();
        fold_self_times(&tree, &mut out);
        assert_eq!(out["job"], 40.0);
        assert_eq!(out["a"], 20.0);
        assert_eq!(out["b"], 40.0);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Children cover [10, 60] and [80, 100] of a [0, 100] parent:
        // 70 ns covered, 30 ns of self time.
        let tree = node(
            "attempt",
            0.0,
            100.0,
            vec![
                node("compile", 10.0, 50.0, vec![]),
                node("route", 30.0, 60.0, vec![]),
                node("respond", 80.0, 120.0, vec![]),
            ],
        );
        let mut out = BTreeMap::new();
        fold_self_times(&tree, &mut out);
        assert_eq!(out["attempt"], 30.0);
        assert_eq!(out["respond"], 40.0);
    }

    #[test]
    fn self_times_sum_over_trees_and_nesting() {
        let tree = node(
            "job",
            0.0,
            10.0,
            vec![node("x", 0.0, 4.0, vec![node("y", 1.0, 2.0, vec![])])],
        );
        let mut out = BTreeMap::new();
        fold_self_times(&tree, &mut out);
        fold_self_times(&tree, &mut out);
        assert_eq!(out["job"], 12.0);
        assert_eq!(out["x"], 6.0);
        assert_eq!(out["y"], 2.0);
    }

    #[test]
    fn server_trees_decode() {
        let json = Json::parse(
            r#"{"name":"job","start_ns":0,"dur_ns":100,
                "children":[{"name":"queue_wait","start_ns":5,"dur_ns":20}]}"#,
        )
        .expect("valid json");
        let tree = Node::from_json(&json).expect("well-formed tree");
        assert_eq!(tree.children[0].name, "queue_wait");
        assert_eq!(tree.children[0].end_ns, 25.0);
        assert!(Node::from_json(&Json::parse(r#"{"name":"job"}"#).unwrap()).is_none());
    }

    #[test]
    fn recorder_keeps_parent_links() {
        let mut rec = Recorder::new(true);
        let root = rec.open(1, None, "item");
        let child = rec.open(1, Some(&root), "core.router.route");
        rec.close(child);
        rec.close(root);
        let lines = rec.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.lines().nth(1).unwrap().contains("\"parent\":0"));
        let mut off = Recorder::new(false);
        let span = off.open(1, None, "item");
        assert!(off.close(span) >= 0.0);
        assert!(off.to_json_lines().is_empty());
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["lo_p50_ms", "core.router.route_us", "queue.wait-p99", "9x"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "lat/ms", "é", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }
}
