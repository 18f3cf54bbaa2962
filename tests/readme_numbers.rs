//! README numbers cannot drift from the committed benchmark JSON.
//!
//! Every cell of README's three numbers tables — scrub bandwidth
//! (`BENCH_faults.json` `scrub`), the serving legs (`BENCH_serving.json`
//! `clean` / `preemption`) and the speculative α×γ grid
//! (`BENCH_serving.json` `speculative.points`) — is recomputed from the
//! JSON and compared at the precision the README prints: a cell reading
//! `13.6` must equal the JSON value formatted to one decimal.

use std::path::Path;

/// A parsed JSON value — just enough of the format for the committed
/// `BENCH_*.json` artifacts (the workspace has no JSON crate). Payloads
/// other than numbers are only ever printed, hence `dead_code`.
#[allow(dead_code)]
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("JSON object has no key {key:?}")),
            other => panic!("expected an object holding {key:?}, got {other:?}"),
        }
    }

    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Json::Num(x) => *x,
            other => panic!("{key:?} is not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    /// Parses a comma-separated sequence up to `close`.
    fn seq(&mut self, close: u8, mut item: impl FnMut(&mut Self)) {
        self.ws();
        if self.s[self.i] == close {
            self.i += 1;
            return;
        }
        loop {
            item(self);
            self.ws();
            self.i += 1;
            match self.s[self.i - 1] {
                b',' => {}
                c if c == close => return,
                c => panic!("unexpected {:?} at byte {}", c as char, self.i - 1),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                        }
                        other => other as char,
                    });
                }
                _ => {
                    // Copy one whole UTF-8 scalar.
                    let start = self.i - 1;
                    while self.s.get(self.i).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                }
            }
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.seq(b'}', |p| {
                    let k = p.string();
                    p.eat(b':');
                    fields.push((k, p.value()));
                });
                Json::Obj(fields)
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.seq(b']', |p| items.push(p.value()));
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
                {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    num => Json::Num(num.parse().unwrap_or_else(|_| panic!("bad number {num:?}"))),
                }
            }
        }
    }
}

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn json(name: &str) -> Json {
    let text = read(name);
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes in {name}");
    v
}

/// The body rows of the README table whose header line is exactly
/// `header`, as trimmed cells with `**` emphasis stripped.
fn table(readme: &str, header: &str) -> Vec<Vec<String>> {
    let mut lines = readme.lines().skip_while(|l| l.trim() != header);
    assert!(lines.next().is_some(), "README has no table {header:?}");
    let rows: Vec<Vec<String>> = lines
        .skip(1) // the |---| separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim()
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().replace("**", ""))
                .collect()
        })
        .collect();
    assert!(!rows.is_empty(), "README table {header:?} has no rows");
    rows
}

/// Asserts `cell` is `value` printed with as many decimals as `cell`.
fn check(cell: &str, value: f64, what: &str) {
    let decimals = cell.split_once('.').map_or(0, |(_, frac)| frac.len());
    assert_eq!(
        format!("{value:.decimals$}"),
        cell,
        "{what}: README prints {cell:?}, committed JSON holds {value}"
    );
}

/// Splits `"a / b"` (or `"a/b"`) into its two trimmed halves.
fn pair(cell: &str) -> (&str, &str) {
    let (a, b) = cell
        .split_once('/')
        .unwrap_or_else(|| panic!("{cell:?} is not a pair"));
    (a.trim(), b.trim())
}

#[test]
fn scrub_table_matches_bench_faults() {
    let readme = read("README.md");
    let faults = json("BENCH_faults.json");
    let points = faults.get("scrub").arr();
    let rows = table(
        &readme,
        "| blocks/step | bound (steps) | mean steps to verdict | worst observed |",
    );
    assert_eq!(rows.len(), points.len(), "one README row per scrub point");
    for (row, p) in rows.iter().zip(points) {
        let bps = p.num("blocks_per_step");
        let what = format!("scrub blocks/step {bps}");
        // The off row reads "0 (off)" and has no analytical bound.
        check(row[0].split_whitespace().next().unwrap(), bps, &what);
        if p.num("latency_bound_steps") == 0.0 {
            assert!(
                row[1].starts_with('—'),
                "{what}: unbounded row prints {:?}",
                row[1]
            );
        } else {
            check(&row[1], p.num("latency_bound_steps"), &what);
        }
        check(&row[2], p.num("mean_steps_to_verdict"), &what);
        check(&row[3], p.num("detection_steps_max"), &what);
    }
}

#[test]
fn serving_legs_table_matches_bench_serving() {
    let readme = read("README.md");
    let serving = json("BENCH_serving.json");
    let rows = table(
        &readme,
        "| leg | finished/submitted | TTFT p50/p99 (steps) | tok p99 (steps) \
         | goodput under SLO | demote / preempt |",
    );
    let legs: Vec<&str> = rows
        .iter()
        .map(|r| r[0].split_whitespace().next().unwrap())
        .collect();
    assert_eq!(
        legs,
        ["clean", "preemption"],
        "README lists both serving legs"
    );
    for (row, leg) in rows.iter().zip(legs) {
        let j = serving.get(leg);
        let (finished, submitted) = pair(&row[1]);
        check(finished, j.num("finished"), leg);
        check(submitted, j.num("submitted"), leg);
        let (p50, p99) = pair(&row[2]);
        check(p50, j.num("ttft_p50_steps"), leg);
        check(p99, j.num("ttft_p99_steps"), leg);
        check(&row[3], j.num("per_token_p99_steps"), leg);
        check(&row[4], j.num("goodput_under_slo"), leg);
        let (demote, preempt) = pair(&row[5]);
        check(demote, j.num("demotions"), leg);
        check(preempt, j.num("preemptions"), leg);
    }
}

#[test]
fn speculative_table_matches_bench_serving() {
    let readme = read("README.md");
    let serving = json("BENCH_serving.json");
    let points = serving.get("speculative").get("points").arr();
    let header = "| γ (window) | α = 0.3 | α = 0.6 | α = 0.9 |";
    let alphas: Vec<f64> = header
        .split('|')
        .filter_map(|c| c.trim().strip_prefix("α = "))
        .map(|a| a.parse().unwrap())
        .collect();
    let rows = table(&readme, header);
    assert_eq!(
        rows.len() * alphas.len(),
        points.len(),
        "one README cell per point"
    );
    for row in &rows {
        let gamma: f64 = row[0].parse().unwrap();
        for (cell, &alpha) in row[1..].iter().zip(&alphas) {
            let what = format!("speculative γ={gamma} α={alpha}");
            let p = points
                .iter()
                .find(|p| {
                    p.num("gamma") == gamma && (p.num("acceptance_rate") - alpha).abs() < 1e-9
                })
                .unwrap_or_else(|| panic!("{what}: no committed point"));
            // "37.1k vs 34.4k (1.08×)"
            let (spec, rest) = cell.split_once(" vs ").unwrap();
            let (seq, ratio) = rest.split_once(" (").unwrap();
            let (tok, seq_tok) = (p.num("tokens_per_s"), p.num("sequential_tokens_per_s"));
            check(spec.strip_suffix('k').unwrap(), tok / 1000.0, &what);
            check(seq.strip_suffix('k').unwrap(), seq_tok / 1000.0, &what);
            check(ratio.strip_suffix("×)").unwrap(), tok / seq_tok, &what);
        }
    }
}
