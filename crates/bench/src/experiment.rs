//! The experiment contract and the one table of the paper's evaluation.
//!
//! Every figure, table and ablation this repository reproduces is one
//! row of [`EXPERIMENTS`]: a scenario that returns an [`Outcome`] — the
//! tables it measured and the [`Shape`]s it checks them against, each
//! written down next to what the paper reports. The `progmp-exp` driver
//! prints outcomes, renders them into `BENCH_paper.json`
//! ([`render`], through [`crate::report`]) and holds a fresh run to the
//! committed file ([`check_against_committed`]): a deterministic shape
//! whose measured value or verdict moved fails the run, a host-timed one
//! is recorded and never gated.

use crate::report::{validate_report, Json, Report};
use std::fmt;

mod abl_compensating_choice;
mod abl_cwnd_relax;
mod abl_receiver;
mod abl_runtime_opts;
mod exp_backlog_sweep;
mod exp_chaos_handover;
mod exp_deadline;
mod exp_handover;
mod exp_multi_tenancy;
mod exp_target_rtt;
mod fig01_motivation;
mod fig09_overhead;
mod fig10b_redundancy_fct;
mod fig10c_redundancy_throughput;
mod fig12_compensating;
mod fig13_tap;
mod fig14_http2;
mod tab2_design_space;
mod tab_memory_footprint;
mod tab_upcall_overhead;

/// One experiment: what `progmp-exp --exp NAME` runs.
pub struct Experiment {
    /// Name on the command line, in `BENCH_paper.json` and as the
    /// section key in EXPERIMENTS.md.
    pub name: &'static str,
    /// The figure, table or section of the paper it reproduces; `None`
    /// for an experiment of this repository's own.
    pub paper_ref: Option<&'static str>,
    /// What is measured, how, and what the paper observed.
    pub about: &'static str,
    /// Runs the scenario at the size EXPERIMENTS.md quotes.
    pub run: fn() -> Outcome,
}

/// What one experiment measured.
pub struct Outcome {
    /// The tables the paper reports, in print order.
    pub tables: Vec<Table>,
    /// The shape checks on them.
    pub shapes: Vec<Shape>,
}

/// A table of measured values: printed aligned, serialised as numbers.
pub struct Table {
    /// What the rows are and the parameters they were measured under.
    pub title: String,
    /// Column headings.
    pub columns: Vec<&'static str>,
    /// One cell per column in every row.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, columns: &[&'static str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        let cells: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.columns.len(), "{}", self.title);
        self.rows.push(cells);
    }
}

/// One table cell: the text that is printed and the value that is
/// serialised, built once.
pub struct Cell {
    text: String,
    value: Json,
}

impl Cell {
    /// Appends a unit to the printed text.
    pub fn unit(mut self, unit: &str) -> Cell {
        self.text.push_str(unit);
        self
    }
}

/// A text cell.
pub fn text(s: impl Into<String>) -> Cell {
    let text = s.into();
    Cell {
        value: Json::Str(text.clone()),
        text,
    }
}

/// An integer cell.
pub fn int(n: u64) -> Cell {
    Cell {
        text: n.to_string(),
        value: Json::from(n),
    }
}

/// A cell holding `v` rounded to `decimals` places, on paper and in the
/// file alike.
pub fn num(v: f64, decimals: usize) -> Cell {
    let text = format!("{v:.decimals$}");
    Cell {
        value: Json::Num(text.parse().expect("a formatted float parses")),
        text,
    }
}

/// One claim checked against an experiment's measurements.
pub struct Shape {
    /// The claim, in words.
    pub label: &'static str,
    /// The paper's value, or the relation it reports.
    pub paper: &'static str,
    /// The measured value(s) the verdict was taken on.
    pub measured: String,
    /// Whether the measurement satisfies the claim.
    pub holds: bool,
    /// Whether `measured` is a function of the seed alone (simulated
    /// time, counts, sizes) rather than of host timing. Only
    /// deterministic shapes are held to the committed file.
    pub deterministic: bool,
    /// Why the measurement departs from the paper, when it does.
    /// Required on a deterministic shape that does not hold.
    pub deviation: &'static str,
}

impl Shape {
    /// A claim checked on simulated, seed-determined values.
    pub fn sim(label: &'static str, paper: &'static str, measured: String, holds: bool) -> Shape {
        Shape {
            label,
            paper,
            measured,
            holds,
            deterministic: true,
            deviation: "",
        }
    }

    /// A claim checked on host wall-clock timings.
    pub fn timed(label: &'static str, paper: &'static str, measured: String, holds: bool) -> Shape {
        Shape {
            deterministic: false,
            ..Shape::sim(label, paper, measured, holds)
        }
    }

    /// Records why the measurement departs from the paper.
    pub fn deviation(mut self, why: &'static str) -> Shape {
        self.deviation = why;
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Per column: its width, and whether it reads left-aligned (text)
        // or right-aligned (values); a heading follows its column.
        let layout: Vec<(usize, bool)> = (0..self.columns.len())
            .map(|c| {
                let texts = self.rows.iter().map(|row| row[c].text.as_str());
                let width = texts
                    .chain([self.columns[c]])
                    .map(|t| t.chars().count())
                    .max();
                let text = self
                    .rows
                    .first()
                    .map_or(c == 0, |row| matches!(row[c].value, Json::Str(_)));
                (width.unwrap_or(0), text)
            })
            .collect();
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            let mut line = String::new();
            for (cell, (width, text)) in cells.zip(&layout) {
                line += &if *text {
                    format!("{cell:<width$}  ")
                } else {
                    format!("{cell:>width$}  ")
                };
            }
            line.trim_end().to_string()
        };
        writeln!(f, "{}\n", self.title)?;
        writeln!(f, "{}", line(&mut self.columns.iter().copied()))?;
        for row in &self.rows {
            writeln!(
                f,
                "{}",
                line(&mut row.iter().map(|cell| cell.text.as_str()))
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        writeln!(f, "shape checks (paper | measured):")?;
        for s in &self.shapes {
            let mark = if s.holds { "ok" } else { "??" };
            let timed = if s.deterministic { "" } else { " [host-timed]" };
            writeln!(f, "  [{mark}] {}{timed}", s.label)?;
            writeln!(f, "       {} | {}", s.paper, s.measured)?;
            if !s.deviation.is_empty() {
                writeln!(f, "       deviation: {}", s.deviation)?;
            }
        }
        Ok(())
    }
}

/// Every experiment of the evaluation, in the paper's order, then this
/// repository's own, then the ablations. What the paper reports for each
/// is written on its [`Shape`]s, next to what was measured.
pub static EXPERIMENTS: [Experiment; 20] = [
    Experiment {
        name: "fig01_motivation",
        paper_ref: Some("Fig. 1"),
        about: "The motivating measurement: an interactive stream (1 MB/s for 6 s, then 4 MB/s) \
            over WiFi (10 ms) + LTE (40 ms) with (a) the default MinRTT scheduler and (b) LTE in \
            backup mode. fig13_tap has the TAP scheduler that fixes what this shows.",
        run: fig01_motivation::run,
    },
    Experiment {
        name: "tab_upcall_overhead",
        paper_ref: Some("§4.1"),
        about: "\"Scheduler Location and Calling Model\" — the design-decision measurement behind \
            the in-kernel runtime. The architectural analogue here: dispatching each scheduling \
            decision to another thread over channels (context switch + wakeup, like a netlink \
            round trip) versus executing the scheduler in-process. The second half of the upcall \
            story is how much work each upcall does: the verified bytecode optimizer trims the \
            per-decision dynamic instruction count without touching the certified step bound, and \
            the second table pins the before/after numbers for all seven paper schedulers. The \
            third prices the containment supervisor's clean path: a healthy transfer with and \
            without the supervisor enabled, compared per scheduling decision. The fault boundary \
            only pays when a fault actually fires; on the clean path the supervisor adds a \
            per-upcall branch and a once-per-second watchdog tick.",
        run: tab_upcall_overhead::run,
    },
    Experiment {
        name: "fig09_overhead",
        paper_ref: Some("Fig. 9"),
        about: "Overhead of the runtime environment: (top) per-execution scheduler cost of the \
            three ProgMP backends relative to the native implementation, with 2 and 4 subflows; \
            (bottom) maximum throughput of a saturated transfer, which must be unchanged across \
            all schedulers.",
        run: fig09_overhead::run,
    },
    Experiment {
        name: "tab_memory_footprint",
        paper_ref: Some("§4.3"),
        about: "\"Number of Schedulers\" — memory footprint of loaded schedulers and \
            per-connection instances. Instances share the loaded program through Arc, exactly like \
            the paper's reuse of previously loaded schedulers across connections.",
        run: tab_memory_footprint::run,
    },
    Experiment {
        name: "tab2_design_space",
        paper_ref: Some("Table 2"),
        about: "The MPTCP scheduler design space. Every row of the paper's catalogue maps to a \
            bundled scheduler; this lists them, their specification size (the paper's usability \
            argument), their static audit (registers touched, queues read — the multi-tenancy \
            admission view), and runs each of them in the simulator to prove the whole catalogue \
            is executable.",
        run: tab2_design_space::run,
    },
    Experiment {
        name: "fig10b_redundancy_fct",
        paper_ref: Some("Fig. 10b"),
        about: "Mean flow completion time vs. flow size for the redundancy family (2 subflows, 2% \
            loss, following the ReMP evaluation setup): the default, the existing redundant, \
            OpportunisticRedundant, and RedundantIfNoQ, which never delays fresh packets.",
        run: fig10b_redundancy_fct::run,
    },
    Experiment {
        name: "fig10c_redundancy_throughput",
        paper_ref: Some("Fig. 10c"),
        about: "Maximum achievable throughput of the redundancy family, normalized to single-path \
            TCP, for a constantly backlogged transfer (iPerf) and a bursty flow; the paper's \
            bursty flows depend on fine timing and fall between the extremes.",
        run: fig10c_redundancy_throughput::run,
    },
    Experiment {
        name: "fig12_compensating",
        paper_ref: Some("Fig. 12"),
        about: "Leveraging the end-of-flow signal to mitigate subflow heterogeneity: mean FCT and \
            transmission overhead vs. RTT ratio for the default, Compensating, and Selective \
            Compensation schedulers (the overhead matters least at high ratios).",
        run: fig12_compensating::run,
    },
    Experiment {
        name: "fig13_tap",
        paper_ref: Some("Fig. 13"),
        about: "The throughput- and preference-aware (TAP) scheduler in the Fig. 1 scenario: an \
            interactive stream (1 MB/s then 4 MB/s) over WiFi (preferred, fluctuating) and LTE \
            (metered), against the default scheduler and the existing backup mode.",
        run: fig13_tap::run,
    },
    Experiment {
        name: "fig14_http2",
        paper_ref: Some("Fig. 14"),
        about: "HTTP/2-aware scheduling: dependency-retrieval time, initial page time, and \
            metered-LTE usage vs. the WiFi RTT (the paper systematically increases WiFi packet \
            delays to sweep the RTT ratio). The aware scheduler avoids high-RTT subflows for the \
            initial packets and handles post-initial content preference-aware, without affecting \
            the remaining time.",
        run: fig14_http2::run,
    },
    Experiment {
        name: "exp_handover",
        paper_ref: Some("§5.2"),
        about: "The handover-aware scheduler: during a WiFi→LTE handover the WiFi subflow \
            degrades (loss ramps to 100%) while a fresh cellular subflow is established. The \
            handover-aware scheduler aggressively retransmits WiFi's in-flight packets on the new \
            subflow. Metric: the delivery stall around the handover (longest gap between \
            consecutive in-order deliveries), compared with waiting for WiFi's RTO-based recovery.",
        run: exp_handover::run,
    },
    Experiment {
        name: "exp_chaos_handover",
        paper_ref: None,
        about: "Chaos-tier companion to exp_handover: the same WiFi→LTE break expressed as a \
            deterministic mptcp_sim::FaultPlan (a full blackout of the primary subflow), run with \
            the runtime invariant oracle armed.",
        run: exp_chaos_handover::run,
    },
    Experiment {
        name: "exp_target_rtt",
        paper_ref: Some("§5.4"),
        about: "\"Target RTT\" — a latency- and preference-aware scheduler for request/response \
            applications (voice assistants): keep request latencies below a tolerable RTT, \
            escalating to the non-preferred subflow only when the preferred one violates the \
            target. Scenario from the paper's motivation (reference [13]): during episodes of WiFi \
            RTT above LTE's the target-RTT scheduler moves traffic to LTE, the default scheduler's \
            backup semantics do not.",
        run: exp_target_rtt::run,
    },
    Experiment {
        name: "exp_deadline",
        paper_ref: Some("§5.4"),
        about: "\"Target Deadline\" — the MP-DASH use case: video chunks with arrival deadlines, \
            under the deadline-aware scheduler, the default scheduler (uses LTE freely) and a \
            WiFi-only policy (misses deadlines when WiFi dips).",
        run: exp_deadline::run,
    },
    Experiment {
        name: "exp_multi_tenancy",
        paper_ref: None,
        about: "Multi-tenancy (the paper's §4.3 \"Number of Schedulers\" and §6 discussion, not \
            one of its measurements): many concurrent connections, each with its own scheduler \
            instance (mixed programs and backends), in one runtime. Verifies the isolation story.",
        run: exp_multi_tenancy::run,
    },
    Experiment {
        name: "exp_backlog_sweep",
        paper_ref: None,
        about: "Engine cost per event against the backlog in Q: four connections of the default \
            scheduler over two clean paths, one SendAt of 1 / 2 / 4 / 8 / 16 MB each (≈715 to ≈11 \
            400 segments queued at once). The work per event — ack processing, removing the pushed \
            packet from Q, the paths' departure accounting — must not grow with the bytes still \
            unsent, and the simulated outcome of each size is pinned to the digest it had when \
            every one of those steps scanned its queue.",
        run: exp_backlog_sweep::run,
    },
    Experiment {
        name: "abl_receiver",
        paper_ref: Some("§4.2"),
        about: "Ablation: the improved receiver vs. the stock multi-layer-queue receiver. \"For \
            certain packet loss and out-of-order patterns between subflows, in-order data is not \
            pushed to the application.\" The blocking pattern needs a subflow to carry data below \
            the sequence numbers it already sent (cross-subflow retransmission) while also having \
            a subflow-level hole — so the divergence shows up for sophisticated schedulers \
            (compensation, reinjection-heavy recovery) under loss.",
        run: abl_receiver::run,
    },
    Experiment {
        name: "abl_compensating_choice",
        paper_ref: Some("§5.3"),
        about: "Ablation: the choice of the retransmitted packet in the Compensating scheduler. \
            We compare three variants — queue-order TOP, lowest sequence number (oldest data), and \
            highest sequence number.",
        run: abl_compensating_choice::run,
    },
    Experiment {
        name: "abl_runtime_opts",
        paper_ref: Some("§4.1"),
        about: "Ablation of the \"Runtime Optimizations\": what each buys on the VM backend. HIR \
            optimizer (constant folding / dead branches) on vs off, as per-execution cost; \
            compressed executions — scheduler rounds per trigger capped at 1 vs unbounded — as \
            simulation goodput (a trigger that can only place one packet wastes wall-clock between \
            triggers).",
        run: abl_runtime_opts::run,
    },
    Experiment {
        name: "abl_cwnd_relax",
        paper_ref: Some("§6"),
        about: "Ablation (\"Dependencies\"): cross-concern optimization — relaxing the \
            congestion-window constraint for the last packets of a flow. We sweep flow sizes on a \
            window-limited path and compare the default scheduler against cwndRelax with the tail \
            signaled via R2.",
        run: abl_cwnd_relax::run,
    },
];

/// The experiment called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The `BENCH_paper.json` document for a run: one row per experiment
/// carrying its tables and shapes.
pub fn render(ran: &[(&Experiment, Outcome)]) -> Report {
    let mut report = Report::new("progmp_exp");
    report.meta(
        "cpus",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (exp, outcome) in ran {
        let tables = outcome.tables.iter().map(|t| {
            let rows = t
                .rows
                .iter()
                .map(|row| Json::Arr(row.iter().map(|cell| cell.value.clone()).collect()));
            Json::obj(vec![
                ("title", Json::from(t.title.as_str())),
                (
                    "columns",
                    Json::Arr(t.columns.iter().map(|c| Json::from(*c)).collect()),
                ),
                ("rows", Json::Arr(rows.collect())),
            ])
        });
        let shapes = outcome.shapes.iter().map(|s| {
            Json::obj(vec![
                ("label", Json::from(s.label)),
                ("paper", Json::from(s.paper)),
                ("measured", Json::from(s.measured.as_str())),
                ("holds", Json::from(s.holds)),
                ("deterministic", Json::from(s.deterministic)),
                ("deviation", Json::from(s.deviation)),
            ])
        });
        report.row(vec![
            ("experiment", Json::from(exp.name)),
            ("paper_ref", exp.paper_ref.map_or(Json::Null, Json::from)),
            ("tables", Json::Arr(tables.collect())),
            ("shapes", Json::Arr(shapes.collect())),
        ]);
    }
    report
}

/// Array member `key` of an object; empty when absent.
fn arr<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// String member `key` of an object; empty when absent.
fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

/// A shape as the gate sees it: `(experiment, label, measured, holds)`.
type Gated<'a> = (&'a str, &'a str, &'a str, bool);

/// Every deterministic shape of a validated paper report, in file order.
fn gated(doc: &Json) -> Vec<Gated<'_>> {
    let mut out = Vec::new();
    for row in arr(doc, "rows") {
        for s in arr(row, "shapes") {
            if s.get("deterministic") == Some(&Json::Bool(true)) {
                let holds = s.get("holds") == Some(&Json::Bool(true));
                let (label, measured) = (str_of(s, "label"), str_of(s, "measured"));
                out.push((str_of(row, "experiment"), label, measured, holds));
            }
        }
    }
    out
}

/// Holds a fresh run to the committed `BENCH_paper.json`: the
/// deterministic shapes of the experiments that ran must be the
/// committed file's, label by label, measured value and verdict equal.
/// Host-timed shapes and the tables are free to move. Names the first
/// difference. Both documents must already pass
/// [`validate_paper_report`], and both list experiments in
/// [`EXPERIMENTS`] order.
pub fn check_against_committed(fresh: &Json, committed: &Json) -> Result<(), String> {
    let names = |doc| arr(doc, "rows").iter().map(|row| str_of(row, "experiment"));
    let ran: Vec<&str> = names(fresh).collect();
    if let Some(unknown) = ran
        .iter()
        .find(|name| !names(committed).any(|n| n == **name))
    {
        return Err(format!("{unknown}: not in the committed file"));
    }
    let fresh = gated(fresh);
    let mut committed = gated(committed);
    committed.retain(|then| ran.contains(&then.0));
    for i in 0..fresh.len().max(committed.len()) {
        let (now, then) = (fresh.get(i), committed.get(i));
        if now != then {
            let show = |s: Option<&Gated<'_>>| match s {
                Some((_, label, measured, holds)) => {
                    format!("{label:?} = {measured:?}, holds: {holds}")
                }
                None => "no further deterministic shape".to_string(),
            };
            let (exp, ..) = now.or(then).expect("one side has a shape here");
            return Err(format!(
                "{exp}: committed {}; fresh {}",
                show(then),
                show(now)
            ));
        }
    }
    Ok(())
}

/// Validates a parsed `BENCH_paper.json`: the common report envelope,
/// at most one row per experiment, every table rectangular, every row
/// with at least one fully typed shape, and no deterministic shape that
/// fails without saying why.
pub fn validate_paper_report(doc: &Json) -> Result<(), String> {
    validate_report(doc)?;
    if str_of(doc, "name") != "progmp_exp" {
        return Err("report name is not 'progmp_exp'".into());
    }
    let mut seen = Vec::new();
    for row in arr(doc, "rows") {
        let name = str_of(row, "experiment");
        if name.is_empty() || seen.contains(&name) {
            return Err(format!("experiment {name:?}: unnamed or more than one row"));
        }
        seen.push(name);
        if !matches!(row.get("paper_ref"), Some(Json::Str(_) | Json::Null)) {
            return Err(format!("{name}: 'paper_ref' is neither a string nor null"));
        }
        for table in arr(row, "tables") {
            let width = Some(arr(table, "columns").len());
            if arr(table, "rows")
                .iter()
                .any(|r| r.as_arr().map(<[Json]>::len) != width)
            {
                return Err(format!("{name}: a table row does not match its columns"));
            }
        }
        if arr(row, "shapes").is_empty() {
            return Err(format!("{name}: no shapes"));
        }
        for shape in arr(row, "shapes") {
            let label = str_of(shape, "label");
            let flag = |key: &str| match shape.get(key) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("{name}: {label:?}: no boolean {key:?}")),
            };
            let (holds, deterministic) = (flag("holds")?, flag("deterministic")?);
            if [label, str_of(shape, "paper"), str_of(shape, "measured")].contains(&"") {
                return Err(format!("{name}: {label:?}: empty label, paper or measured"));
            }
            if deterministic && !holds && str_of(shape, "deviation").is_empty() {
                return Err(format!(
                    "{name}: {label:?} does not hold and records no deviation"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `name` and returns its rendered, parsed report.
    fn report_of(name: &str) -> Json {
        let exp = find(name).expect("a row of EXPERIMENTS");
        Json::parse(&render(&[(exp, (exp.run)())]).render()).expect("rendered report parses")
    }

    /// The document with the first occurrence of `from` replaced by `to`.
    fn edited(doc: &Json, from: &str, to: &str) -> Json {
        let text = doc.render();
        assert!(text.contains(from), "{from} is not in the report");
        Json::parse(&text.replacen(from, to, 1)).expect("edited report parses")
    }

    #[test]
    fn table_rows_are_unique_and_described() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(!e.about.is_empty(), "{}", e.name);
            assert!(
                EXPERIMENTS[..i]
                    .iter()
                    .all(|earlier| earlier.name != e.name),
                "{} is listed twice",
                e.name
            );
            assert_eq!(find(e.name).map(|found| found.name), Some(e.name));
        }
        assert!(find("fig13").is_none(), "names are exact, not prefixes");
    }

    /// Render, parse, validate — and a second run of a simulated
    /// experiment renders the same bytes.
    #[test]
    fn a_rendered_report_round_trips_and_repeats() {
        let doc = report_of("fig13_tap");
        validate_paper_report(&doc).expect("schema-valid");
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(arr(&arr(&doc, "rows")[0], "shapes").len(), 5);
        assert_eq!(report_of("fig13_tap").render(), doc.render());
    }

    #[test]
    fn table_prints_what_it_serialises() {
        let mut table = Table::new("t", &["name", "ms", "n"]);
        table.row(vec![text("a"), num(1.25, 1).unit(" ms"), int(7)]);
        table.row(vec![text("long name"), num(10.0, 1).unit(" ms"), int(12)]);
        let printed = table.to_string();
        assert_eq!(
            printed,
            "t\n\nname            ms   n\na           1.2 ms   7\nlong name  10.0 ms  12\n"
        );
        assert_eq!(table.rows[0][1].value, Json::Num(1.2), "rounded as printed");
    }

    #[test]
    fn gate_holds_deterministic_shapes_and_only_those() {
        let committed = report_of("abl_runtime_opts");
        validate_paper_report(&committed).unwrap();
        check_against_committed(&committed, &committed).unwrap();

        // The host-timed shape and the tables may move.
        let timed = edited(&committed, "% of unoptimized", "% of unoptimised");
        check_against_committed(&timed, &committed).expect("host-timed shapes are not gated");

        // A deterministic measured value may not, in either direction.
        let moved = edited(&committed, "2.40 vs 2.38 MB/s", "2.40 vs 2.39 MB/s");
        for (fresh, committed) in [(&moved, &committed), (&committed, &moved)] {
            let err = check_against_committed(fresh, committed).unwrap_err();
            assert!(err.starts_with("abl_runtime_opts: "), "{err}");
            assert!(
                err.contains("compressed executions keep the pipe full"),
                "{err}"
            );
            assert!(err.contains("2.38") && err.contains("2.39"), "{err}");
        }

        // Nor a verdict, nor the set of gated shapes.
        let flipped = edited(
            &committed,
            "\"holds\":true,\"deterministic\":true",
            "\"holds\":false,\"deterministic\":true",
        );
        assert!(check_against_committed(&flipped, &committed).is_err());
        let ungated = edited(
            &committed,
            "\"deterministic\":true",
            "\"deterministic\":false",
        );
        assert!(check_against_committed(&ungated, &committed).is_err());
        assert!(check_against_committed(&committed, &ungated).is_err());

        // An experiment the committed file does not have.
        let other = edited(&committed, "abl_runtime_opts", "abl_other");
        let err = check_against_committed(&other, &committed).unwrap_err();
        assert!(err.starts_with("abl_other: "), "{err}");
    }

    #[test]
    fn validator_rejects_malformed_rows() {
        let clean = report_of("tab_memory_footprint");
        validate_paper_report(&clean).unwrap();
        // A deterministic shape that fails must say why.
        let failing = edited(&clean, "\"holds\":true", "\"holds\":false");
        let err = validate_paper_report(&failing).unwrap_err();
        assert!(err.contains("records no deviation"), "{err}");
        let explained = edited(&failing, "\"deviation\":\"\"", "\"deviation\":\"because\"");
        validate_paper_report(&explained).unwrap();
        for (from, to) in [
            ("\"holds\":true", "\"holds\":1"),
            ("\"measured\":\"max ", "\"measure\":\"max "),
            ("\"paper_ref\":\"§4.3\"", "\"paper_ref\":4"),
            ("[\"minRttSimple\",3,", "[\"minRttSimple\","),
            ("\"name\":\"progmp_exp\"", "\"name\":\"scale_fleet\""),
        ] {
            assert!(
                validate_paper_report(&edited(&clean, from, to)).is_err(),
                "{from}"
            );
        }
        let twice = render(&[
            (&EXPERIMENTS[0], tab_memory_footprint::run()),
            (&EXPERIMENTS[0], tab_memory_footprint::run()),
        ]);
        let err = validate_paper_report(&Json::parse(&twice.render()).unwrap()).unwrap_err();
        assert!(err.contains("more than one row"), "{err}");
    }

    /// The file at the repository root is a full run: one entry per row
    /// of [`EXPERIMENTS`], in table order, every shape of the code in it.
    #[test]
    fn committed_report_covers_the_table() {
        let doc = Json::parse(include_str!("../../../BENCH_paper.json")).expect("parses");
        validate_paper_report(&doc).expect("schema-valid");
        let rows = arr(&doc, "rows");
        let names: Vec<&str> = rows.iter().map(|r| str_of(r, "experiment")).collect();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names, table);
        for (row, e) in rows.iter().zip(&EXPERIMENTS) {
            assert_eq!(row.get("paper_ref").and_then(Json::as_str), e.paper_ref);
        }
        assert_eq!(
            rows.iter().map(|r| arr(r, "shapes").len()).sum::<usize>(),
            50
        );
    }
}
