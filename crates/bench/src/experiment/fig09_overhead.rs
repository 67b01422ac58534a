use super::{int, num, text, Outcome, Shape, Table};
use crate::{bulk_goodput, mock_env, ns_per_upcall, path};
use mptcp_sim::native::{NativeMinRtt, NativeScheduler};
use mptcp_sim::SchedulerSpec;
use progmp_core::{compile, Backend};
use progmp_schedulers::DEFAULT_MIN_RTT;

const ITERS: u32 = 5_000;
const BACKENDS: [Backend; 3] = [Backend::Interpreter, Backend::Aot, Backend::Vm];

pub fn run() -> Outcome {
    let mut cost = Table::new(
        "(top) per-execution cost relative to the native scheduler",
        &["subflows", "native ns", "interp", "aot", "vm (eBPF)"],
    );
    let program = compile(DEFAULT_MIN_RTT).expect("default compiles");
    // Relative cost in percent by subflow count: interpreter, AOT, VM.
    let rel = [2u32, 4].map(|n| {
        let env = mock_env(n, 32);
        let mut native = NativeMinRtt;
        let native_ns = ns_per_upcall(&env, ITERS, |ctx| {
            native.schedule(ctx).expect("native minRTT schedules");
        });
        let pct = BACKENDS.map(|backend| {
            let mut inst = program.instantiate(backend);
            let ns = ns_per_upcall(&env, ITERS, |ctx| {
                inst.execute_raw(ctx).expect("default executes");
            });
            ns / native_ns * 100.0
        });
        let cells = [int(u64::from(n)), num(native_ns, 0)];
        cost.row(cells.into_iter().chain(pct.map(|p| num(p, 0).unit("%"))));
        pct
    });

    let mut throughput = Table::new(
        "(bottom) saturated throughput is scheduler-independent",
        &["scheduler", "goodput"],
    );
    let mut specs = vec![(
        "native minRTT".to_string(),
        SchedulerSpec::Native(Box::new(NativeMinRtt)),
    )];
    specs.extend(BACKENDS.map(|b| {
        let spec = SchedulerSpec::dsl_on(DEFAULT_MIN_RTT, b);
        (format!("dsl/{}", b.name()), spec)
    }));
    let mut gps = Vec::new();
    for (name, spec) in specs {
        let subflows = vec![path(10, 1_250_000), path(20, 1_250_000)];
        let gp = bulk_goodput(spec, subflows, 6_000_000, 3);
        throughput.row(vec![text(name), num(gp / 1e6, 3).unit(" MB/s")]);
        gps.push(gp);
    }

    let [interp, _, vm] = [0, 1, 2].map(|backend| rel[0][backend] + rel[1][backend]);
    let spread = gps.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / gps.iter().cloned().fold(f64::INFINITY, f64::min);
    let [s2, s4] = rel.map(|pct| pct.iter().sum::<f64>());
    Outcome {
        tables: vec![cost, throughput],
        shapes: vec![
            Shape::timed(
                "the eBPF-style backend reduces the interpreter's relative execution time",
                "interpreter ~144% and eBPF ~125% of the native C execution time \
                 (checked: VM < interpreter, summed over 2 and 4 subflows)",
                format!(
                    "interpreter {:.0}% / {:.0}%, AOT {:.0}% / {:.0}%, VM {:.0}% / {:.0}% \
                     of native at 2 / 4 subflows",
                    rel[0][0], rel[1][0], rel[0][1], rel[1][1], rel[0][2], rel[1][2]
                ),
                interp > vm,
            )
            .deviation(
                "relative overheads are larger than the paper's because the native baseline is \
                 release-mode Rust with zero call overhead, whereas the paper compares within a \
                 kernel where fixed costs dominate; the ordering matches",
            ),
            Shape::sim(
                "total throughput unchanged across schedulers",
                "the total throughput remains unchanged throughout all schedulers \
                 (checked: max/min < 1.02)",
                format!("max/min = {spread:.3}"),
                spread < 1.02,
            ),
            Shape::timed(
                "impact of the number of subflows is marginal",
                "the impact of the number of subflows is marginal \
                 (checked: summed relative cost at 2 vs 4 subflows within 50%)",
                format!("sum rel 2sbf {s2:.0}% vs 4sbf {s4:.0}%"),
                (s2 - s4).abs() / s2 < 0.5,
            ),
        ],
    }
}
