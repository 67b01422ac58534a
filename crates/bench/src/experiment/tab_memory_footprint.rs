use super::{int, text, Outcome, Shape, Table};
use progmp_core::Backend;
use progmp_schedulers as sched;

pub fn run() -> Outcome {
    let mut table = Table::new(
        "memory footprint of loaded schedulers",
        &[
            "scheduler",
            "LOC",
            "program B",
            "instance(vm)",
            "instance(aot)",
        ],
    );
    let mut max_program = 0usize;
    for name in sched::names() {
        let program = sched::load(name).expect("bundled schedulers compile");
        let loc = program
            .source()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        table.row(vec![
            text(name),
            int(loc as u64),
            int(program.size_bytes() as u64),
            int(program.instantiate(Backend::Vm).size_bytes() as u64),
            int(program.instantiate(Backend::Aot).size_bytes() as u64),
        ]);
        max_program = max_program.max(program.size_bytes());
    }

    let rr = sched::load("roundRobin").expect("bundled schedulers compile");
    let inst = rr.instantiate(Backend::Vm);
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "every loaded scheduler stays in the paper's few-KB regime",
                "the round-robin scheduler requires 3048 bytes (checked: every program < 64 KiB)",
                format!("max {max_program} B"),
                max_program < 64 * 1024,
            ),
            Shape::sim(
                "per-instance overhead is small relative to the program",
                "each instantiation an additional 328 bytes; the memory overhead does not restrict \
                 the adoption (checked: instance < program)",
                format!("{} B vs {} B", inst.size_bytes(), rr.size_bytes()),
                inst.size_bytes() < rr.size_bytes(),
            ),
        ],
    }
}
