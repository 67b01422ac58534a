use super::{int, text, Outcome, Shape, Table};
use crate::path;
use mptcp_sim::time::{from_millis, SECONDS};
use mptcp_sim::{ConnectionConfig, SchedulerSpec, Sim};
use progmp_core::env::RegId;
use progmp_core::Backend;
use progmp_schedulers as sched;

const TENANTS: usize = 40;
const BYTES_PER_TENANT: u64 = 100_000;

pub fn run() -> Outcome {
    let names = sched::names();
    let mut sim = Sim::new(2024);
    let mut expected_r6 = Vec::new();
    for i in 0..TENANTS {
        let cfg = ConnectionConfig::new(
            vec![
                path(8 + (i as u64 % 7) * 4, 1_250_000),
                path(25 + (i as u64 % 5) * 9, 1_250_000).with_cost(1),
            ],
            SchedulerSpec::dsl_on(
                sched::source(names[i % names.len()]).expect("bundled scheduler"),
                Backend::ALL[i % 3],
            ),
        )
        .with_timelines();
        let conn = sim.add_connection(cfg).expect("bundled schedulers compile");
        // Tenant-specific register state: must never leak across tenants.
        let marker = 1_000 + i as i64;
        sim.set_register_at(conn, 0, RegId::R6, marker);
        sim.set_register_at(conn, 0, RegId::R1, 4_000_000);
        sim.app_send_at(conn, (i as u64) * from_millis(3), BYTES_PER_TENANT, 2);
        sim.set_register_at(conn, (i as u64) * from_millis(3) + 1, RegId::R2, 1);
        expected_r6.push((conn, marker));
    }
    sim.run_to_completion(300 * SECONDS);

    let mut completed = 0;
    let mut leaked = 0;
    let mut total_exec = 0u64;
    for (conn, marker) in &expected_r6 {
        let c = &sim.connections[*conn];
        if c.all_acked() {
            completed += 1;
        }
        // R6 is never written by any bundled scheduler: it must still
        // hold this tenant's marker.
        if c.register_direct(RegId::R6) != *marker {
            leaked += 1;
        }
        total_exec += c.stats.scheduler_executions;
    }
    // Program memory is shared: loading each distinct program once.
    let program_bytes: usize = names
        .iter()
        .map(|n| {
            sched::load(n)
                .expect("bundled schedulers compile")
                .size_bytes()
        })
        .sum();

    let mut table = Table::new(
        format!(
            "{TENANTS} tenants, mixed schedulers and backends, {} distinct schedulers \
             (shared across tenants)",
            names.len()
        ),
        &["what", "value"],
    );
    for (what, value) in [
        ("tenants completed", completed),
        ("register leaks", leaked),
        ("scheduler executions", total_exec),
        ("resident program KB", program_bytes as u64 / 1000),
    ] {
        table.row(vec![text(what), int(value)]);
    }
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "every tenant's transfer completes under its own scheduler",
                "not in the paper (checked: all tenants complete)",
                format!("{completed}/{TENANTS}"),
                completed == TENANTS as u64,
            ),
            Shape::sim(
                "per-connection register state is isolated",
                "not in the paper (checked: 0 leaks)",
                format!("{leaked} leaks"),
                leaked == 0,
            ),
            Shape::sim(
                "resident scheduler memory stays in the paper's few-hundred-KB regime",
                "the memory overhead \"does not restrict the adoption\" \
                 (checked: < 512 KiB for all programs)",
                format!("{} KB for {} schedulers", program_bytes / 1000, names.len()),
                program_bytes < 512 * 1024,
            ),
        ],
    }
}
