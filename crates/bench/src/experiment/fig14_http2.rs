use super::{int, num, Outcome, Shape, Table};
use http2_sim::{run_page_load, ContentClass, Page, ServerMode, WifiLteProfile};
use mptcp_sim::time::from_millis;
use progmp_schedulers as sched;

pub fn run() -> Outcome {
    let page = Page::amazon_like();
    let mut table = Table::new(
        format!(
            "WiFi-RTT sweep; page: {} KB total, {} KB post-initial; LTE 60 ms metered",
            page.total_bytes() / 1000,
            page.class_bytes(ContentClass::PostInitial) / 1000
        ),
        &[
            "WiFi RTT",
            "deps dflt",
            "deps aware",
            "initial dflt",
            "initial aware",
            "LTE dflt",
            "LTE aware",
        ],
    );
    let mut lte_savings = Vec::new();
    let mut dep_ok = 0;
    let wifi_rtts = [10u64, 20, 40, 80, 120];
    for wifi_ms in wifi_rtts {
        let profile = WifiLteProfile {
            wifi_rtt: from_millis(wifi_ms),
            ..Default::default()
        };
        let unaware = run_page_load(
            &page,
            &profile,
            sched::DEFAULT_MIN_RTT,
            ServerMode::Legacy,
            31,
        )
        .expect("the default scheduler compiles");
        let aware = run_page_load(&page, &profile, sched::HTTP2_AWARE, ServerMode::Aware, 31)
            .expect("the HTTP/2-aware scheduler compiles");
        table.row(vec![
            int(wifi_ms).unit(" ms"),
            num(unaware.dependency_resolved as f64 / 1e6, 1).unit(" ms"),
            num(aware.dependency_resolved as f64 / 1e6, 1).unit(" ms"),
            num(unaware.initial_page_time as f64 / 1e6, 1).unit(" ms"),
            num(aware.initial_page_time as f64 / 1e6, 1).unit(" ms"),
            int(unaware.lte_bytes / 1000).unit(" KB"),
            int(aware.lte_bytes / 1000).unit(" KB"),
        ]);
        lte_savings.push(1.0 - aware.lte_bytes as f64 / unaware.lte_bytes.max(1) as f64);
        if aware.dependency_resolved <= unaware.dependency_resolved + from_millis(3) {
            dep_ok += 1;
        }
    }

    let min_saving = lte_savings.iter().cloned().fold(f64::INFINITY, f64::min);
    Outcome {
        tables: vec![table],
        shapes: vec![
            Shape::sim(
                "dependency retrieval with the aware scheduler is never worse",
                "the HTTP/2-aware scheduler reduces the time to retrieve all dependency \
                 information (checked: within 3 ms of the default or earlier at all but one point)",
                format!("{dep_ok}/{} sweep points", wifi_rtts.len()),
                dep_ok >= wifi_rtts.len() - 1,
            ),
            Shape::sim(
                "preference-aware post-initial scheduling cuts metered LTE usage at every RTT",
                "significantly reduces the data transferred on the metered LTE subflow \
                 (checked: min saving > 30%)",
                format!("min saving {:.0}%", min_saving * 100.0),
                min_saving > 0.3,
            ),
        ],
    }
}
