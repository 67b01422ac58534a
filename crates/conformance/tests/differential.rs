//! The conformance contract on the bundled schedulers, and the generator
//! properties the seeded sweep rests on (the 600-seed sweep itself is the
//! `program` row of `tests/tiers.rs`).

use progmp_conformance::differ::run_differential;
use progmp_conformance::gen::Generator;
use progmp_core::parser::parse;

#[test]
fn generated_programs_print_idempotently() {
    for seed in 0..200 {
        let mut generator = Generator::new(seed);
        let program = generator.program();
        let printed = program.to_string();
        let reparsed = parse(&printed).expect("printed program parses");
        assert_eq!(
            reparsed.to_string(),
            printed,
            "seed {seed}: print(parse(print(p))) != print(p)"
        );
    }
}

#[test]
fn bundled_schedulers_agree_across_backends() {
    // The hand-written schedulers exercise idioms the generator may
    // under-sample; run each for the differential's three rounds on a
    // spread of random environments.
    for (name, source) in progmp_schedulers::sources::ALL {
        for env_seed in [1u64, 42, 1000, 123_456] {
            let mut generator = Generator::new(env_seed);
            let spec = generator.env_spec();
            match run_differential(source, &spec) {
                Ok(None) => {}
                Ok(Some(d)) => panic!(
                    "bundled scheduler `{name}` diverged on env seed {env_seed}:\n{}",
                    d.report()
                ),
                Err(e) => panic!("bundled scheduler `{name}` failed to compile: {e}"),
            }
        }
    }
}

#[test]
fn divergence_free_seeds_are_deterministic() {
    // Re-checking a seed must traverse the identical program and env.
    let mut a = Generator::new(321);
    let mut b = Generator::new(321);
    assert_eq!(a.program().to_string(), b.program().to_string());
    assert_eq!(a.env_spec().render(), b.env_spec().render());
}
