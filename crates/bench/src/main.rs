//! Run the FPISA benchmark sets and write `BENCH_accumulator.json`
//! (core + pipeline hot paths), `BENCH_agg.json` (the in-network
//! aggregation protocol) and `BENCH_netsim.json` (chaos all-reduces
//! through the adversarial network simulator).
//!
//! ```sh
//! cargo run --release -p fpisa-bench [accumulator-path [agg-path [netsim-path]]]
//! cargo run -p fpisa-bench -- --quick   # CI smoke: tiny batches, no files
//! ```
//!
//! `--quick` exercises every bench (including the compiled engine, the
//! batch paths, the aggregation protocol and the network simulator) with
//! tiny batch sizes and writes nothing — timing-flake-proof coverage for
//! CI, not a measurement.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut paths = args.iter().filter(|a| !a.starts_with("--"));
    let out_path = paths
        .next()
        .cloned()
        .unwrap_or_else(|| "BENCH_accumulator.json".into());
    let agg_path = paths
        .next()
        .cloned()
        .unwrap_or_else(|| "BENCH_agg.json".into());
    let netsim_path = paths
        .next()
        .cloned()
        .unwrap_or_else(|| "BENCH_netsim.json".into());
    if quick {
        eprintln!("running FPISA benchmarks in --quick smoke mode (no file output)...");
    } else {
        eprintln!("running FPISA benchmarks (release profile recommended)...");
    }
    let scale = if quick { 0.02 } else { 1.0 };
    let meta = fpisa_bench::BenchMeta::capture();
    eprintln!(
        "host: {} core(s), {} profile",
        meta.host_cores, meta.profile
    );
    let results = fpisa_bench::run_all(scale);
    let agg_results = fpisa_bench::run_agg(scale);
    let netsim_results = fpisa_bench::run_netsim(scale);
    for r in results.iter().chain(&agg_results).chain(&netsim_results) {
        println!("{:<44} {:>10.1} ns/op", r.name, r.ns_per_op);
    }
    if quick {
        eprintln!("--quick: skipped writing {out_path}, {agg_path} and {netsim_path}");
        return;
    }
    for (path, set) in [
        (&out_path, &results),
        (&agg_path, &agg_results),
        (&netsim_path, &netsim_results),
    ] {
        let json = fpisa_bench::to_json(&meta, set);
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
