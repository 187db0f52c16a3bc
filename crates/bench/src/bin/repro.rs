//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--seed N] [--obs-summary] <experiment>...
//! repro all                             # everything (table1 takes ~1 min in release)
//! repro table1 fig8 fig13               # a subset
//! repro bench kernels --out /tmp/fresh.json
//! repro compare BENCH_kernels.json /tmp/fresh.json
//! ```

use std::process::ExitCode;

use tsad_bench::experiments::*;
use tsad_bench::gate::Doc;
use tsad_bench::DEFAULT_SEED;

// Count allocations in this binary so `bench` can report allocation rows
// honestly; library consumers never see this allocator.
#[global_allocator]
static ALLOC: tsad_bench::alloc_track::CountingAlloc = tsad_bench::alloc_track::CountingAlloc;

/// Wall-clock time per experiment (one sample per `run_one` call).
static EXPERIMENT_NS: tsad_obs::Span = tsad_obs::Span::new("repro.experiment_ns");

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "density",
    "summary",
    "contest",
    "invariances",
    "protocols",
    "gallery",
    "triviality",
    "audit",
    "stream",
    "faults",
    "catalog",
    "detectors-md",
    "fleet",
    "loadgen",
    "wal",
    "write-archive",
];

/// The bench suites, each committed as `BENCH_<suite>.json`.
const SUITES: &[&str] = &["kernels", "fleet", "ingest", "wal", "catalog", "faults"];

fn usage() -> String {
    format!(
        "usage: repro [--seed N] [--obs-summary] [--out PATH] <experiment>...\n       \
         repro all\n       \
         repro [--seed N] bench <suite> [--out PATH]\n       \
         repro compare BASE FRESH\n\
         experiments: {}\n\
         suites: {}\n\
         bench <suite>     run a bench suite and write its tsad-bench/v1 document\n\
         compare BASE FRESH  gate a fresh document against the committed one (nonzero exit on failure)\n\
         --obs-summary     print the tsad-obs metric summary to stderr at exit\n\
         --out PATH        where bench writes (default BENCH_<suite>.json) and detectors-md writes\n                  \
         (default DETECTORS.md)\n\
         --fleet-series N  fleet / bench fleet: series count (defaults: fleet 1000000, bench fleet 100000)\n\
         --addr HOST:PORT  loadgen: drive an already-running server (default: self-hosted on 127.0.0.1:0)\n\
         --series N        loadgen: series-id space (default 10000)\n\
         --rps N           loadgen: target requests/second, 0 = unpaced (default 0)\n\
         --conns C         loadgen: concurrent client connections (default 4)\n\
         --transport T     loadgen: http or tcp (default http)\n\
         --requests N      loadgen: total requests, 0 = run for --duration-ms (default 10000)\n\
         --duration-ms N   loadgen: run length when --requests 0 (default 5000)\n\
         --batch-points N  loadgen: points per request (default 64)",
        EXPERIMENTS.join(", "),
        SUITES.join(", ")
    )
}

/// Parsed command-line options (everything but the experiment list).
struct Options {
    seed: u64,
    obs_summary: bool,
    out: Option<String>,
    fleet_series: Option<u64>,
    loadgen: ingest_bench::LoadGenCli,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            seed: DEFAULT_SEED,
            obs_summary: false,
            out: None,
            fleet_series: None,
            loadgen: ingest_bench::LoadGenCli::default(),
        }
    }
}

/// Runs one bench suite and returns its document.
fn bench(suite: &str, opts: &Options) -> Result<Doc, Box<dyn std::error::Error>> {
    let seed = opts.seed;
    Ok(match suite {
        "kernels" => bench_json::run(seed, &bench_json::BenchConfig::default())?,
        "fleet" => {
            // CI scale by default, so the committed baseline regenerates
            // quickly on any machine
            let mut cfg = fleet::FleetBenchConfig::ci();
            if let Some(n) = opts.fleet_series {
                cfg.series = n;
            }
            fleet::to_doc(&fleet::run(seed, &cfg)?)
        }
        "ingest" => ingest_bench::to_doc(&ingest_bench::run(
            seed,
            &ingest_bench::IngestBenchConfig::ci(),
        )?),
        "wal" => wal_bench::to_doc(&wal_bench::run(seed, &wal_bench::WalBenchConfig::ci())?),
        "catalog" => catalog::to_doc(&catalog::run(seed, &catalog::CatalogConfig::ci())?),
        "faults" => faults::to_doc(&faults::run(seed)?),
        other => {
            return Err(format!("unknown suite {other:?}; suites: {}", SUITES.join(", ")).into())
        }
    })
}

/// `repro bench <suite>`: runs the suite and writes its document.
fn run_bench(args: &[String], opts: &Options) -> Result<(), String> {
    let [_, suite] = args else {
        return Err(format!("bench takes one suite\n{}", usage()));
    };
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{suite}.json"));
    let doc = bench(suite, opts).map_err(|e| format!("bench {suite} failed: {e}"))?;
    std::fs::write(&out, doc.render()).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out} ({} rows)", doc.rows.len());
    Ok(())
}

fn run_experiment(name: &str, opts: &Options) -> Result<(), String> {
    run_one(name, opts).map_err(|e| format!("experiment {name} failed: {e}"))
}

/// `repro compare BASE FRESH`: prints the delta table; `Err` on a failed
/// gate or an unreadable/malformed document.
fn compare_files(base: &str, fresh: &str) -> Result<(), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let report = tsad_bench::gate::compare(&read(base)?, &read(fresh)?)?;
    print!("{}", tsad_bench::gate::render(&report));
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{fresh} regresses against {base}"))
    }
}

fn run_one(name: &str, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let seed = opts.seed;
    let _timer = EXPERIMENT_NS.start();
    println!("════════ {name} (seed {seed}) ════════");
    match name {
        "table1" => {
            let t = table1::run(seed, None)?;
            println!("Table 1 — brute-force one-liner results on the simulated Yahoo benchmark");
            println!("(paper: A1 65.7%, A2 97.0%, A3 98.0%, A4 77.0%, total 86.1%)");
            println!("{}", t.render());
        }
        "fig1" => print!("{}", oneliners::render_fig1(&oneliners::fig1(seed)?)),
        "fig2" => print!("{}", oneliners::render_fig2(&oneliners::fig2(seed)?)),
        "fig3" => print!("{}", oneliners::render_fig3(&oneliners::fig3(seed)?)),
        "fig4" => {
            let f = mislabels::fig4(seed)?;
            println!(
                "Fig. 4 — constant-region mislabel: value at A ({}) = {:.4}, at B ({}) = {:.4}",
                f.a, f.value_a, f.b, f.value_b
            );
            println!(
                "  A labeled: {}, B labeled: {} — yet nothing changed from A to B",
                f.dataset.labels().contains(f.a),
                f.dataset.labels().contains(f.b)
            );
            println!(
                "  twin analyzer surfaces B as a suspected false negative: {}",
                f.twin_found
            );
        }
        "fig5" => {
            let f = mislabels::fig5(seed)?;
            println!(
                "Fig. 5 — twin dropouts: C at {} (labeled), D at {} (unlabeled)",
                f.c, f.d
            );
            match f.twin_distance {
                Some(d) => println!("  analyzer finds D with z-norm distance {d:.4} to C"),
                None => println!("  analyzer FAILED to find D"),
            }
        }
        "fig6" => print!("{}", mislabels::render_fig6(&mislabels::fig6(seed)?)),
        "fig7" => {
            let f = mislabels::fig7(seed)?;
            println!("Fig. 7 — over-precise toggling labels:");
            println!(
                "  given labels: {} regions toggling after the change point",
                f.dataset.labels().region_count()
            );
            println!(
                "  oracle (whole changed suffix) F1 vs toggling labels: {:.3}; vs proposed contiguous label: {:.3}",
                f.oracle_vs_toggling, f.oracle_vs_proposed
            );
        }
        "fig8" => print!("{}", taxi::render(&taxi::fig8(seed, 1)?)),
        "fig9" => {
            let f = mislabels::fig9(seed)?;
            println!(
                "Fig. 9 — frozen telemetry: {} frozen regions at {:?}, 1 labeled",
                f.frozen.len(),
                f.frozen.iter().map(|r| r.start).collect::<Vec<_>>()
            );
            println!(
                "  twin analyzer surfaces {} of 2 unlabeled freezes as suspected false negatives",
                f.unlabeled_freezes_found
            );
        }
        "fig10" => print!("{}", position::render(&position::fig10(seed, None)?)),
        "fig11" | "fig12" => {
            let f11 = ucr_figs::fig11(seed)?;
            let f12 = ucr_figs::fig12(seed)?;
            print!("{}", ucr_figs::render(&f11, &f12));
        }
        "fig13" => {
            let f = fig13::run(seed, &[0.0, 0.25, 0.5, 0.75, 1.0])?;
            print!("{}", fig13::render(&f));
        }
        "density" => print!("{}", density::render(&density::run(seed)?)),
        "summary" => print!("{}", summary::render(&summary::run(seed, 25)?)),
        "contest" => print!("{}", contest::render(&contest::run(seed, 30)?)),
        "invariances" => print!("{}", invariances::render(&invariances::run(seed, 12_000)?)),
        "protocols" => print!("{}", protocols::render(&protocols::run(seed)?)),
        "gallery" => print!("{}", gallery::render(&gallery::run(seed)?)),
        "triviality" => print!(
            "{}",
            triviality_all::render(&triviality_all::run(seed, 38)?)
        ),
        "audit" => print!("{}", audit_exp::render(&audit_exp::run(seed, 10, 21)?)),
        "stream" => print!("{}", stream::render(&stream::run(seed)?)),
        "faults" => print!("{}", faults::render(&faults::run(seed)?)),
        "catalog" => print!(
            "{}",
            catalog::render(&catalog::run(seed, &catalog::CatalogConfig::ci())?)
        ),
        "detectors-md" => {
            let md = catalog::detectors_md();
            let out = opts.out.as_deref().unwrap_or("DETECTORS.md");
            std::fs::write(out, &md)?;
            println!("wrote {out} ({} bytes)", md.len());
        }
        "fleet" => {
            // the acceptance-scale demo: a million resident detectors
            let mut cfg = fleet::FleetBenchConfig::default();
            if let Some(n) = opts.fleet_series {
                cfg.series = n;
            }
            print!("{}", fleet::render(&fleet::run(seed, &cfg)?));
        }
        "loadgen" => match ingest_bench::run_loadgen(&opts.loadgen, seed) {
            Ok(report) => print!("{report}"),
            Err(e) => return Err(e.into()),
        },
        "wal" => print!(
            "{}",
            wal_bench::render(&wal_bench::run(seed, &wal_bench::WalBenchConfig::ci())?)
        ),
        "write-archive" => {
            let dir = std::env::temp_dir().join("tsad-ucr-archive");
            let rows = tsad_archive::manifest::build_and_write(&dir, seed, 30)?;
            println!(
                "wrote {} datasets + MANIFEST.tsv + README.md to {}",
                rows.len(),
                dir.display()
            );
        }
        other => {
            eprintln!("unknown experiment {other:?}\n{}", usage());
            return Err("unknown experiment".into());
        }
    }
    println!();
    Ok(())
}

/// Removes `--flag VALUE` from `args`, returning the value if present.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn parse_options(args: &mut Vec<String>) -> Result<Options, String> {
    let mut opts = Options::default();
    if let Some(v) = take_value_flag(args, "--seed")? {
        opts.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
    }
    if let Some(pos) = args.iter().position(|a| a == "--obs-summary") {
        args.remove(pos);
        opts.obs_summary = true;
    }
    opts.out = take_value_flag(args, "--out")?;
    if let Some(v) = take_value_flag(args, "--fleet-series")? {
        opts.fleet_series = Some(v.parse().map_err(|e| format!("bad fleet series: {e}"))?);
    }
    opts.loadgen.addr = take_value_flag(args, "--addr")?;
    if let Some(v) = take_value_flag(args, "--series")? {
        opts.loadgen.cfg.series = v.parse().map_err(|e| format!("bad series: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--rps")? {
        opts.loadgen.cfg.rps = v.parse().map_err(|e| format!("bad rps: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--conns")? {
        opts.loadgen.cfg.conns = v.parse().map_err(|e| format!("bad conns: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--transport")? {
        opts.loadgen.cfg.transport = v.parse()?;
    }
    if let Some(v) = take_value_flag(args, "--requests")? {
        opts.loadgen.cfg.requests = v.parse().map_err(|e| format!("bad requests: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--duration-ms")? {
        let ms: u64 = v.parse().map_err(|e| format!("bad duration: {e}"))?;
        opts.loadgen.cfg.duration = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = take_value_flag(args, "--batch-points")? {
        opts.loadgen.cfg.batch_points = v.parse().map_err(|e| format!("bad batch points: {e}"))?;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&mut args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.first().map(String::as_str) {
        None => Err(usage()),
        Some("bench") => run_bench(&args, &opts),
        Some("compare") => match args.as_slice() {
            [_, base, fresh] => compare_files(base, fresh),
            _ => Err(format!("compare takes BASE FRESH\n{}", usage())),
        },
        Some(_) if args.iter().any(|a| a == "all") => EXPERIMENTS
            .iter()
            .filter(|e| {
                !matches!(
                    **e,
                    "fig12" | "write-archive" | "detectors-md" | "fleet" | "loadgen" | "wal"
                )
            })
            .try_for_each(|name| run_experiment(name, &opts)),
        Some(_) => args.iter().try_for_each(|name| run_experiment(name, &opts)),
    };
    if let Err(e) = outcome {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if opts.obs_summary {
        eprint!("{}", tsad_obs::render_summary(&tsad_obs::snapshot()));
    }
    ExitCode::SUCCESS
}
