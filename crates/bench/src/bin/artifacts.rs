//! The single experiment driver: resolves named specs through the
//! [`qccd_bench::registry`], runs them on the sweep engine, and emits
//! pretty/CSV/JSON artifacts. Run with `-- --help` for usage.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = qccd_bench::cli::run(&args) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}
