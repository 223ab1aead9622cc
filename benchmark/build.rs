//! Records the compiler's version for the run header.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string());
    println!("cargo:rustc-env=QCCD_BENCHMARK_RUSTC={version}");
}
